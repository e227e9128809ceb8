"""Separable constraints and the Corollary-2 allocation.

Corollary 2 shows Pareto-optimal Nash equilibria *are* achievable when
the constraint function decomposes as
``f_hat(r) = (1/(N-1)) sum_i h_i(r)`` with ``dh_i/dr_i = 0`` and
``f_hat - h_i >= 0``: take ``C_i = f_hat - h_i``, so each user's own
congestion responds to her own rate exactly like the total does
(``dC_i/dr_i = df_hat/dr_i``), aligning the Nash FDC with the Pareto
FDC.

The canonical example from the paper text: ``f_hat(r) = sum_j r_j^2``
with ``h_i = sum_{j != i} r_j^2``, giving ``C_i(r) = r_i^2``.

The M/M/1 curve admits *no* such decomposition in any open neighborhood
(that is Theorem 1), which the tests verify numerically via the mixed
partial ``d^N f / dr_1 ... dr_N != 0``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.disciplines.base import (AllocationFunction, RowEvaluator,
                                    check_classes)
from repro.queueing.service_curves import QuadraticCurve


class SumOfSquaresConstraint:
    """The separable constraint ``f_hat(r) = a * sum_i r_i^2``.

    Exposes the interface the Pareto machinery needs: the total
    congestion and its partial derivatives.  Unlike a service curve,
    this is a function of the full rate vector, not just total load.
    """

    def __init__(self, a: float = 1.0) -> None:
        if a <= 0.0:
            raise ValueError(f"coefficient must be positive, got {a}")
        self.a = float(a)

    def total(self, rates: Sequence[float]) -> float:
        """``f_hat(r)``."""
        r = np.asarray(rates, dtype=float)
        return float(self.a * np.dot(r, r))

    def partial(self, rates: Sequence[float], i: int) -> float:
        """``df_hat/dr_i``."""
        r = np.asarray(rates, dtype=float)
        return 2.0 * self.a * float(r[i])

    def share(self, rates: Sequence[float], i: int) -> float:
        """``h_i(r_{-i}) = f_hat - a r_i^2`` (independent of ``r_i``)."""
        r = np.asarray(rates, dtype=float)
        return self.total(r) - self.a * float(r[i]) ** 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SumOfSquaresConstraint(a={self.a})"


class SeparableAllocation(AllocationFunction):
    """The Corollary-2 allocation ``C_i = f_hat - h_i`` (= ``a r_i^2``).

    Every Nash equilibrium under this allocation is Pareto optimal with
    respect to the separable constraint: each user's marginal congestion
    equals the marginal total congestion, so individual optimality
    implies joint optimality.
    """

    name = "separable"

    def __init__(self, constraint: SumOfSquaresConstraint = None) -> None:
        self.constraint = (constraint if constraint is not None
                           else SumOfSquaresConstraint())
        # The separable world has no capacity pole; the quadratic curve
        # communicates that (capacity = inf) to best-response search and
        # Nash solvers.  Feasibility checks are overridden below.
        super().__init__(curve=QuadraticCurve(self.constraint.a))

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2:
            raise ValueError(
                f"profiles must be 2-D (batch, users), got {batch.shape}")
        if batch.size and float(batch.min()) < 0.0:
            raise ValueError("rates must be nonnegative")
        return self.constraint.a * batch * batch

    # -- symmetry-class evaluation -------------------------------------------

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """``C(x) = a x^2`` on every row — the opponents (and
        multiplicities) do not matter at all, so there is nothing to
        hoist but ``a``."""
        check_classes(class_rates, counts)
        coefficient = self.constraint.a

        def evaluate(xs: np.ndarray) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            if cand.size and float(cand.min()) < 0.0:
                raise ValueError("rates must be nonnegative")
            return coefficient * cand * cand

        return evaluate

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """``C_k = a s_k^2``: fully decoupled, multiplicities irrelevant."""
        c, _ = check_classes(class_rates, counts)
        return self.constraint.a * c * c

    def class_own_derivative(self, class_rates: Sequence[float],
                             counts: Sequence[int], i: int,
                             include_self: bool = False) -> float:
        """``dC/dx = 2 a x`` — decoupled, like everything else here."""
        c, _ = check_classes(class_rates, counts)
        return 2.0 * self.constraint.a * float(c[i])

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``df_hat/dr_i = 2 a r_i`` on the diagonal, 0 off it."""
        r = np.asarray(rates, dtype=float)
        out = np.zeros(r.shape)
        out[i] = self.constraint.partial(r, i)
        return out

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``2 a`` on the diagonal, 0 off it."""
        r = np.asarray(rates, dtype=float)
        out = np.zeros(r.shape)
        out[i] = 2.0 * self.constraint.a
        return out

    # The separable world has no capacity pole; every positive rate
    # vector is admissible and the allocation is feasible by
    # construction against its own constraint.

    def in_domain(self, rates: Sequence[float]) -> bool:
        r = np.asarray(rates, dtype=float)
        return bool(np.all(r > 0.0))

    def is_feasible_at(self, rates: Sequence[float],
                       tol: float = 1e-8) -> bool:
        c = self.congestion(rates)
        return bool(abs(float(c.sum()) - self.constraint.total(rates)) <= tol)

    def in_stable_region(self, rates: Sequence[float]) -> bool:
        """Always stable: the quadratic world has no capacity pole."""
        return True


def mm1_is_not_separable(n_users: int, at_load: float = 0.5,
                         probe: float = 1e-3) -> float:
    """Numeric witness for Theorem 1's final step.

    If ``f(r) = g(sum r)`` could be written as
    ``(1/(N-1)) sum h_i`` with ``dh_i/dr_i = 0``, then the mixed
    partial ``d^N f / dr_1 ... dr_N`` would vanish (each ``h_i`` misses
    one variable, killing the full mixed partial).  For the M/M/1 curve
    that mixed partial equals ``g^(N)(sum r) != 0``.  Returns the mixed
    partial estimated by an N-dimensional central difference; callers
    assert it is bounded away from zero.
    """
    if n_users < 2:
        raise ValueError("separability is only meaningful for N >= 2")
    base = np.full(n_users, at_load / n_users)

    def f(r: np.ndarray) -> float:
        total = float(np.sum(r))
        if total >= 1.0:
            return math.inf
        return total / (1.0 - total)

    # N-dimensional central difference: sum over sign patterns weighted
    # by the product of the signs.
    total = 0.0
    for mask in range(1 << n_users):
        signs = np.array([1.0 if (mask >> b) & 1 else -1.0
                          for b in range(n_users)])
        n_minus = n_users - bin(mask).count("1")
        parity = 1.0 if n_minus % 2 == 0 else -1.0
        total += parity * f(base + probe * signs)
    return total / (2.0 * probe) ** n_users
