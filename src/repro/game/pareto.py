"""Pareto optimality: frontier computation and FDC diagnostics.

An interior allocation is Pareto optimal only if every user's marginal
rate of substitution matches the constraint's marginal cost:
``M_i(r_i, c_i) = -df/dr_i`` (the paper's ``Z_i``).  For the M/M/1
curve ``df/dr_i = g'(sum r)`` is the same for everyone; for separable
constraints it is user specific.

The frontier itself is computed by maximizing weighted utility sums
over the *full* feasible set — equality ``sum c = f(r)`` plus the
Coffman-Mitrani subset inequalities, enumerated exactly for the small
``N`` used in experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.numerics.rng import default_rng
from repro.queueing.service_curves import ServiceCurve
from repro.users.utility import Utility

#: Largest total load the frontier programs allow, just inside the
#: M/M/1 stable region (capacity 1).
RATE_CAP = 0.999

#: Smallest total utility gain :func:`pareto_improvement` reports.
MIN_GAIN = 1e-6


class ConstraintAdapter:
    """Uniform interface over total-congestion constraints.

    Wraps either a :class:`~repro.queueing.service_curves.ServiceCurve`
    (total congestion depends on total load only) or any object with
    ``total(rates)`` / ``partial(rates, i)`` methods (e.g. the
    separable sum-of-squares constraint of Corollary 2).
    """

    def __init__(self, source) -> None:
        self._curve: Optional[ServiceCurve] = None
        if isinstance(source, ServiceCurve):
            self._curve = source
        elif hasattr(source, "total") and hasattr(source, "partial"):
            self._generic = source
        else:
            raise TypeError(
                "constraint source must be a ServiceCurve or expose "
                f"total/partial, got {type(source).__name__}")

    @classmethod
    def for_allocation(cls, allocation) -> "ConstraintAdapter":
        """The constraint an allocation function is feasible against."""
        constraint = getattr(allocation, "constraint", None)
        if constraint is not None:
            return cls(constraint)
        return cls(allocation.curve)

    def total(self, rates: Sequence[float]) -> float:
        """``f(r)``: total congestion forced by the rate vector."""
        if self._curve is not None:
            return self._curve.value(float(np.sum(rates)))
        return self._generic.total(rates)

    def partial(self, rates: Sequence[float], i: int) -> float:
        """``df/dr_i``."""
        if self._curve is not None:
            return self._curve.derivative(float(np.sum(rates)))
        return self._generic.partial(rates, i)

    @property
    def has_subset_constraints(self) -> bool:
        """Whether the Coffman-Mitrani subset inequalities apply."""
        return self._curve is not None

    def subset_total(self, subset_rates: Sequence[float]) -> float:
        """Minimum aggregate congestion of a user subset."""
        if self._curve is None:
            raise ValueError("subset constraints only apply to curves")
        return self._curve.value(float(np.sum(subset_rates)))


@dataclass
class ParetoResult:
    """A point on the Pareto frontier.

    Attributes
    ----------
    rates, congestion:
        The allocation.
    utilities:
        Utility levels there.
    weights:
        The welfare weights that generated it.
    success:
        Whether the optimizer converged.
    """

    rates: np.ndarray
    congestion: np.ndarray
    utilities: np.ndarray
    weights: np.ndarray
    success: bool


def pareto_fdc_residuals(profile: Sequence[Utility],
                         rates: Sequence[float],
                         congestion: Sequence[float],
                         constraint: ConstraintAdapter) -> np.ndarray:
    """``M_i + df/dr_i`` for each user (zero at interior Pareto points)."""
    r = np.asarray(rates, dtype=float)
    c = np.asarray(congestion, dtype=float)
    out = np.empty(r.size)
    for i, utility in enumerate(profile):
        out[i] = (utility.marginal_ratio(float(r[i]), float(c[i]))
                  + constraint.partial(r, i))
    return out


def is_pareto_fdc(profile: Sequence[Utility], rates: Sequence[float],
                  congestion: Sequence[float],
                  constraint: ConstraintAdapter,
                  tol: float = 1e-5) -> bool:
    """Whether the interior Pareto first-derivative condition holds."""
    residuals = pareto_fdc_residuals(profile, rates, congestion, constraint)
    return bool(np.max(np.abs(residuals)) <= tol)


def _feasibility_constraints(n: int, constraint: ConstraintAdapter,
                             rate_cap: float):
    """Build SLSQP constraint dicts over the stacked variable (r, c)."""
    constraints = [{
        "type": "eq",
        "fun": lambda x: float(np.sum(x[n:]) - constraint.total(x[:n])),
    }]
    if constraint.has_subset_constraints:
        indices = range(n)
        for size in range(1, n):
            for subset in itertools.combinations(indices, size):
                idx = np.array(subset)
                constraints.append({
                    "type": "ineq",
                    "fun": (lambda x, idx=idx: float(
                        np.sum(x[n + idx])
                        - constraint.subset_total(x[idx]))),
                })
    # Keep total load inside the stable region for curve constraints.
    if math.isfinite(rate_cap):
        constraints.append({
            "type": "ineq",
            "fun": lambda x: rate_cap - float(np.sum(x[:n])),
        })
    return constraints


def solve_weighted_pareto(profile: Sequence[Utility],
                          weights: Sequence[float],
                          constraint: ConstraintAdapter) -> ParetoResult:
    """Maximize ``sum_i W_i U_i`` over the feasible allocation set.

    Every maximizer with nonnegative weights is Pareto optimal; sweeping
    weights traces the frontier.  Utilities are ordinal, but that is
    fine here — the weighted sum is only a *generator* of Pareto points,
    not a welfare statement.  SLSQP starts every rate at ``0.5 / N``,
    with the forced total congestion shared equally, and keeps every
    rate and the total load at most :data:`RATE_CAP`.
    """
    from scipy import optimize as sp_optimize

    n = len(profile)
    w = np.asarray(weights, dtype=float)
    if w.size != n:
        raise ValueError(f"{w.size} weights for {n} users")
    if np.any(w < 0.0) or w.sum() <= 0.0:
        raise ValueError("weights must be nonnegative and not all zero")
    start_r = np.full(n, 0.5 / n)
    total = constraint.total(start_r)
    x0 = np.concatenate([start_r, np.full(n, max(total, 1e-3) / n)])

    def objective(x: np.ndarray) -> float:
        value = 0.0
        for i, utility in enumerate(profile):
            u = utility.value(float(x[i]), float(x[n + i]))
            if not math.isfinite(u):
                return 1e9
            value += w[i] * u
        return -value

    bounds = ([(1e-5, RATE_CAP)] * n) + ([(1e-7, None)] * n)
    result = sp_optimize.minimize(
        objective, x0, method="SLSQP", bounds=bounds,
        constraints=_feasibility_constraints(n, constraint, RATE_CAP),
        options={"maxiter": 400, "ftol": 1e-12})
    rates = np.asarray(result.x[:n], dtype=float)
    congestion = np.asarray(result.x[n:], dtype=float)
    utilities = np.array([u.value(float(rates[i]), float(congestion[i]))
                          for i, u in enumerate(profile)])
    return ParetoResult(rates=rates, congestion=congestion,
                        utilities=utilities, weights=w,
                        success=bool(result.success))


def pareto_improvement(profile: Sequence[Utility],
                       rates: Sequence[float],
                       congestion: Sequence[float],
                       constraint: ConstraintAdapter,
                       rate_cap: float = RATE_CAP) -> Optional[ParetoResult]:
    """Search for a feasible allocation Pareto-dominating the given one.

    Maximizes the *sum* of utility gains subject to feasibility and to
    no user losing — a smooth program whose optimum, when the total
    gain is positive, is a (weak) Pareto improvement: nobody worse,
    somebody strictly better.  Several jittered starts are tried
    because the base point itself sits on the no-loss constraint
    boundary.  Returns ``None`` when no dominating point gains at least
    :data:`MIN_GAIN` in total (evidence — not proof — of Pareto
    optimality).
    """
    from scipy import optimize as sp_optimize

    n = len(profile)
    base_r = np.asarray(rates, dtype=float)
    base_c = np.asarray(congestion, dtype=float)
    base_u = np.array([u.value(float(base_r[i]), float(base_c[i]))
                       for i, u in enumerate(profile)])

    def utilities_of(x: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        for i, utility in enumerate(profile):
            out[i] = utility.value(float(x[i]), float(x[n + i]))
        return out

    def objective(x: np.ndarray) -> float:
        values = utilities_of(x)
        if not np.all(np.isfinite(values)):
            return 1e9
        return -float(np.sum(values - base_u))

    constraints = _feasibility_constraints(n, constraint, rate_cap)
    for i in range(n):
        constraints.append({
            "type": "ineq",
            "fun": (lambda x, i=i: float(
                profile[i].value(float(x[i]), float(x[n + i]))
                - base_u[i])),
        })
    bounds = ([(1e-5, rate_cap)] * n) + ([(1e-7, None)] * n)
    rng = default_rng(0)
    best: Optional[np.ndarray] = None
    best_total = 0.0
    x0_base = np.concatenate([base_r, base_c])
    for attempt in range(4):
        x0 = x0_base
        if attempt > 0:
            x0 = x0_base * rng.uniform(0.9, 1.1, size=x0_base.size)
            x0[:n] = np.clip(x0[:n], 1e-5, rate_cap)
        result = sp_optimize.minimize(
            objective, x0, method="SLSQP", bounds=bounds,
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-12})
        if not result.success:
            continue
        gains = utilities_of(result.x) - base_u
        # Verify feasibility wasn't traded away by solver slack.
        residual = abs(float(np.sum(result.x[n:])
                             - constraint.total(result.x[:n])))
        if residual > 1e-6:
            continue
        if float(gains.min()) >= -1e-8 and float(gains.sum()) > best_total:
            best = np.asarray(result.x, dtype=float)
            best_total = float(gains.sum())
    if best is None or best_total < MIN_GAIN:
        return None
    rates_new = best[:n]
    congestion_new = best[n:]
    return ParetoResult(rates=rates_new, congestion=congestion_new,
                        utilities=utilities_of(best),
                        weights=np.full(n, 1.0 / n), success=True)
