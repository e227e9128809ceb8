"""Stalling mechanisms: buying efficient incentives with idle service.

Theorem 1 closes the door on work-conserving disciplines ever making
all Nash equilibria Pareto optimal; the paper immediately notes (citing
[33]) that *stalling* disciplines — where the constraint relaxes to
``sum c_i >= f(r)``, i.e. the server may deliberately idle — escape the
impossibility.  "Interestingly, it is the introduction of this
inefficiency (the stalling) that allows the Nash equilibrium to be
efficient."

:class:`PivotAllocation` is the cleanest such construction, the
queueing twin of Clarke-pivot pricing:

``C_i(r) = g(S) - g(S - r_i)``,  ``S = sum r``.

Each user's congestion is the *total-queue externality of her own
presence*, so ``dC_i/dr_i = g'(S) = df/dr_i`` identically: the Nash
first-derivative condition coincides with the Pareto FDC for every
utility profile.  Convexity of ``g`` (with ``g(0) = 0``) gives

``sum_i C_i = N g(S) - sum_i g(S - r_i) >= g(S)``,

so the allocation is realizable by a stalling server that holds
packets beyond their M/M/1 departure times; the overhead
``sum C - g(S)`` is the price of the aligned incentives.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.disciplines.base import (AllocationFunction, RowEvaluator,
                                    check_classes, class_opponent_totals,
                                    opponent_rows)


class PivotAllocation(AllocationFunction):
    """The stalling pivot mechanism ``C_i = g(S) - g(S - r_i)``."""

    name = "stalling-pivot"

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2:
            raise ValueError(
                f"profiles must be 2-D (batch, users), got {batch.shape}")
        if batch.size and float(batch.min()) < 0.0:
            raise ValueError("rates must be nonnegative")
        totals = batch.sum(axis=1)
        out = np.full(batch.shape, math.inf)
        ok = totals < self.curve.capacity
        g_totals = self.curve.values(totals[ok])
        out[ok] = g_totals[:, None] - self.curve.values(
            totals[ok, None] - batch[ok])
        return out

    def grid_evaluator(self, rates: Sequence[float], users: Sequence[int]
                       ) -> RowEvaluator:
        """:meth:`_rows` at each user's opponent total.  Each row sums
        its own opponents: the class rows' ``np.dot`` would round
        differently."""
        opp = opponent_rows(np.asarray(rates, dtype=float),
                            np.asarray(users, dtype=int))
        if opp.size and float(opp.min()) < 0.0:
            raise ValueError("rates must be nonnegative")
        return self._rows(opp.sum(axis=1)[:, None])

    def _rows(self, opponent_total: np.ndarray) -> RowEvaluator:
        """``C(x) = g(S_b + x) - g(S_b)`` on row ``b``, opponent totals
        fixed: one curve pass per call."""
        g_absent = self.curve.values(opponent_total)

        def evaluate(xs: np.ndarray) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            if cand.size and float(cand.min()) < 0.0:
                raise ValueError("rates must be nonnegative")
            totals = opponent_total + cand
            ok = totals < self.curve.capacity
            g = self.curve.values(np.where(ok, totals, 0.0))
            return np.subtract(g, g_absent, out=np.full(cand.shape, math.inf),
                               where=ok)

        return evaluate

    # -- symmetry-class evaluation -------------------------------------------

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """``C_k = g(S) - g(S - s_k)`` with ``S = sum m_k s_k`` — O(K)."""
        c, m = check_classes(class_rates, counts)
        total = float(np.dot(m.astype(float), c))
        if total >= self.curve.capacity:
            return np.full(c.shape, math.inf)
        return self.curve.value(total) - self.curve.values(total - c)

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """:meth:`_rows` at each deviator's weighted opponent total."""
        return self._rows(class_opponent_totals(class_rates, counts, classes,
                                                include_self))

    def class_own_derivative(self, class_rates: Sequence[float],
                             counts: Sequence[int], i: int,
                             include_self: bool = False) -> float:
        """``dC/dx = g'(S)`` — the Pareto marginal, in class space too."""
        c, m = check_classes(class_rates, counts)
        w = m.astype(float)
        if not include_self:
            if m[i] < 1:
                raise ValueError(f"class {i} is empty")
            w[i] -= 1.0
        total = float(np.dot(w, c)) + float(c[i])
        if total >= self.curve.capacity:
            return math.inf
        return self.curve.derivative(total)

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``dC_i/dr_j``: ``g'(S)`` on the diagonal — the Pareto
        marginal, by design — and ``g'(S) - g'(S - r_i)`` off it."""
        r = np.asarray(rates, dtype=float)
        total = float(r.sum())
        if total >= self.curve.capacity:
            return np.full(r.shape, math.inf)
        marginal = self.curve.derivative(total)
        out = np.full(r.shape, marginal
                      - self.curve.derivative(total - float(r[i])))
        out[i] = marginal
        return out

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``d^2 C_i/dr_i dr_j = g''(S)`` for every ``j``: the
        derivative of ``dC_i/dr_i = g'(S)``."""
        r = np.asarray(rates, dtype=float)
        total = float(r.sum())
        if total >= self.curve.capacity:
            return np.full(r.shape, math.inf)
        return np.full(r.shape, self.curve.second_derivative(total))

    def stalling_overhead(self, rates: Sequence[float]) -> float:
        """``sum C_i - g(S)``: the service deliberately burnt.

        Zero only in the single-user case; always nonnegative (the
        defining property of a stalling discipline).
        """
        r = np.asarray(rates, dtype=float)
        total = float(r.sum())
        if total >= self.curve.capacity:
            return math.inf
        return float(self.congestion(r).sum() - self.curve.value(total))

    def is_feasible_at(self, rates: Sequence[float],
                       tol: float = 1e-8) -> bool:
        """Stalling feasibility: total at least the M/M/1 value."""
        c = self.congestion(rates)
        if not np.all(np.isfinite(c)):
            return False
        return self.stalling_overhead(rates) >= -tol
