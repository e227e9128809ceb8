"""The proportional allocation (FIFO and friends).

Any discipline that treats packets symmetrically without looking at
their source — FIFO, preemptive LIFO, processor sharing, random order,
packet-level polling — splits the total mean queue in proportion to
arrival rates:

``C_i(r) = r_i * g(S) / S``,  ``S = sum r``,

which for the M/M/1 curve is the familiar ``r_i / (1 - S)``.  This is
the paper's baseline: it is in MAC but fails every one of the paper's
desiderata (efficiency, envy-freeness, uniqueness, Stackelberg
robustness, nilpotent dynamics, protection).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.disciplines.base import (AllocationFunction, RowEvaluator,
                                    check_classes, class_opponent_totals,
                                    opponent_rows)


class ProportionalAllocation(AllocationFunction):
    """``C_i = r_i g(S)/S`` with analytic derivatives.

    Derivatives are expressed through the per-unit queue
    ``phi(S) = g(S)/S`` and its derivatives, which keeps the formulas
    valid for any service curve (M/M/1, M/G/1, ...).
    """

    name = "proportional"

    # -- curve helpers -----------------------------------------------------

    def _scaled_phi(self, weights: np.ndarray,
                    totals: np.ndarray) -> np.ndarray:
        """``weights * phi(totals)`` where ``totals < capacity``, else ``inf``.

        ``totals`` broadcasts against ``weights``.  Masked ufuncs
        instead of a gather/scatter: every stable entry gets
        :meth:`_phi`'s arithmetic (``g(S)/S``, or ``g'(0)`` at
        ``S <= 0``) times its weight.  The curve sees the totals
        clipped at 0, so a negative total never raises; what it
        returns past capacity is masked out.
        """
        stable = totals < self.curve.capacity
        interior = stable & (totals > 0.0)
        g = self.curve.values(np.maximum(totals, 0.0))
        phi = np.divide(g, totals, where=interior,
                        out=np.full(totals.shape, self.curve.derivative(0.0)))
        return np.multiply(weights, phi, where=stable,
                           out=np.full(weights.shape, math.inf))

    def _phi(self, total: float) -> float:
        """Queue per unit of rate, ``g(S)/S`` (limit ``g'(0)`` at 0)."""
        if total <= 0.0:
            return self.curve.derivative(0.0)
        return self.curve.value(total) / total

    def _psi(self, total: float) -> float:
        """``phi'(S) = (g' S - g) / S^2``."""
        if total <= 0.0:
            return 0.5 * self.curve.second_derivative(0.0)
        g = self.curve.value(total)
        gp = self.curve.derivative(total)
        return (gp * total - g) / (total * total)

    def _psi_prime(self, total: float) -> float:
        """``phi''(S) = g''/S - 2 phi'/S``."""
        if total <= 0.0:
            # Third-order Taylor limit; exact value is g'''(0)/3 which we
            # approximate by a one-sided difference of psi.
            h = 1e-6
            return (self._psi(h) - self._psi(0.0)) / h
        gpp = self.curve.second_derivative(total)
        return gpp / total - 2.0 * self._psi(total) / total

    # -- allocation ----------------------------------------------------------

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """``C_i = r_i phi(S)`` for each profile of the batch."""
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2:
            raise ValueError(
                f"profiles must be 2-D (batch, users), got {batch.shape}")
        if batch.size and float(batch.min()) < 0.0:
            raise ValueError("rates must be nonnegative")
        return self._scaled_phi(batch, batch.sum(axis=1)[:, None])

    def grid_evaluator(self, rates: Sequence[float], users: Sequence[int]
                       ) -> RowEvaluator:
        """``C_i(x) = x phi(S_{-i} + x)``, each user's opponent total
        hoisted out of repeated row calls.

        Each row sums its own opponents: the class rows' ``np.dot``
        (and ``total - r_i``) would round differently.
        """
        r = np.asarray(rates, dtype=float)
        return self._rows(opponent_rows(
            r, np.asarray(users, dtype=int)).sum(axis=1)[:, None])

    def _rows(self, opponent_total: np.ndarray) -> RowEvaluator:
        """``C(x) = x phi(S_b + x)`` on row ``b``, opponent totals fixed."""
        def evaluate(xs: np.ndarray) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            return self._scaled_phi(cand, opponent_total + cand)

        return evaluate

    # -- symmetry-class evaluation -------------------------------------------

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """``C_k = s_k phi(S)`` with ``S = sum_k m_k s_k`` — O(K)."""
        c, m = check_classes(class_rates, counts)
        total = float(np.dot(m.astype(float), c))
        if total >= self.curve.capacity:
            return np.full(c.shape, math.inf)
        return c * self._phi(total)

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """Hoist each row's weighted opponent total; the per-user rows."""
        return self._rows(class_opponent_totals(class_rates, counts, classes,
                                                include_self))

    def class_own_derivative(self, class_rates: Sequence[float],
                             counts: Sequence[int], i: int,
                             include_self: bool = False) -> float:
        """``phi(S) + x psi(S)``, the per-user slope at the class point."""
        c, m = check_classes(class_rates, counts)
        w = m.astype(float)
        if not include_self:
            if m[i] < 1:
                raise ValueError(f"class {i} is empty")
            w[i] -= 1.0
        x = float(c[i])
        total = float(np.dot(w, c)) + x
        if total >= self.curve.capacity:
            return math.inf
        return self._phi(total) + x * self._psi(total)

    # -- analytic derivatives ----------------------------------------------

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """Row ``i`` of the Jacobian: ``r_i psi(S)`` off-diagonal,
        ``phi(S) + r_i psi(S)`` on it — no finite differences."""
        r = np.asarray(rates, dtype=float)
        total = float(r.sum())
        if total >= self.curve.capacity:
            return np.full(r.shape, math.inf)
        psi = self._psi(total)
        out = np.full(r.shape, float(r[i]) * psi)
        out[i] = self._phi(total) + float(r[i]) * psi
        return out

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``d^2 C_i/dr_i dr_j`` as a vector, from ``psi``/``psi'``."""
        r = np.asarray(rates, dtype=float)
        total = float(r.sum())
        if total >= self.curve.capacity:
            return np.full(r.shape, math.inf)
        psi = self._psi(total)
        psi_prime = self._psi_prime(total)
        out = np.full(r.shape, psi + float(r[i]) * psi_prime)
        out[i] = 2.0 * psi + float(r[i]) * psi_prime
        return out
