"""Strict preemptive priority by rate order.

Gives each user their own priority class, ordered by rate (ascending
by default: the smallest sender is served first, a "serve the meek"
policy; descending gives the classic big-senders-win policy).  Users in
sorted position ``k`` see the queue increment

``C_(k) = g(P_k) - g(P_{k-1})``,  ``P_k = sum_{j <= k} r_(j)``.

Tied users share their classes' aggregate queue equally, which keeps
the allocation symmetric.  The allocation is continuous but *not* C^1
across ties, so it sits outside the paper's ``AC`` set; it is included
as an instructive extreme: like Fair Share it is insular in one
direction (ascending order: ``C_i`` depends only on rates ``<= r_i``)
but it shares nothing, and it fails envy-freeness and protectiveness in
the descending variant.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.disciplines.base import (AllocationFunction, RowEvaluator,
                                    check_classes)
from repro.exceptions import DisciplineError
from repro.queueing.service_curves import ServiceCurve


class PriorityAllocation(AllocationFunction):
    """Per-user preemptive priority ordered by rate."""

    def __init__(self, curve: Optional[ServiceCurve] = None,
                 ascending: bool = True) -> None:
        super().__init__(curve)
        self.ascending = bool(ascending)
        self.name = ("priority-ascending" if self.ascending
                     else "priority-descending")

    def congestion(self, rates: Sequence[float]) -> np.ndarray:
        r = np.asarray(rates, dtype=float)
        if np.any(r < 0.0):
            raise DisciplineError(f"rates must be nonnegative, got {r}")
        key = r if self.ascending else -r
        order = np.argsort(key, kind="stable")
        sorted_r = r[order]
        n = r.size
        prefix = np.cumsum(sorted_r)
        increments = np.empty(n)
        prev_g = 0.0
        for k in range(n):
            if prefix[k] >= self.curve.capacity or math.isinf(prev_g):
                increments[k] = math.inf
                prev_g = math.inf
            else:
                g = self.curve.value(float(prefix[k]))
                increments[k] = g - prev_g
                prev_g = g
        # Average increments across tie groups so equal rates get equal
        # congestion (symmetry).
        sorted_c = np.empty(n)
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and sorted_r[stop] == sorted_r[start]:
                stop += 1
            block = increments[start:stop]
            if np.any(np.isinf(block)):
                sorted_c[start:stop] = math.inf
            else:
                sorted_c[start:stop] = block.sum() / (stop - start)
            start = stop
        out = np.empty(n)
        out[order] = sorted_c
        return out

    def grid_evaluator(self, rates: Sequence[float], users: Sequence[int]
                       ) -> RowEvaluator:
        """:meth:`_rows` with one opponent per rate: row ``b`` weighs
        the sorted rate vector less one copy of user ``users[b]``'s own
        (stale) rate."""
        r = np.asarray(rates, dtype=float)
        rows = np.asarray(users, dtype=int)
        ranked = np.sort(r)
        weights = np.ones((rows.size, r.size))
        weights[np.arange(rows.size), ranked.searchsorted(r[rows])] = 0.0
        if np.any((ranked < 0.0) & (weights > 0.0)):
            raise DisciplineError(f"rates must be nonnegative, got {r}")
        return self._rows(ranked, weights)

    def _rows(self, ranked: np.ndarray, weights: np.ndarray) -> RowEvaluator:
        """``C(x) = [g(B + T + x) - g(B)] / (t + 1)`` on row ``b``.

        Row ``b``'s opponents send the ascending rates ``ranked``,
        ``weights[b, j]`` of them at ``ranked[j]``.  For a candidate
        ``x`` the deviator's tie block spans herself plus the ``t``
        opponents sending exactly ``x`` (total ``T``); the per-class
        increments inside the block telescope, and ``B`` is the total
        opponent rate of higher priority.  Both are read off weighted
        prefix sums: O(L) setup per row, O(log L) per candidate.  A
        zero weight adds exact zeros to the sums, so the rows share
        one ``ranked`` vector.
        """
        b, k = weights.shape
        # Per row, the opponent rate and count below each rank.
        tables = np.zeros((2, b, k + 1))
        np.cumsum(np.multiply(weights, ranked, where=weights > 0.0,
                              out=np.zeros(weights.shape)),
                  axis=1, out=tables[0, :, 1:])
        np.cumsum(weights, axis=1, out=tables[1, :, 1:])
        total = tables[0, :, -1:]
        # Rows of the tables, flattened: entry p of row b is at b*(k+1)+p.
        mass, cnt = tables.reshape(2, -1)
        offsets = np.arange(b)[:, None] * (k + 1)

        def evaluate(xs: np.ndarray) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            if cand.size and float(cand.min()) < 0.0:
                raise DisciplineError(
                    f"rates must be nonnegative, got {cand}")
            lo = ranked.searchsorted(cand, side="left") + offsets
            hi = ranked.searchsorted(cand, side="right") + offsets
            block = (cnt.take(hi) - cnt.take(lo)) + 1.0
            if self.ascending:
                before = mass.take(lo)
                after = mass.take(hi) + cand
            else:
                before = total - mass.take(hi)
                after = (total - mass.take(lo)) + cand
            out = np.full(cand.shape, math.inf)
            ok = after < self.curve.capacity
            out[ok] = (self.curve.values(after[ok])
                       - self.curve.values(before[ok])) / block[ok]
            return out

        return evaluate

    # -- symmetry-class evaluation -------------------------------------------

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """Per-class priority congestion in O(K log K).

        In priority order the cumulative mass after block ``k`` is
        ``Q_k = sum_{j <= k} m_j s_j``; each member of a tie block
        (classes sharing a rate merge into one block) receives the
        block's aggregate increment divided by the block's user count:
        ``C = [g(Q_hi) - g(Q_lo)] / (users in block)``.
        """
        c, m = check_classes(class_rates, counts)
        key = c if self.ascending else -c
        order = np.argsort(key, kind="stable")
        s = c[order]
        w = m[order].astype(float)
        k_classes = s.size
        mass = np.cumsum(w * s)
        sorted_c = np.empty(k_classes)
        start = 0
        prev_mass = 0.0
        dead = False
        while start < k_classes:
            stop = start + 1
            while stop < k_classes and s[stop] == s[start]:
                stop += 1
            block_mass = float(mass[stop - 1])
            if dead or block_mass >= self.curve.capacity:
                sorted_c[start:stop] = math.inf
                dead = True
            else:
                g_hi = self.curve.value(block_mass)
                g_lo = self.curve.value(prev_mass)
                sorted_c[start:stop] = ((g_hi - g_lo)
                                        / float(w[start:stop].sum()))
                prev_mass = block_mass
            start = stop
        out = np.empty(c.size)
        out[order] = sorted_c
        return out

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """:meth:`_rows` on the class rates weighted by their counts;
        row ``b`` less the deviating member of class ``classes[b]``
        unless ``include_self``."""
        c, m = check_classes(class_rates, counts)
        rows = np.asarray(classes, dtype=int)
        order = np.argsort(c, kind="stable")
        weights = np.tile(m[order].astype(float), (rows.size, 1))
        if not include_self:
            weights[np.arange(rows.size), order.argsort()[rows]] -= 1.0
        return self._rows(c[order], weights)
