"""The Fair Share allocation function (serial cost sharing).

With users sorted so that ``r_1 <= r_2 <= ... <= r_N`` (``r_0 = 0``),
define the cumulative ladder loads

``R_m = (N - m + 1) r_m + sum_{j < m} r_j``  (``R_0 = 0``),

which are exactly the cumulative class rates of the Table-1 priority
ladder.  The Fair Share congestion of the user in sorted position ``k``
is

``C^FS_(k) = sum_{m=1}^{k} [g(R_m) - g(R_{m-1})] / (N - m + 1)``.

This reproduces the paper's recursion: the ``m``-th priority class has
aggregate mean queue ``g(R_m) - g(R_{m-1})`` shared equally by the
``N - m + 1`` users participating in it.

Key structural facts implemented here analytically:

* ``dC_i/dr_i = g'(R_k)`` (``k`` = sorted position of ``i``),
* ``dC_i/dr_j = 0`` whenever ``r_j >= r_i`` (``j != i``) — the partial
  insularity that makes the derivative matrix lower triangular,
* ``d^2 C_i/dr_i^2 = g''(R_k) (N - k + 1) > 0``,
* ``d^2 C_i/dr_i dr_j = g''(R_k)`` for ``r_j < r_i``, else 0.

Users whose ladder load reaches capacity receive infinite congestion,
but users below them keep finite congestion — the protection property
(Theorem 8) in action even outside the stable region.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.disciplines.base import (AllocationFunction, RowEvaluator,
                                    check_classes)


class FairShareAllocation(AllocationFunction):
    """Fair Share / serial cost sharing on a convex service curve."""

    name = "fair-share"

    # -- ladder geometry ---------------------------------------------------

    @staticmethod
    def _sorted_view(rates: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Return (ascending rates, argsort order)."""
        r = np.asarray(rates, dtype=float)
        if np.any(r < 0.0):
            raise ValueError(f"rates must be nonnegative, got {r}")
        order = np.argsort(r, kind="stable")
        return r[order], order

    @staticmethod
    def ladder_loads(sorted_rates: np.ndarray) -> np.ndarray:
        """Cumulative class rates ``R_m`` for ascending ``sorted_rates``."""
        n = sorted_rates.size
        prefix = np.concatenate(([0.0], np.cumsum(sorted_rates)[:-1]))
        multiplicity = n - np.arange(n)
        return multiplicity * sorted_rates + prefix

    def ladder_matrix(self, rates: Sequence[float]) -> np.ndarray:
        """The Table-1 assignment: entry ``[i, m]`` is the rate user ``i``
        sends in priority class ``m`` (class 0 = highest priority).

        User ``i`` in sorted position ``k`` contributes
        ``delta_m = r_(m) - r_(m-1)`` to every class ``m <= k`` and
        nothing to lower-priority classes; row sums equal ``r_i``.
        """
        sorted_r, order = self._sorted_view(rates)
        n = sorted_r.size
        deltas = np.diff(np.concatenate(([0.0], sorted_r)))
        matrix = np.zeros((n, n))
        for pos, user in enumerate(order):
            matrix[user, : pos + 1] = deltas[: pos + 1]
        return matrix

    # -- allocation ----------------------------------------------------------

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """Whole-batch congestion: row-wise sort + cumsum, one pass."""
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2:
            raise ValueError(
                f"profiles must be 2-D (batch, users), got {batch.shape}")
        if batch.size and float(batch.min()) < 0.0:
            raise ValueError("rates must be nonnegative")
        b, n = batch.shape
        rows = np.arange(b)[:, None]
        order = np.argsort(batch, axis=1, kind="stable")
        sorted_r = batch[rows, order]
        # Exclusive prefix sums, bit-identical to ladder_loads().
        prefix = np.zeros((b, n))
        np.cumsum(sorted_r[:, :-1], axis=1, out=prefix[:, 1:])
        mult = (n - np.arange(n))[None, :]
        loads = mult * sorted_r + prefix
        g = self.curve.values(loads)
        finite = np.isfinite(g)
        stable = bool(finite.all())
        if not stable:
            g = np.where(finite, g, 0.0)
        # The shares (g_m - g_{m-1}) / (N - m), g_{-1} = 0.
        increments = g.copy()
        np.subtract(g[:, 1:], g[:, :-1], out=increments[:, 1:])
        increments /= mult
        if stable:
            sorted_c = np.cumsum(increments, axis=1)
        else:
            sorted_c = np.cumsum(np.where(finite, increments, 0.0), axis=1)
            overloaded = np.maximum.accumulate(~finite, axis=1)
            sorted_c = np.where(overloaded, math.inf, sorted_c)
        out = np.empty((b, n))
        out[rows, order] = sorted_c
        return out

    # -- symmetry-class evaluation -------------------------------------------

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        """Per-class Fair Share congestion in O(K log K).

        Users tied at a class rate contribute zero ``g``-increments
        within their tie block, so the N-user ladder collapses to one
        rung per class: with classes sorted ascending, ``M_k`` users in
        earlier blocks and prefix rate mass ``P_k``, the block-start
        load is ``R_k = (N - M_k) s_k + P_k`` and every member of the
        block gets ``C_k = C_{k-1} + [g(R_k) - g(R_{k-1})] / (N - M_k)``.
        """
        c, m = check_classes(class_rates, counts)
        order = np.argsort(c, kind="stable")
        s = c[order]
        w = m[order].astype(float)
        n_total = float(w.sum())
        before = np.concatenate(([0.0], np.cumsum(w)[:-1]))
        prefix = np.concatenate(([0.0], np.cumsum(w * s)[:-1]))
        rem = n_total - before
        loads = rem * s + prefix
        cap = self.curve.capacity
        unstable = loads >= cap
        k_bad = int(np.searchsorted(unstable, True)) if unstable.any() \
            else s.size
        g_vals = self.curve.values(loads[:k_bad])
        increments = np.diff(g_vals, prepend=0.0) / rem[:k_bad]
        sorted_c = np.full(s.size, math.inf)
        sorted_c[:k_bad] = np.cumsum(increments)
        out = np.empty(c.size)
        out[order] = sorted_c
        return out

    def class_deviation_rows(self, class_rates: Sequence[float],
                             counts: Sequence[int], classes: Sequence[int],
                             include_self: bool = False) -> RowEvaluator:
        """``C`` over candidate own-rates by the insertion trick.

        Row ``b`` is a member of class ``classes[b]`` deviating: that
        class loses one member, and a class left empty loses its rung
        (a zero-weight rung would round the share sums differently).
        With ``include_self`` every class keeps its full count and the
        candidate inserts as an extra (N+1)-th user.  With every count
        one these are the per-user rows (:meth:`grid_evaluator`).

        The opponents' ladder, one rung per class weighted by its
        multiplicity, is computed once per row.  A candidate ``x``
        inserts at rank ``p`` (the opponent classes strictly below it);
        the classes below ``p`` are unaffected by the insertion, so
        ``C(x)`` is the prefix share sum ``H_p`` plus the deviator's own
        class increment::

            C(x) = H_p + [g(u x + P_p) - g(L_{p-1})] / u

        where ``u`` counts the users at or above ``x``, ``L_m`` are the
        opponents-only ladder loads and ``P_p`` the opponent rate below
        ``x``.  Tied candidates contribute zero ``g``-increments within
        their tie block, so the position within a block is irrelevant.
        Setup is O(K) per row and a candidate costs O(log K); the grid
        zoom calls the evaluator ~10 times per best-response round
        against the same opponents.
        """
        c, m = check_classes(class_rates, counts)
        rows = np.asarray(classes, dtype=int)
        b, k = rows.size, c.size
        order = np.argsort(c, kind="stable")
        ranked = c[order]
        own_rank = order.argsort()[rows][:, None]
        # Row b's ladder in rank order; a class its deviator empties is
        # skipped, so the later rungs move left and a zero spare rung
        # (index k) pads the row.
        dropped = np.zeros((b, 1), dtype=bool)
        if not include_self:
            dropped = (m[rows] == 1)[:, None]
        # A candidate ranks past its dropped class's own rate (never
        # past inf): the one correction to its rank among all classes.
        own = np.where(dropped, c[rows][:, None], math.inf)
        col = np.arange(k)
        at = col + (dropped & (col >= own_rank))
        s = np.append(ranked, 0.0)[at]
        w = np.append(m[order], 0.0)[at]
        if not include_self:
            w -= at == own_rank
        # Per deviator and opponent rank p: the users at or above it
        # (rem), the opponent rate below it (prefix, inf once an
        # opponent class below is unstable), the share sum below it (h)
        # and g at the last rung below it (g_prev).
        tables = np.zeros((4, b, k + 1))
        rem, prefix, h, g_prev = tables
        np.cumsum(w, axis=1, out=rem[:, 1:])
        n = rem[:, -1:] + 1.0                  # opponents plus the deviator
        np.subtract(n, rem, out=rem)
        np.cumsum(w * s, axis=1, out=prefix[:, 1:])
        opp_loads = rem[:, :-1] * s + prefix[:, :-1]
        # First opponent class at/over capacity (ladder loads ascend);
        # the sentinel column stands for "none".  The spare rung may
        # count as stable: only a NaN candidate ranks past it.
        unstable = np.ones((b, k + 1), dtype=bool)
        np.greater_equal(opp_loads, self.curve.capacity, out=unstable[:, :-1])
        k_bad = unstable.argmax(axis=1)[:, None]
        # Past k_bad no kept candidate reads g_opp, so 0 stands in there.
        g_opp = self.curve.values(np.where(col < k_bad, opp_loads, 0.0))
        g_prev[:, 1:] = g_opp
        shares = np.subtract(g_opp, g_prev[:, :-1])      # diff, prepend 0
        shares /= rem[:, :-1]
        np.cumsum(shares, axis=1, out=h[:, 1:])
        # Past the first unstable opponent class, an infinite prefix
        # puts a candidate over capacity, as its ladder load would be.
        prefix[np.arange(k + 1) > k_bad] = math.inf
        # Rows of the tables, flattened: entry p of row b is at b*(k+1)+p.
        rem, prefix, h, g_prev = tables.reshape(4, -1)
        offsets = np.arange(b)[:, None] * (k + 1)

        def evaluate(xs: np.ndarray) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            if cand.size and float(cand.min()) < 0.0:
                raise ValueError("rates must be nonnegative")
            p = ranked.searchsorted(cand, side="left") - (own < cand)
            at = p + offsets
            users_above = rem.take(at)
            own_loads = users_above * cand + prefix.take(at)
            ok = own_loads < self.curve.capacity
            # Masked ufuncs keep the discarded entries out of the
            # arithmetic (no inf - inf), and the curve sees the kept
            # loads only (0 stands in for the rest), so a negative load
            # raises as it always has.  out=None: the entries outside
            # ``ok`` stay unset and unread.
            g = self.curve.values(np.where(ok, own_loads, 0.0))
            share = np.subtract(g, g_prev.take(at), out=None, where=ok)
            np.divide(share, users_above, out=share, where=ok)
            return np.add(h.take(at), share,
                          out=np.full(cand.shape, math.inf), where=ok)

        return evaluate

    def class_own_derivative(self, class_rates: Sequence[float],
                             counts: Sequence[int], i: int,
                             include_self: bool = False) -> float:
        """``dC/dx = g'(R)`` with ``R`` the deviator's block-start load.

        Differentiating the insertion formula: the candidate's share is
        ``[g((n - u) x + P) - g_prev] / (n - u)`` with ``u`` users
        strictly below, so the slope telescopes to ``g'`` at the
        deviator's own ladder load — the class-space twin of the
        per-user :meth:`own_derivative`.
        """
        c, m = check_classes(class_rates, counts)
        w = m.astype(float)
        if not include_self:
            if m[i] < 1:
                raise ValueError(f"class {i} is empty")
            w[i] -= 1.0
        x = float(c[i])
        keep = w > 0.0
        order = np.argsort(c[keep], kind="stable")
        s = c[keep][order]
        w = w[keep][order]
        n = float(w.sum()) + 1.0
        p = int(np.searchsorted(s, x, side="left"))
        users_below = float(np.sum(w[:p]))
        own_load = (n - users_below) * x + float(np.dot(w[:p], s[:p]))
        if own_load >= self.curve.capacity:
            return math.inf
        return self.curve.derivative(own_load)

    # -- analytic derivatives ----------------------------------------------

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``dC_i/dr_j`` over ``j``: zero above ``i`` in sorted order.

        With ``k`` the sorted position of ``i``, entry ``q <= k`` (in
        sorted order) is the running sum, over the classes ``m = q..k``,
        of the change in class ``m``'s share as ``r_(q)`` moves:
        ``g'(R_q)`` at ``m = q``, then the bridge
        ``(g'(R_{q+1}) - g'(R_q) (N - q)) / (N - q - 1)``, then
        ``(g'(R_m) - g'(R_{m-1})) / (N - m)``.  A user at or past the
        first unstable ladder class gets ``inf`` on and below the
        diagonal; the rows below it stay finite (protection).
        """
        sorted_r, order = self._sorted_view(rates)
        n = sorted_r.size
        loads = self.ladder_loads(sorted_r)
        k = int(np.nonzero(order == i)[0][0])
        overloaded = loads >= self.curve.capacity
        stable = int(np.searchsorted(overloaded, True)) if overloaded.any() \
            else n
        row_sorted = np.zeros(n)
        if k >= stable:
            row_sorted[: k + 1] = math.inf
        else:
            gp = np.array([self.curve.derivative(float(x))
                           for x in loads[: k + 1]])
            for q in range(k + 1):
                running = 0.0
                for m in range(q, k + 1):
                    if m == q:
                        running += gp[q]
                    elif m == q + 1:
                        running += (gp[q + 1] - gp[q] * (n - q)) / (n - q - 1)
                    else:
                        running += (gp[m] - gp[m - 1]) / (n - m)
                row_sorted[q] = running
        out = np.zeros(n)
        out[order] = row_sorted
        return out

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``d^2 C_i/dr_i dr_j`` over ``j``: ``g''(R_k)`` for
        ``r_j < r_i``, ``g''(R_k) (N - k)`` on the diagonal, 0 elsewhere."""
        r = np.asarray(rates, dtype=float)
        sorted_r, order = self._sorted_view(r)
        n = sorted_r.size
        k = int(np.nonzero(order == i)[0][0])
        load = float(self.ladder_loads(sorted_r)[k])
        if load >= self.curve.capacity:
            gpp = math.inf
        else:
            gpp = self.curve.second_derivative(load)
        out = np.where(r < r[i], gpp, 0.0)
        out[i] = gpp * (n - k)
        return out

    def own_derivative(self, rates: Sequence[float], i: int) -> float:
        """``dC_i/dr_i = g'(R_k)`` with ``k`` the sorted position of ``i``:
        the diagonal of :meth:`gradient_i` without the O(N^2) row."""
        sorted_r, order = self._sorted_view(rates)
        k = int(np.nonzero(order == i)[0][0])
        load = float(self.ladder_loads(sorted_r)[k])
        if load >= self.curve.capacity:
            return math.inf
        return self.curve.derivative(load)

    # -- protection bound ----------------------------------------------------

    def protection_bound(self, own_rate: float, n_users: int) -> float:
        """The symmetric worst case ``C_i(r_i * e) = g(N r_i) / N``.

        Theorem 8: Fair Share never exceeds this bound no matter what
        the other ``N - 1`` users send.
        """
        if own_rate < 0.0:
            raise ValueError(f"rate must be nonnegative, got {own_rate}")
        total = n_users * own_rate
        if total >= self.curve.capacity:
            return math.inf
        return self.curve.value(total) / n_users
