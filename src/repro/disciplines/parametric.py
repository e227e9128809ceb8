"""Parametric (signalling) allocation families — Corollary 1 material.

Corollary 1 extends the Theorem-1 impossibility to allocation functions
``C(r, alpha)`` carrying user-chosen signalling parameters: no such
family (MAC for every fixed ``alpha``) makes every Nash equilibrium
Pareto optimal.  :class:`WeightedProportionalAllocation` is the natural
candidate family — congestion split in proportion to ``alpha_i r_i`` —
and the Corollary-1 experiment verifies that letting users pick their
weights still leaves Nash equilibria inefficient.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.disciplines.base import AllocationFunction
from repro.exceptions import DisciplineError
from repro.numerics.tolerances import ZERO_ATOL
from repro.queueing.service_curves import ServiceCurve


class WeightedProportionalAllocation(AllocationFunction):
    """``C_i = (w_i r_i / sum_j w_j r_j) * g(sum r)``.

    With all weights equal this is the proportional (FIFO) allocation.
    Weights act as signalling parameters: a user lowering her weight
    shifts queueing onto others without changing the total.  For any
    fixed weight vector the function is in MAC on the region where all
    weights are positive (it is symmetric only when the weights are
    exchanged along with the rates, which is the Corollary-1 setting of
    user-attached parameters).
    """

    name = "weighted-proportional"

    def __init__(self, weights: Sequence[float],
                 curve: Optional[ServiceCurve] = None) -> None:
        super().__init__(curve)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DisciplineError("weights must be a non-empty vector")
        if np.any(w <= 0.0):
            raise DisciplineError(f"weights must be positive, got {w}")
        self.weights = w

    def with_weights(self, weights: Sequence[float]) -> (
            "WeightedProportionalAllocation"):
        """A copy of this discipline with different signalling weights."""
        return WeightedProportionalAllocation(weights, curve=self.curve)

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """The split for each profile of the batch: ``inf`` for every
        user at or past capacity, and 0 where the weighted total
        ``sum_j w_j r_j`` is zero (within ``ZERO_ATOL``, as
        :func:`~repro.numerics.tolerances.is_zero` has it)."""
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.weights.size:
            raise DisciplineError(
                f"expected profiles of {self.weights.size} rates, got "
                f"shape {batch.shape}")
        if np.any(batch < 0.0):
            raise DisciplineError(f"rates must be nonnegative, got {batch}")
        totals = batch.sum(axis=1)
        weighted = self.weights * batch
        denoms = weighted.sum(axis=1)
        over = totals >= self.curve.capacity
        split = ~over & (np.abs(denoms) > ZERO_ATOL)
        g = self.curve.values(np.where(over, 0.0, totals))
        scale = np.divide(g, denoms, where=split,
                          out=np.zeros(denoms.shape))
        out = scale[:, None] * weighted
        out[over] = math.inf
        return out
