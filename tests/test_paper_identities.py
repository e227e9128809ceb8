"""Cross-module identities the reproduction hinges on.

Each test here ties two independently implemented pieces of the system
together: closed forms vs ladder constructions, cost sharing vs
allocation functions, game solvers vs hand-derived equilibria.  They
are the mathematical heart of the reproduction and catch regressions
that unit tests in any one module would miss.
"""

import math

import numpy as np
import pytest

from repro.costsharing.rules import serial_cost_shares
from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.queueing.priority import (
    fair_share_class_rates,
    preemptive_priority_queues,
)


def g(x):
    return x / (1.0 - x) if x < 1.0 else math.inf


class TestFairShareThreeWays:
    """C^FS computed by (1) the direct formula, (2) serial cost sharing
    of g, and (3) the priority-ladder + class-queue decomposition must
    agree everywhere."""

    @pytest.mark.parametrize("rates", [
        [0.1, 0.2, 0.3],
        [0.05, 0.05, 0.05, 0.05],
        [0.02, 0.13, 0.29, 0.41],
        [0.3, 0.3],
        [0.44, 0.01],
    ])
    def test_agreement(self, rates):
        rates = np.asarray(rates, dtype=float)
        fs = FairShareAllocation()
        direct = fs.congestion(rates)

        serial = serial_cost_shares(rates, g)
        assert np.allclose(direct, serial, atol=1e-12)

        # Ladder route: class queues split equally among participants.
        n = rates.size
        order = np.argsort(rates, kind="stable")
        class_rates = fair_share_class_rates(rates)
        class_queues = preemptive_priority_queues(class_rates)
        populations = n - np.arange(n)
        per_member = np.where(class_queues > 0,
                              class_queues / populations, 0.0)
        ladder = np.empty(n)
        for position, user in enumerate(order):
            ladder[user] = per_member[: position + 1].sum()
        assert np.allclose(direct, ladder, atol=1e-10)


class TestConstraintIdentities:
    def test_fifo_and_fs_share_the_total(self, rates3):
        fifo = ProportionalAllocation()
        fs = FairShareAllocation()
        assert fifo.congestion(rates3).sum() == pytest.approx(
            fs.congestion(rates3).sum())

    def test_fs_saturates_nested_ladder_constraints(self):
        """The FS defining equations mean that padding the top rates
        down to r_k makes the constraint exact for each prefix."""
        fs = FairShareAllocation()
        rates = np.array([0.07, 0.21, 0.33])
        congestion = fs.congestion(rates)
        for k in range(3):
            padded_r = np.minimum(rates, rates[k])
            padded_c = np.minimum(congestion, congestion[k])
            assert padded_c.sum() == pytest.approx(g(padded_r.sum()))

    def test_jacobian_row_sums_follow_work_conservation(self, rates3):
        """Sum_i dC_i/dr_j = f'(S) for any work-conserving discipline."""
        expected = 1.0 / (1.0 - rates3.sum()) ** 2
        for allocation in (ProportionalAllocation(),
                           FairShareAllocation()):
            jac = allocation.jacobian(rates3)
            assert np.allclose(jac.sum(axis=0), expected, rtol=1e-8)


class TestTheorem2Identity:
    def test_fs_symmetric_slope_equals_marginal_total(self):
        """At a symmetric point, dC_i/dr_i under FS equals f'(S) —
        the identity that makes symmetric FS Nash points Pareto
        (Theorem 2.2)."""
        fs = FairShareAllocation()
        for rate, n in ((0.1, 3), (0.2, 4), (0.05, 8)):
            rates = np.full(n, rate)
            slope = fs.own_derivative(rates, 0)
            marginal = 1.0 / (1.0 - n * rate) ** 2
            assert slope == pytest.approx(marginal, rel=1e-9)

    def test_fifo_under_internalizes_marginal_cost(self):
        """FIFO's dC_i/dr_i = (1 - S + r_i)/(1 - S)^2 is *below* the
        social marginal f'(S) = 1/(1 - S)^2 whenever others send
        anything — each user bears only part of the queue she causes,
        which is why FIFO users oversend (Theorem 2's failure mode)."""
        fifo = ProportionalAllocation()
        rates = np.full(3, 0.15)
        slope = fifo.own_derivative(rates, 0)
        marginal = 1.0 / (1.0 - 0.45) ** 2
        assert slope < marginal
        # And the shortfall is exactly the externality share.
        assert slope == (1.0 - 0.45 + 0.15) * marginal


class TestMonotonicityFacts:
    def test_fs_cross_derivative_sign_iff_smaller(self, rates3):
        """The paper's equivalence: dC_i/dr_j > 0 iff r_j < r_i."""
        fs = FairShareAllocation()
        jac = fs.jacobian(rates3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                if rates3[j] < rates3[i]:
                    assert jac[i, j] > 0
                else:
                    assert jac[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_proportional_never_has_zero_cross(self, rates3):
        fifo = ProportionalAllocation()
        jac = fifo.jacobian(rates3)
        off_diagonal = jac[~np.eye(3, dtype=bool)]
        assert np.all(off_diagonal > 0)
