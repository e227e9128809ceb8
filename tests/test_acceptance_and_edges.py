"""AC-membership checks and edge-path coverage.

Covers: the AC checker's discrimination of the disciplines, the
paper's claim that sorted-prefix subset checks suffice (validated
against exact subset enumeration), the overload branches of the
analytic Jacobians, and simulator edge behavior.
"""

import itertools
import math

import numpy as np
import pytest

from repro.disciplines import (
    FairShareAllocation,
    PivotAllocation,
    PriorityAllocation,
    ProportionalAllocation,
    WeightedProportionalAllocation,
    check_ac,
)
from repro.numerics import default_rng
from repro.queueing.constraints import FeasibilitySet


class TestCheckAC:
    def test_proportional_and_fs_in_ac(self, rng):
        for allocation in (ProportionalAllocation(),
                           FairShareAllocation()):
            report = check_ac(allocation, 3, n_points=12, rng=rng)
            assert report.is_ac, report.violations[:3]

    def test_priority_fails_smoothness_or_interior(self, rng):
        report = check_ac(PriorityAllocation(), 3, n_points=12, rng=rng)
        assert not report.is_ac

    def test_pivot_fails_work_conservation(self, rng):
        report = check_ac(PivotAllocation(), 3, n_points=8, rng=rng)
        assert not report.is_ac
        assert any("work conserving" in v for v in report.violations)

    def test_weighted_fails_symmetry(self, rng):
        allocation = WeightedProportionalAllocation([0.8, 1.0, 1.25])
        report = check_ac(allocation, 3, n_points=8, rng=rng)
        assert not report.is_ac
        assert any("symmetric" in v for v in report.violations)

    def test_fs_smooth_at_ties(self, rng):
        """The tie points are exactly where FS must stay C^1."""
        report = check_ac(FairShareAllocation(), 4, n_points=10,
                          rng=rng, include_ties=True)
        assert report.is_ac, report.violations[:3]


class TestSortedPrefixSufficiency:
    """The paper: checking sorted-by-(c/r) prefixes is equivalent to
    checking every subset.  Verified by exact enumeration on random
    feasible and infeasible allocations."""

    def exact_min_slack(self, fset, rates, congestion):
        worst = math.inf
        n = len(rates)
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                idx = list(subset)
                slack = (sum(congestion[k] for k in idx)
                         - fset.curve.value(sum(rates[k] for k in idx)))
                worst = min(worst, slack)
        return worst

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_on_random_allocations(self, seed):
        rng = default_rng(seed)
        fset = FeasibilitySet()
        n = int(rng.integers(2, 6))
        rates = rng.dirichlet(np.ones(n)) * rng.uniform(0.3, 0.9)
        total = fset.total_queue(rates)
        # Random work-conserving split, sometimes infeasible.
        weights = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        congestion = weights * total
        prefix_min = (fset.subset_slacks(rates, congestion).min()
                      if n > 1 else math.inf)
        exact_min = self.exact_min_slack(fset, rates, congestion)
        # The binding subset is always a sorted prefix: the minima agree
        # in sign, and the prefix minimum is never above the exact one
        # by more than numerical noise when the allocation is feasible.
        assert (prefix_min >= -1e-12) == (exact_min >= -1e-12)
        if exact_min >= 0:
            assert prefix_min <= exact_min + 1e-9

    def test_infeasible_example_caught_by_prefixes(self):
        fset = FeasibilitySet()
        rates = np.array([0.3, 0.3])
        total = fset.total_queue(rates)
        solo = 0.3 / 0.7
        congestion = np.array([solo * 0.5, total - solo * 0.5])
        assert self.exact_min_slack(fset, rates, congestion) < 0
        assert fset.subset_slacks(rates, congestion).min() < 0


class TestOverloadBranches:
    def test_fs_jacobian_with_overloaded_classes(self):
        """The truncated-ladder Jacobian branch: stable users keep
        finite rows; overloaded users get inf on/below the diagonal."""
        fs = FairShareAllocation()
        rates = np.array([0.1, 0.8, 0.9])     # ladder overloads above 0.1
        jac = fs.jacobian(rates)
        assert np.isfinite(jac[0, 0])
        assert math.isinf(jac[1, 1])
        assert math.isinf(jac[2, 2])
        # Insularity survives overload: the small user's row stays 0
        # toward bigger users.
        assert jac[0, 1] == 0.0 and jac[0, 2] == 0.0

    def test_fs_own_derivative_overload(self):
        fs = FairShareAllocation()
        assert math.isinf(fs.own_derivative([0.1, 0.9, 0.9], 2))
        assert np.isfinite(fs.own_derivative([0.1, 0.9, 0.9], 0))

    def test_priority_overload_partial(self):
        congestion = PriorityAllocation().congestion([0.2, 0.9, 1.5])
        assert np.isfinite(congestion[0])
        assert math.isinf(congestion[1]) and math.isinf(congestion[2])

    def test_proportional_overload_everything(self):
        fifo = ProportionalAllocation()
        assert np.all(np.isinf(fifo.jacobian(np.array([0.6, 0.6]))))
        assert math.isinf(fifo.own_second_derivative([0.6, 0.6], 0))


class TestSimulatorEdges:
    def test_tie_heavy_arrivals_deterministic(self):
        """Deterministic equal-rate sources create simultaneous-ish
        events; the engine must stay consistent."""
        from repro.sim.runner import SimulationConfig, simulate

        result = simulate(SimulationConfig(
            rates=[0.2, 0.2], policy="fifo", horizon=5000.0,
            warmup=250.0, seed=0, arrival_process="deterministic"))
        assert result.departures > 1500
        assert 0 <= result.arrivals - result.departures <= 50

    def test_single_user_all_policies(self):
        from repro.sim.runner import SimulationConfig, simulate

        for policy in ("fifo", "lifo", "ps", "fair-share", "hol",
                       "round-robin", "fair-queueing"):
            result = simulate(SimulationConfig(
                rates=[0.5], policy=policy, horizon=8000.0,
                warmup=400.0, seed=1))
            # Any single-user work-conserving discipline is the M/M/1.
            assert result.total_mean_queue == pytest.approx(1.0,
                                                            rel=0.15), \
                policy
