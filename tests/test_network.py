"""Tests for the Section-5.4 network extension."""

import numpy as np
import pytest

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.exceptions import DisciplineError
from repro.network.model import NetworkAllocation, Route
from repro.users.families import PowerUtility


def crossing_fs():
    return NetworkAllocation(
        switches=[FairShareAllocation(), FairShareAllocation()],
        routes=[Route([0]), Route([1]), Route([0, 1])])


class TestRoute:
    def test_validation(self):
        with pytest.raises(DisciplineError):
            Route([])
        with pytest.raises(DisciplineError):
            Route([0, 1, 0])

    def test_crosses(self):
        route = Route([0, 2])
        assert route.crosses(0)
        assert not route.crosses(1)
        assert len(route) == 2


class TestNetworkAllocation:
    def test_single_switch_degenerates_correctly(self, rates3):
        fs = FairShareAllocation()
        net = NetworkAllocation(switches=[fs],
                                routes=[Route([0])] * 3)
        assert np.allclose(net.congestion(rates3),
                           FairShareAllocation().congestion(rates3))

    def test_disjoint_routes_are_independent(self):
        net = NetworkAllocation(
            switches=[FairShareAllocation(), FairShareAllocation()],
            routes=[Route([0]), Route([1])])
        congestion = net.congestion([0.3, 0.5])
        assert congestion[0] == pytest.approx(0.3 / 0.7)
        assert congestion[1] == pytest.approx(0.5 / 0.5)

    def test_two_hop_user_sums_both_switches(self):
        net = crossing_fs()
        rates = np.array([0.2, 0.3, 0.1])
        congestion = net.congestion(rates)
        fs = FairShareAllocation()
        hop0 = fs.congestion([0.2, 0.1])    # users A and C
        hop1 = fs.congestion([0.3, 0.1])    # users B and C
        assert congestion[0] == pytest.approx(hop0[0])
        assert congestion[1] == pytest.approx(hop1[0])
        assert congestion[2] == pytest.approx(hop0[1] + hop1[1])

    def test_switch_speeds_scale_loads(self):
        # A switch at double speed carries half the load.
        net = NetworkAllocation(switches=[ProportionalAllocation()],
                                routes=[Route([0])], speeds=[2.0])
        assert net.congestion([1.0])[0] == pytest.approx(0.5 / 0.5)

    def test_jacobian_matches_numeric(self):
        net = crossing_fs()
        rates = np.array([0.2, 0.3, 0.1])
        analytic = net.jacobian(rates)
        h = 1e-6
        for j in range(3):
            plus, minus = rates.copy(), rates.copy()
            plus[j] += h
            minus[j] -= h
            numeric = (net.congestion(plus) - net.congestion(minus)) / (2 * h)
            assert np.allclose(analytic[:, j], numeric, atol=1e-5)

    def test_own_derivative_matches_jacobian(self):
        net = crossing_fs()
        rates = np.array([0.2, 0.3, 0.1])
        jac = net.jacobian(rates)
        for i in range(3):
            assert net.own_derivative(rates, i) == pytest.approx(
                jac[i, i])

    def test_not_symmetric_across_routes(self):
        """Permuting users with different routes changes the outcome —
        the paper's point that network fairness needs a new notion."""
        net = crossing_fs()
        a = net.congestion([0.2, 0.2, 0.1])
        b = net.congestion([0.1, 0.2, 0.2])  # swap users 0 and 2
        assert not np.allclose(a[[2, 1, 0]], b)

    def test_stability_check(self):
        net = crossing_fs()
        assert net.in_stable_region([0.2, 0.3, 0.1])
        assert not net.in_stable_region([0.5, 0.3, 0.6])

    def test_protection_bound_sums_hops(self):
        net = crossing_fs()
        fs = FairShareAllocation()
        per_hop = fs.protection_bound(0.1, 2)
        assert net.protection_bound(0.1, 2) == pytest.approx(
            2.0 * per_hop)
        assert net.protection_bound(0.1, 0) == pytest.approx(per_hop)

    def test_validation(self):
        with pytest.raises(DisciplineError):
            NetworkAllocation(switches=[], routes=[Route([0])])
        with pytest.raises(DisciplineError):
            NetworkAllocation(switches=[FairShareAllocation()],
                              routes=[Route([1])])
        with pytest.raises(DisciplineError):
            NetworkAllocation(switches=[FairShareAllocation()],
                              routes=[Route([0])], speeds=[0.0])


class TestNetworkGame:
    def test_nash_solvable_on_network(self):
        from repro.game.nash import solve_nash

        net = crossing_fs()
        profile = [PowerUtility(gamma=0.5, q=1.5),
                   PowerUtility(gamma=0.8, q=1.5),
                   PowerUtility(gamma=0.6, q=1.5)]
        result = solve_nash(net, profile)
        assert result.converged
        assert result.is_equilibrium(1e-5)
        # The two-hop user pays double congestion, so she sends less
        # than the one-hop user with equal-ish preferences.
        assert result.rates[2] < result.rates[0]

