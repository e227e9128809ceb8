"""Tests for best-response computation."""

import numpy as np
import pytest

from repro.game.best_response import (
    best_response,
    best_response_map,
    utility_improvement,
)
from repro.users.families import LinearUtility, PowerUtility


class TestBestResponse:
    def test_fifo_linear_closed_form(self, fifo):
        """For U = r - gamma c under FIFO, the interior best response
        solves (1 - S + r)/(1 - S)^2 = 1/gamma with S = r + others."""
        gamma = 0.25
        others = 0.3
        utility = LinearUtility(gamma=gamma)
        result = best_response(fifo, utility, np.array([0.0, others]), 0)
        x = result.x
        slack = 1.0 - x - others
        assert (slack + x) / slack ** 2 == pytest.approx(1.0 / gamma,
                                                         rel=1e-4)

    def test_fs_linear_closed_form(self, fair_share):
        """Under FS, a lone optimizer's FDC is g'(R_k) = 1/gamma."""
        gamma = 0.25
        utility = LinearUtility(gamma=gamma)
        # Opponent sends more, so user 0 is the ladder minimum:
        # R_1 = 2 r implies 1/(1 - 2r)^2 = 1/gamma.
        result = best_response(fair_share, utility,
                               np.array([0.0, 0.45]), 0)
        r = result.x
        assert 1.0 / (1.0 - 2.0 * r) ** 2 == pytest.approx(
            1.0 / gamma, rel=1e-3)

    def test_congestion_averse_user_sends_nothing(self, fifo):
        # gamma > 1: marginal congestion cost exceeds throughput value
        # everywhere, so the optimum is the smallest admissible rate.
        utility = LinearUtility(gamma=3.0)
        result = best_response(fifo, utility, np.array([0.0, 0.2]), 0)
        assert result.x < 1e-4

    def test_does_not_mutate_rates(self, fifo):
        rates = np.array([0.15, 0.2])
        best_response(fifo, LinearUtility(gamma=0.5), rates, 0)
        assert np.allclose(rates, [0.15, 0.2])

    def test_power_utility_interior(self, fifo):
        utility = PowerUtility(gamma=0.8, q=2.0)
        result = best_response(fifo, utility, np.array([0.0, 0.3]), 0)
        assert 1e-3 < result.x < 0.7


class TestBestResponseMap:
    def test_length_checked(self, fifo, linear_profile3):
        with pytest.raises(ValueError):
            best_response_map(fifo, linear_profile3, np.array([0.1, 0.1]))

    def test_fixed_point_is_nash(self, fair_share, linear_profile3):
        from repro.game.nash import solve_nash

        nash = solve_nash(fair_share, linear_profile3)
        mapped = best_response_map(fair_share, linear_profile3,
                                   nash.rates)
        assert np.allclose(mapped, nash.rates, atol=1e-5)


class TestUtilityImprovement:
    def test_zero_at_best_response(self, fifo):
        utility = LinearUtility(gamma=0.3)
        rates = np.array([0.0, 0.25])
        rates[0] = best_response(fifo, utility, rates, 0).x
        gain = utility_improvement(fifo, utility, rates, 0)
        assert gain == pytest.approx(0.0, abs=1e-8)

    def test_positive_off_equilibrium(self, fifo):
        utility = LinearUtility(gamma=0.3)
        gain = utility_improvement(fifo, utility,
                                   np.array([0.01, 0.25]), 0)
        assert gain > 1e-3
