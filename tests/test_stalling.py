"""Tests for the stalling pivot mechanism."""

import math

import numpy as np
import pytest

from repro.disciplines.stalling import PivotAllocation
from repro.game.nash import solve_nash
from repro.game.pareto import ConstraintAdapter, pareto_fdc_residuals
from repro.users.families import PowerUtility
from tests.oracles import numeric_jacobian, numeric_second_partial


class TestPivotAllocation:
    def setup_method(self):
        self.pivot = PivotAllocation()

    def test_congestion_is_own_externality(self, rates3):
        congestion = self.pivot.congestion(rates3)
        g = lambda x: x / (1.0 - x)
        total = rates3.sum()
        for i in range(3):
            assert congestion[i] == pytest.approx(
                g(total) - g(total - rates3[i]))

    def test_own_derivative_is_social_marginal(self, rates3):
        total = rates3.sum()
        marginal = 1.0 / (1.0 - total) ** 2
        for i in range(3):
            assert self.pivot.own_derivative(rates3, i) == pytest.approx(
                marginal)

    def test_derivatives_match_numeric(self, rates3):
        numeric = numeric_jacobian(self.pivot, rates3)
        assert np.allclose(self.pivot.jacobian(rates3), numeric,
                           atol=1e-6)
        for i in range(3):
            assert self.pivot.own_second_derivative(
                rates3, i) == pytest.approx(
                    numeric_second_partial(self.pivot, rates3, i, i),
                    rel=1e-3)

    def test_mixed_second_derivative_is_g_second_at_total(self):
        # dC_i/dr_i = g'(S), so d^2 C_i/dr_i dr_j = g''(S) for every j;
        # g''(S) - g''(S - r_i) is d^2 C_i/dr_j^2 instead.
        rates = np.array([0.05, 0.12, 0.2, 0.08])
        g_second = self.pivot.curve.second_derivative(0.45)
        assert g_second == pytest.approx(12.0210, abs=1e-4)
        for i in range(4):
            for j in range(4):
                mixed = self.pivot.mixed_second_derivative(rates, i, j)
                assert mixed == pytest.approx(g_second, rel=1e-12)
                assert mixed == pytest.approx(numeric_second_partial(
                    self.pivot, rates, i, j), rel=1e-4)

    def test_stalling_overhead_nonnegative(self, rates3, rng):
        assert self.pivot.stalling_overhead(rates3) > 0.0
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rates = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 0.9)
            assert self.pivot.stalling_overhead(rates) >= -1e-12

    def test_single_user_no_overhead(self):
        assert self.pivot.stalling_overhead([0.4]) == pytest.approx(0.0)

    def test_feasible_as_stalling(self, rates3):
        assert self.pivot.is_feasible_at(rates3)

    def test_symmetry(self, rates3, rng):
        assert self.pivot.check_symmetry(rates3, rng=rng)

    def test_overload(self):
        assert np.all(np.isinf(self.pivot.congestion([0.6, 0.6])))
        assert self.pivot.stalling_overhead([0.6, 0.6]) == math.inf


class TestPivotGame:
    def test_nash_satisfies_pareto_fdc(self):
        """The headline: Nash FDC == Pareto FDC under the pivot."""
        pivot = PivotAllocation()
        profile = [PowerUtility(gamma=0.5, q=1.5),
                   PowerUtility(gamma=1.5, q=1.5)]
        nash = solve_nash(pivot, profile)
        assert nash.is_equilibrium(1e-6)
        adapter = ConstraintAdapter.for_allocation(pivot)
        residuals = pareto_fdc_residuals(profile, nash.rates,
                                         nash.congestion, adapter)
        assert np.max(np.abs(residuals)) < 1e-4

    def test_symmetric_profile(self):
        pivot = PivotAllocation()
        profile = [PowerUtility(gamma=0.6, q=1.5)] * 3
        nash = solve_nash(pivot, profile)
        assert nash.converged
        assert np.allclose(nash.rates, nash.rates[0], atol=1e-5)
