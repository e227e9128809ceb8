"""Tests for Newton relaxation dynamics (Theorem 7)."""

import numpy as np
import pytest

from repro.game.dynamics import (
    fdc_jacobian,
    fdc_residuals,
    fifo_linear_eigenvalue,
    fifo_symmetric_linear_nash,
    is_nilpotent,
    newton_step,
    relaxation_matrix,
    run_newton_dynamics,
    spectral_radius,
)
from repro.users.families import LinearUtility
from repro.users.profiles import lemma5_profile


class TestFDCResiduals:
    def test_zero_at_planted_nash(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        residuals = fdc_residuals(fair_share, profile, rates3)
        assert np.allclose(residuals, 0.0, atol=1e-8)

    def test_nan_outside_stable_region(self, fifo, linear_profile3):
        residuals = fdc_residuals(fifo, linear_profile3,
                                  np.array([0.5, 0.5, 0.5]))
        assert np.all(np.isnan(residuals))

    def test_jacobian_matches_numeric(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        analytic = fdc_jacobian(fair_share, profile, rates3)
        h = 1e-6
        for j in range(3):
            plus = rates3.copy()
            minus = rates3.copy()
            plus[j] += h
            minus[j] -= h
            numeric = (fdc_residuals(fair_share, profile, plus)
                       - fdc_residuals(fair_share, profile, minus)) / (2 * h)
            assert np.allclose(analytic[:, j], numeric, rtol=1e-2,
                               atol=1e-4)


class TestRelaxationMatrix:
    def test_zero_diagonal(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        matrix = relaxation_matrix(fair_share, profile, rates3)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_fs_strictly_lower_triangular(self, fair_share, rates3):
        """Theorem 7.1: in rate order the FS relaxation matrix is
        strictly lower triangular, hence nilpotent."""
        profile = lemma5_profile(fair_share, rates3)
        matrix = relaxation_matrix(fair_share, profile, rates3)
        assert np.allclose(np.triu(matrix), 0.0, atol=1e-7)
        assert is_nilpotent(matrix)

    def test_fs_nilpotent_in_subsystems(self, fair_share):
        """Theorem 7.1 asserts nilpotency in all subsystems."""
        rates = np.array([0.12, 0.2, 0.28])
        profile = lemma5_profile(fair_share, rates)
        sub = fair_share.subsystem({1: 0.2})
        sub_profile = [profile[0], profile[2]]
        sub_rates = np.array([0.12, 0.28])
        matrix = relaxation_matrix(sub, sub_profile, sub_rates)
        assert is_nilpotent(matrix, tol=1e-6)

    def test_fifo_not_nilpotent(self, fifo):
        n, gamma = 4, 0.1
        rate = fifo_symmetric_linear_nash(n, gamma)
        profile = [LinearUtility(gamma=gamma)] * n
        matrix = relaxation_matrix(fifo, profile, np.full(n, rate))
        assert not is_nilpotent(matrix)

    def test_fifo_eigenvalue_closed_form(self, fifo):
        n, gamma = 4, 0.1
        rate = fifo_symmetric_linear_nash(n, gamma)
        profile = [LinearUtility(gamma=gamma)] * n
        matrix = relaxation_matrix(fifo, profile, np.full(n, rate))
        eigs = np.linalg.eigvals(matrix).real
        assert eigs.min() == pytest.approx(
            fifo_linear_eigenvalue(n, gamma), abs=1e-6)


class TestEigenvalueExample:
    def test_approaches_one_minus_n_under_load(self):
        """Section 4.2.3: the leading eigenvalue tends to 1 - N as the
        equilibrium load approaches capacity (gamma -> 0)."""
        for n in (3, 5, 8):
            loose = abs(fifo_linear_eigenvalue(n, 0.5))
            tight = abs(fifo_linear_eigenvalue(n, 0.005))
            assert loose < tight < (n - 1)
            assert tight > 0.8 * (n - 1)

    def test_unstable_iff_n_greater_than_two(self):
        assert abs(fifo_linear_eigenvalue(2, 0.05)) < 1.0
        assert abs(fifo_linear_eigenvalue(3, 0.05)) > 1.0

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            fifo_symmetric_linear_nash(3, 1.5)
        with pytest.raises(ValueError):
            fifo_symmetric_linear_nash(0, 0.5)


class TestNewtonDynamics:
    def test_fs_converges_within_n_plus_margin(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        trajectory = run_newton_dynamics(fair_share, profile,
                                         rates3 * 1.005, n_steps=25)
        assert trajectory.converged
        assert trajectory.steps_to_converge <= rates3.size + 2

    def test_fifo_diverges_for_many_users(self, fifo):
        n, gamma = 5, 0.05
        rate = fifo_symmetric_linear_nash(n, gamma)
        profile = [LinearUtility(gamma=gamma)] * n
        trajectory = run_newton_dynamics(fifo, profile,
                                         np.full(n, rate * 1.01),
                                         n_steps=25)
        assert not trajectory.converged

    def test_rates_stay_positive(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        stepped = newton_step(fair_share, profile,
                              np.array([1e-8, 0.2, 0.3]))
        assert np.all(stepped > 0)


class TestSpectralRadius:
    def test_known_matrix(self):
        matrix = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert spectral_radius(matrix) == pytest.approx(0.0)
        assert spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0)
