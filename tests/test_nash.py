"""Tests for Nash equilibrium solvers."""

import numpy as np
import pytest

from repro.game.classes import solve_nash_classes, solve_nash_classes_fdc
from repro.game.envy import search_unilateral_envy
from repro.game.meanfield import solve_nash_meanfield
from repro.game.nash import (
    default_start,
    find_all_nash,
    is_nash,
    solve_nash,
    solve_nash_fdc,
)
from repro.game.witnesses import witness_profile
from repro.users.families import LinearUtility, MonotoneTransformedUtility
from repro.users.profiles import lemma5_profile


class TestSolveNash:
    def test_converges_fs(self, fair_share, linear_profile3):
        result = solve_nash(fair_share, linear_profile3)
        assert result.converged
        assert result.is_equilibrium(1e-6)
        assert np.all(result.rates > 0)

    def test_converges_fifo(self, fifo, linear_profile3):
        result = solve_nash(fifo, linear_profile3)
        assert result.converged
        assert result.is_equilibrium(1e-6)

    def test_recovers_planted_equilibrium(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        result = solve_nash(fair_share, profile)
        assert np.allclose(result.rates, rates3, atol=1e-4)

    def test_utilities_and_congestion_filled(self, fair_share,
                                             linear_profile3):
        result = solve_nash(fair_share, linear_profile3)
        expected_c = fair_share.congestion(result.rates)
        assert np.allclose(result.congestion, expected_c)
        for i, utility in enumerate(linear_profile3):
            assert result.utilities[i] == pytest.approx(
                utility.value(result.rates[i], expected_c[i]))

    def test_independent_of_start(self, fair_share, linear_profile3):
        a = solve_nash(fair_share, linear_profile3,
                       r0=np.array([0.01, 0.01, 0.01]))
        b = solve_nash(fair_share, linear_profile3,
                       r0=np.array([0.3, 0.2, 0.1]))
        assert np.allclose(a.rates, b.rates, atol=1e-5)

    def test_ordinal_invariance(self, fair_share, linear_profile3):
        """A monotone transform of utilities leaves the Nash point
        unchanged (utilities are ordinal)."""
        transformed = [MonotoneTransformedUtility(u, np.tanh)
                       for u in linear_profile3]
        base = solve_nash(fair_share, linear_profile3)
        warped = solve_nash(fair_share, transformed)
        assert np.allclose(base.rates, warped.rates, atol=1e-5)


class TestSolveNashFDC:
    def test_matches_best_response_solver(self, fair_share, rates3):
        # Moderate curvature keeps the FDC surface root-finder friendly.
        profile = lemma5_profile(fair_share, rates3, beta=8.0, nu=8.0)
        br = solve_nash(fair_share, profile)
        fdc = solve_nash_fdc(fair_share, profile, r0=rates3 * 1.05)
        assert fdc.converged
        assert np.allclose(fdc.rates, br.rates, atol=1e-5)

    def test_certificate_attached(self, fair_share, rates3):
        profile = lemma5_profile(fair_share, rates3)
        result = solve_nash_fdc(fair_share, profile, r0=rates3)
        assert result.max_gain < 1e-6


class TestIsNash:
    def test_accepts_equilibrium(self, fair_share, linear_profile3):
        result = solve_nash(fair_share, linear_profile3)
        assert is_nash(fair_share, linear_profile3, result.rates)

    def test_rejects_non_equilibrium(self, fair_share, linear_profile3):
        assert not is_nash(fair_share, linear_profile3,
                           np.array([0.3, 0.3, 0.3]))


class TestFindAllNash:
    def test_fs_unique(self, fair_share, linear_profile3, rng):
        equilibria = find_all_nash(fair_share, linear_profile3,
                                   n_starts=8, rng=rng)
        assert len(equilibria) == 1

    def test_fifo_witness_multiplicity(self, fifo, rng):
        profile = witness_profile()
        equilibria = find_all_nash(fifo, profile, n_starts=12, rng=rng,
                                   gain_tol=1e-8, distinct_tol=5e-3)
        assert len(equilibria) >= 2

    def test_fs_unique_on_witness(self, fair_share, rng):
        profile = witness_profile()
        equilibria = find_all_nash(fair_share, profile, n_starts=12,
                                   rng=rng, gain_tol=1e-8,
                                   distinct_tol=5e-3)
        assert len(equilibria) == 1
        # FS equilibrium of a symmetric profile is symmetric.
        rates = equilibria[0].rates
        assert rates[0] == pytest.approx(rates[1], abs=1e-4)


class TestDefaultStart:
    def test_half_load_equal_split(self, fair_share):
        start = default_start(4, fair_share)
        assert np.allclose(start, 0.125)

    def test_infinite_capacity(self, separable):
        start = default_start(2, separable)
        assert np.all(start > 0)


EMPTY_PROFILE = "profile must contain at least one utility"


class TestEmptyInputs:
    """Every Nash entry point refuses an empty profile with one clear
    error, and the envy search refuses to run no trials."""

    @pytest.mark.parametrize("solve,match", [
        (lambda a: solve_nash(a, []), EMPTY_PROFILE),
        (lambda a: solve_nash(a, [], r0=[]), EMPTY_PROFILE),
        (lambda a: solve_nash_fdc(a, []), EMPTY_PROFILE),
        (lambda a: solve_nash_fdc(a, [], r0=[]), EMPTY_PROFILE),
        (lambda a: find_all_nash(a, []), EMPTY_PROFILE),
        (lambda a: default_start(0, a), EMPTY_PROFILE),
        (lambda a: solve_nash_classes(a, []), EMPTY_PROFILE),
        (lambda a: solve_nash_classes(a, [], counts=[]), EMPTY_PROFILE),
        (lambda a: solve_nash_classes_fdc(a, [], counts=[]),
         EMPTY_PROFILE),
        (lambda a: solve_nash_meanfield(a, [], counts=[]), EMPTY_PROFILE),
        (lambda a: search_unilateral_envy(a, []), EMPTY_PROFILE),
        (lambda a: search_unilateral_envy(
            a, [LinearUtility(gamma=0.5)], n_trials=0),
         "n_trials must be at least 1"),
    ], ids=["solve_nash", "solve_nash-r0", "solve_nash_fdc",
            "solve_nash_fdc-r0", "find_all_nash", "default_start",
            "solve_nash_classes",
            "solve_nash_classes-counts", "solve_nash_classes_fdc",
            "solve_nash_meanfield", "search_unilateral_envy",
            "search_unilateral_envy-no-trials"])
    def test_clear_error(self, fair_share, solve, match):
        with pytest.raises(ValueError, match=match):
            solve(fair_share)
