"""The mean-field (heavy-traffic) Nash limit: O(1/N) convergence.

The mean-field closure drops the self-exclusion from the deviation
problem — one user out of N mis-counted — so its distance from the
exact class-space equilibrium must shrink like 1/N.  These tests pin
the monotone decay over three population decades, the agreement of the
mean-field FDC root with its best-response oracle
(``tests.oracles.meanfield_fixed_point``), and the exact-game
certificates that turn the approximation error into utility terms.
"""

import math

import numpy as np
import pytest

from repro.disciplines.registry import make_discipline
from repro.game.classes import solve_nash_classes, solve_nash_classes_fdc
from repro.game.meanfield import (
    meanfield_error,
    meanfield_fdc_residuals,
    solve_nash_meanfield,
)
from repro.users.families import PowerUtility
from tests.oracles import meanfield_fixed_point

LADDER = (100, 1000, 10000)


def class_setup(n, k=4):
    """The scaling_regimes profile: K concave classes, load ~ const."""
    weights = np.linspace(1.0, 2.0, k)
    utilities = [PowerUtility(gamma=1.0, a=float(w) / np.sqrt(n),
                              p=0.5, q=1.0) for w in weights]
    return utilities, [n // k] * k


def exact_class_solve(allocation, utilities, counts):
    seeded = solve_nash_classes(allocation, utilities, counts=counts,
                                tol=1e-9, max_iter=300)
    return solve_nash_classes_fdc(allocation, utilities, counts=counts,
                                  r0=seeded.class_rates)


class TestMeanfieldConvergence:
    @pytest.mark.parametrize("family", ("fair-share", "fifo"))
    def test_error_decreases_in_n(self, family):
        """The headline: sup-norm rate error strictly shrinks over
        N = 10^2, 10^3, 10^4 and ends below 1e-5."""
        allocation = make_discipline(family)
        errors = []
        for n in LADDER:
            utilities, counts = class_setup(n)
            exact = exact_class_solve(allocation, utilities, counts)
            approx = solve_nash_meanfield(allocation, utilities,
                                          counts=counts)
            assert exact.converged and approx.converged
            errors.append(meanfield_error(exact, approx))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] <= 1e-5

    def test_error_scales_like_one_over_n(self):
        """Each N-decade buys roughly two error decades for this
        profile (the closure error couples to the 1/sqrt(N) appetite
        scaling); at minimum it must beat plain 1/N."""
        fs = make_discipline("fair-share")
        errors = []
        for n in LADDER:
            utilities, counts = class_setup(n)
            exact = exact_class_solve(fs, utilities, counts)
            approx = solve_nash_meanfield(fs, utilities, counts=counts)
            errors.append(meanfield_error(exact, approx))
        assert errors[0] / errors[1] >= 10.0
        assert errors[1] / errors[2] >= 10.0

    def test_exact_game_gain_shrinks(self):
        """max_gain certifies against the *exact* game, so it is the
        mean-field error in utility terms — also O(1/N)."""
        fs = make_discipline("fair-share")
        gains = []
        for n in LADDER:
            utilities, counts = class_setup(n)
            approx = solve_nash_meanfield(fs, utilities, counts=counts)
            gains.append(approx.max_gain)
        assert gains[0] > gains[1] > gains[2]
        assert gains[-1] <= 1e-6

    def test_spot_checks_agree_with_class_certificate(self):
        """The expanded per-user spot gain measures the same error
        through the independent per-user path."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(1000)
        approx = solve_nash_meanfield(fs, utilities, counts=counts)
        assert not math.isnan(approx.spot_gain)
        assert approx.spot_gain == pytest.approx(approx.max_gain,
                                                 rel=1e-3, abs=1e-12)


class TestMeanfieldDrivers:
    def test_best_response_matches_fdc(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(1000)
        fdc = solve_nash_meanfield(fs, utilities, counts=counts)
        br = meanfield_fixed_point(fs, utilities, counts)
        assert fdc.converged and br.converged
        assert np.max(np.abs(fdc.class_rates - br.x)) <= 1e-6

    def test_method_tag(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(100)
        result = solve_nash_meanfield(fs, utilities, counts=counts)
        assert result.method == "mean-field"
        assert result.n_users == 100

    def test_fdc_residuals_vanish_at_solution(self):
        """meanfield_fdc_residuals is the root's oracle: ~0 there,
        clearly nonzero at the exact (self-excluded) equilibrium for
        small N."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(100)
        approx = solve_nash_meanfield(fs, utilities, counts=counts)
        at_mf = meanfield_fdc_residuals(fs, utilities,
                                        approx.class_rates, counts)
        assert np.max(np.abs(at_mf)) <= 1e-8

    def test_error_helper_rejects_mismatched_shapes(self):
        fs = make_discipline("fair-share")
        u2, c2 = class_setup(100, k=2)
        u4, c4 = class_setup(100, k=4)
        two = solve_nash_meanfield(fs, u2, counts=c2)
        four = solve_nash_meanfield(fs, u4, counts=c4)
        with pytest.raises(ValueError, match="class counts differ"):
            meanfield_error(two, four)
