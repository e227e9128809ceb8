"""Cross-discipline consistency matrix.

Runs the same structural checks across every registered discipline and
several utility profiles — the broad net that catches a regression in
one discipline's derivatives or solver interplay even when its own
unit tests still pass.
"""

import numpy as np
import pytest

from repro.disciplines.registry import make_discipline
from repro.game.nash import solve_nash
from repro.users.families import PowerUtility
from tests.oracles import numeric_jacobian

#: Work-conserving M/M/1 disciplines: allocations must sum to g(S).
WORK_CONSERVING = ["fifo", "fair-share", "priority-ascending",
                   "priority-descending"]

#: Disciplines with interior equilibria under concave power users.
#: priority-ascending is excluded deliberately: serving the *smaller*
#: sender first rewards undercutting, so symmetric-ish profiles produce
#: a discontinuous tie race with no stable best responses — one reason
#: the paper's AC set demands C^1 allocations.
SOLVABLE = ["fifo", "fair-share", "separable", "pivot"]

PROFILES = {
    "symmetric": [PowerUtility(gamma=0.8, q=1.5)] * 3,
    "spread": [PowerUtility(gamma=0.4, q=1.5),
               PowerUtility(gamma=0.9, q=1.5),
               PowerUtility(gamma=2.0, q=1.5)],
}


class TestWorkConservation:
    @pytest.mark.parametrize("name", WORK_CONSERVING)
    def test_total_queue_is_g(self, name, rates3):
        allocation = make_discipline(name)
        total = rates3.sum()
        congestion = allocation.congestion(rates3)
        assert congestion.sum() == pytest.approx(total / (1.0 - total))

    @pytest.mark.parametrize("name", WORK_CONSERVING)
    def test_jacobian_columns_sum_to_marginal(self, name, rates3):
        """Work conservation differentiates to sum_i dC_i/dr_j = f'."""
        allocation = make_discipline(name)
        if name.startswith("priority"):
            pytest.skip("priority allocation is not C^1 at ties; "
                        "column sums only hold piecewise")
        jac = allocation.jacobian(rates3)
        marginal = 1.0 / (1.0 - rates3.sum()) ** 2
        assert np.allclose(jac.sum(axis=0), marginal, rtol=1e-6)

    @pytest.mark.parametrize("name", WORK_CONSERVING)
    def test_symmetry(self, name, rates3, rng):
        allocation = make_discipline(name)
        assert allocation.check_symmetry(rates3, rng=rng)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name", ["fifo", "fair-share", "separable",
                                      "pivot"])
    def test_analytic_matches_numeric(self, name, rates3):
        allocation = make_discipline(name)
        rates = (rates3 if name != "separable"
                 else np.array([0.4, 0.7, 1.1]))
        numeric = numeric_jacobian(allocation, rates)
        assert np.allclose(allocation.jacobian(rates), numeric,
                           atol=1e-5)

    @pytest.mark.parametrize("name", ["fifo", "fair-share", "separable",
                                      "pivot"])
    def test_own_derivative_is_jacobian_diagonal(self, name, rates3):
        allocation = make_discipline(name)
        rates = (rates3 if name != "separable"
                 else np.array([0.4, 0.7, 1.1]))
        jac = allocation.jacobian(rates)
        for i in range(rates.size):
            assert allocation.own_derivative(rates, i) == pytest.approx(
                float(jac[i, i]), rel=1e-8)


class TestEquilibriaAcrossDisciplines:
    @pytest.mark.parametrize("name", SOLVABLE)
    @pytest.mark.parametrize("profile_key", sorted(PROFILES))
    def test_nash_certifies(self, name, profile_key):
        allocation = make_discipline(name)
        profile = PROFILES[profile_key]
        result = solve_nash(allocation, profile)
        assert result.converged, (name, profile_key)
        assert result.is_equilibrium(1e-5), (name, profile_key)
        assert np.all(result.rates > 0)

    @pytest.mark.parametrize("name", ["fifo", "fair-share", "pivot"])
    def test_symmetric_profile_symmetric_equilibrium(self, name):
        allocation = make_discipline(name)
        result = solve_nash(allocation, PROFILES["symmetric"])
        assert np.allclose(result.rates, result.rates[0], atol=1e-4)

    @pytest.mark.parametrize("name", ["fifo", "fair-share"])
    def test_hungrier_user_sends_more(self, name):
        allocation = make_discipline(name)
        result = solve_nash(allocation, PROFILES["spread"])
        # gamma 0.4 < 0.9 < 2.0: rates must be strictly decreasing.
        assert result.rates[0] > result.rates[1] > result.rates[2]
