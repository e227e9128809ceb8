"""The vectorized solver core: grid path, counters, and the off switch.

Covers the batched ``grid_multistart_maximize`` zoom, the
vectorized-vs-scalar agreement of ``best_response``/``solve_nash``,
the :mod:`repro.numerics.instrumentation` counters, the curve-less
``_default_rate_cap`` fallback, and the guard that flipping the
vectorization switch leaves the ``table1`` report byte-identical.
"""

import math

import numpy as np
import pytest

from repro.disciplines.fair_share import FairShareAllocation
from repro.experiments import registry as experiment_registry
from repro.experiments.base import ExperimentReport
from repro.game.best_response import (
    best_response,
    utility_improvement,
)
from repro.game.nash import solve_nash
from repro.numerics import instrumentation
from repro.numerics.instrumentation import (
    set_vectorized,
    track_solver,
    vectorized,
)
from repro.numerics.optimize import (
    ScalarMaxResult,
    grid_multistart_maximize,
    multistart_maximize,
)
import repro.obs as obs
from repro.users.families import LinearUtility, PowerUtility


@pytest.fixture
def scalar_mode():
    """Force the legacy scalar path for the duration of a test."""
    set_vectorized(False)
    yield
    set_vectorized(None)


@pytest.fixture
def vector_mode():
    """Force the batched path regardless of the environment."""
    set_vectorized(True)
    yield
    set_vectorized(None)


class TestVectorizationSwitch:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv(instrumentation.ENV_TOGGLE, raising=False)
        set_vectorized(None)
        assert vectorized() is True

    @pytest.mark.parametrize("raw", ["0", "off", "false", "no", " OFF "])
    def test_env_disables(self, monkeypatch, raw):
        monkeypatch.setenv(instrumentation.ENV_TOGGLE, raw)
        set_vectorized(None)
        assert vectorized() is False

    def test_env_other_values_enable(self, monkeypatch):
        monkeypatch.setenv(instrumentation.ENV_TOGGLE, "on")
        set_vectorized(None)
        assert vectorized() is True

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(instrumentation.ENV_TOGGLE, "off")
        set_vectorized(True)
        try:
            assert vectorized() is True
        finally:
            set_vectorized(None)
        assert vectorized() is False


class TestCounters:
    def test_add_outside_any_scope_reaches_the_totals(self):
        before = obs.totals().get("solver.objective_evals", 0)
        obs.add("solver.objective_evals", 3)
        assert obs.totals()["solver.objective_evals"] == before + 3

    def test_track_collects(self):
        with track_solver() as counters:
            obs.add("solver.objective_evals", 2)
            obs.add("solver.congestion_evals", 5)
            obs.add("solver.grid_calls")
        assert counters.objective_evals == 2
        assert counters.congestion_evals == 5
        assert counters.grid_calls == 1

    def test_nested_trackers_both_count(self):
        with track_solver() as outer:
            obs.add("solver.objective_evals")
            with track_solver() as inner:
                obs.add("solver.objective_evals", 10)
        assert inner.objective_evals == 10
        assert outer.objective_evals == 11

    def test_as_dict_round_trip(self):
        with track_solver() as counters:
            obs.add("solver.objective_evals", 4)
            obs.add("solver.grid_calls", 2)
            obs.add("sim.cache.hits")       # not a solver counter
        assert vars(counters) == {"objective_evals": 4,
                                  "congestion_evals": 0,
                                  "grid_calls": 2}

    def test_best_response_records(self, fair_share):
        utility = LinearUtility(gamma=0.25)
        with track_solver() as counters:
            best_response(fair_share, utility, np.array([0.0, 0.3]), 0)
        assert counters.objective_evals > 0
        assert counters.congestion_evals == counters.objective_evals

    def test_utility_improvement_counts_certification(self, fair_share):
        rates = np.array([0.2, 0.3])
        utility = LinearUtility(gamma=0.25)
        with track_solver() as direct:
            best_response(fair_share, utility, rates, 0)
        with track_solver() as certified:
            utility_improvement(fair_share, utility, rates, 0)
        assert certified.objective_evals == direct.objective_evals + 1


class TestGridMaximize:
    def test_parabola(self):
        def grid(xs):
            return -(xs - 0.3) ** 2

        result = grid_multistart_maximize(grid, 0.0, 1.0)
        assert result.x == pytest.approx(0.3, abs=1e-8)
        assert result.grid_calls > 1
        assert result.evaluations >= 33

    def test_boundary_maximum(self):
        result = grid_multistart_maximize(lambda xs: xs, 0.0, 2.0)
        assert result.x == pytest.approx(2.0, abs=1e-8)

    def test_nan_treated_as_minus_inf(self):
        def nasty(xs):
            return np.where(xs > 0.5, np.nan, xs)

        result = grid_multistart_maximize(nasty, 0.0, 1.0)
        assert result.x <= 0.5 + 1e-6

    def test_agrees_with_scalar_path(self):
        def func(x):
            return math.sin(3.0 * x) - 0.2 * x

        def grid(xs):
            return np.sin(3.0 * xs) - 0.2 * xs

        batched = grid_multistart_maximize(grid, 0.0, 2.0, tol=1e-11)
        scalar = multistart_maximize(func, 0.0, 2.0, tol=1e-11)
        # Both paths bottom out at the float-resolution floor of the
        # flat objective top (~sqrt(eps)), not at tol itself.
        assert batched.x == pytest.approx(scalar.x, abs=1e-7)
        assert batched.value == pytest.approx(scalar.value, abs=1e-12)

    def test_multistart_routes_through_grid(self):
        calls = []

        def grid(xs):
            calls.append(len(xs))
            return -(xs - 0.4) ** 2

        result = multistart_maximize(lambda x: -(x - 0.4) ** 2, 0.0, 1.0,
                                     grid_func=grid)
        assert calls                         # the batched path ran
        assert result.grid_calls == len(calls)
        assert result.x == pytest.approx(0.4, abs=1e-8)

    def test_broken_grid_falls_back_to_scalar(self):
        def broken(xs):
            raise TypeError("no batch for you")

        result = multistart_maximize(lambda x: -(x - 0.4) ** 2, 0.0, 1.0,
                                     grid_func=broken)
        assert result.grid_calls == 0
        assert result.x == pytest.approx(0.4, abs=1e-8)

    def test_scalar_result_field_defaults(self):
        result = ScalarMaxResult(x=1.0, value=2.0, evaluations=3)
        assert result.grid_calls == 0
        assert not hasattr(result, "wall_time")


class CurvelessAllocation:
    """Minimal allocation with no service curve attribute at all."""

    name = "curveless-stub"
    vectorized_grid = False

    def congestion(self, rates):
        r = np.asarray(rates, dtype=float)
        return r * np.sum(r)

    def congestion_i(self, rates, i):
        return float(self.congestion(rates)[i])


class TestCurvelessRateCap:
    def test_default_rate_cap_falls_back(self):
        from repro.game.best_response import _default_rate_cap

        assert _default_rate_cap(CurvelessAllocation()) == 4.0

    def test_best_response_runs_without_curve(self):
        utility = PowerUtility(gamma=0.6, p=0.5)
        result = best_response(CurvelessAllocation(), utility,
                               np.array([0.0, 0.2]), 0)
        assert math.isfinite(result.x)
        assert 0.0 < result.x <= 4.0


class TestVectorScalarAgreement:
    def test_best_response_matches_scalar(self, fair_share):
        utility = LinearUtility(gamma=0.25)
        rates = np.array([0.0, 0.25, 0.1])
        set_vectorized(True)
        try:
            fast = best_response(fair_share, utility, rates, 0)
        finally:
            set_vectorized(None)
        set_vectorized(False)
        try:
            slow = best_response(fair_share, utility, rates, 0)
        finally:
            set_vectorized(None)
        assert fast.grid_calls > 0
        assert slow.grid_calls == 0
        assert fast.x == pytest.approx(slow.x, abs=1e-8)
        assert fast.value == pytest.approx(slow.value, abs=1e-10)

    def test_solve_nash_matches_scalar(self, fair_share):
        profile = [LinearUtility(gamma=0.2), LinearUtility(gamma=0.35)]
        set_vectorized(True)
        try:
            fast = solve_nash(fair_share, profile)
        finally:
            set_vectorized(None)
        set_vectorized(False)
        try:
            slow = solve_nash(fair_share, profile)
        finally:
            set_vectorized(None)
        assert fast.converged and slow.converged
        np.testing.assert_allclose(fast.rates, slow.rates, atol=1e-7)
        assert fast.max_gain <= 1e-6 and slow.max_gain <= 1e-6


class TestExperimentWiring:
    @staticmethod
    def _stub_run(seed=0, fast=False):
        fs = FairShareAllocation()
        best_response(fs, LinearUtility(gamma=0.25),
                      np.array([0.0, 0.3]), 0)
        return ExperimentReport(experiment_id="stub", claim="stub",
                                passed=True)

    def test_run_one_counts_solver_work_outside_the_summary(
            self, monkeypatch, counted):
        monkeypatch.setitem(experiment_registry._REGISTRY, "stub",
                            self._stub_run)
        report, trace = experiment_registry._run_one("stub", 0, True)
        assert trace is None
        assert counted.get("solver.objective_evals") > 0
        assert counted.get("solver.congestion_evals") > 0
        assert report.summary == {}

    def test_solverless_experiment_summary_untouched(self, monkeypatch):
        def quiet(seed=0, fast=False):
            return ExperimentReport(experiment_id="quiet", claim="q",
                                    passed=True, summary={"k": 1})

        monkeypatch.setitem(experiment_registry._REGISTRY, "quiet", quiet)
        report, _ = experiment_registry._run_one("quiet", 0, True)
        assert set(report.summary) == {"k"}


@pytest.mark.slow
class TestTable1StdoutGuard:
    def test_vector_switch_does_not_change_table1(self):
        """Satellite guard: solver vectorization must leave the table1
        report byte-identical (it exercises no analytic solver, and the
        solver counters never leak into solver-free summaries)."""
        from repro.experiments.table1 import run as run_table1

        set_vectorized(True)
        try:
            on = run_table1(seed=0, fast=True).render()
        finally:
            set_vectorized(None)
        set_vectorized(False)
        try:
            off = run_table1(seed=0, fast=True).render()
        finally:
            set_vectorized(None)
        assert on == off
