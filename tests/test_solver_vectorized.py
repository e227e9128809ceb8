"""The vectorized solver core: grid path, counters, and the scalar oracle.

Covers the batched grid zoom (``grid_maximize_rows``, one row or
many), the batched best-response map and certificate (bit-identical
to the per-user one-row zooms, pinned by float.hex goldens), the
propagation of a row evaluator's errors, the agreement of
``best_response``/``solve_nash`` with the golden-section oracles
:func:`tests.oracles.scalar_best_response` and
:func:`tests.oracles.scalar_nash` (also on generated profiles, on
weighted-proportional sharing and the crossing network; Fair Share's
built point against the fixed-point driver it replaced and the scalar
serial construction), one switch batch per zoom round
on a network, the batched adversarial, coalition and elimination
scans against their point-by-point oracles, the
:mod:`repro.numerics.instrumentation` counters and the curve-less
``_default_rate_cap`` fallback.
"""

import importlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.disciplines.base import Differentiable
from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.disciplines.registry import make_discipline
from repro.experiments import registry as experiment_registry
from repro.experiments.base import ExperimentReport
from repro.experiments.network_extension import _crossing_network
from repro.game.best_response import (
    best_response,
    best_response_map,
    utility_improvement,
    utility_improvements,
)
from repro.game.classes import class_best_response, class_best_response_map
from repro.game.coalitions import coalition_gain
from repro.game import learning
from repro.game.learning import _payoff_table, iterated_elimination
from repro.game.nash import solve_nash
from repro.game.protection import worst_case_congestion
from repro.numerics import instrumentation
from repro.numerics.instrumentation import track_solver
from repro.numerics.optimize import (
    GRID_REFINE_POINTS,
    ScalarMaxResult,
    grid_maximize_rows,
    multistart_maximize,
)
from repro.numerics.rng import default_rng
import repro.obs as obs
from repro.users.families import (BiconvexUtility, ExponentialUtility,
                                  LinearUtility, PowerUtility,
                                  QuadraticUtility, ThresholdUtility,
                                  value_grid_rows)
from repro.users.utility import Utility
from tests.oracles import (coalition_scan_loop, driver_nash,
                           payoff_table_loop, scalar_best_response,
                           scalar_nash, serial_nash, worst_case_loop)

#: Fair Share rates against the serial construction.
SERIAL_TOL = 1e-7


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


def _one_row(objective, lo, hi, **options):
    """The zoom of one elementwise objective: ``grid_maximize_rows``
    with a single row."""
    return grid_maximize_rows(objective, 1, lo, hi, **options)[0]


class TestGridMaximize:
    def test_parabola(self):
        def grid(xs):
            return -(xs - 0.3) ** 2

        result = _one_row(grid, 0.0, 1.0)
        assert result.x == pytest.approx(0.3, abs=1e-8)
        assert result.grid_calls > 1
        assert result.evaluations >= 33

    def test_boundary_maximum(self):
        result = _one_row(lambda xs: xs, 0.0, 2.0)
        assert result.x == pytest.approx(2.0, abs=1e-8)

    def test_nan_treated_as_minus_inf(self):
        def nasty(xs):
            return np.where(xs > 0.5, np.nan, xs)

        result = _one_row(nasty, 0.0, 1.0)
        assert result.x <= 0.5 + 1e-6

    def test_agrees_with_scalar_path(self):
        def func(x):
            return math.sin(3.0 * x) - 0.2 * x

        def grid(xs):
            return np.sin(3.0 * xs) - 0.2 * xs

        batched = _one_row(grid, 0.0, 2.0, tol=1e-11)
        scalar = multistart_maximize(func, 0.0, 2.0, tol=1e-11)
        # Both paths bottom out at the float-resolution floor of the
        # flat objective top (~sqrt(eps)), not at tol itself.
        assert batched.x == pytest.approx(scalar.x, abs=1e-7)
        assert batched.value == pytest.approx(scalar.value, abs=1e-12)

    def test_scalar_result_field_defaults(self):
        result = ScalarMaxResult(x=1.0, value=2.0, evaluations=3)
        assert result.grid_calls == 0
        assert not hasattr(result, "wall_time")


class CurvelessAllocation(Differentiable):
    """Minimal congestion map with no service curve attribute at all;
    its rows are the base's default."""

    name = "curveless-stub"

    def congestion(self, rates):
        r = np.asarray(rates, dtype=float)
        return r * np.sum(r)


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
        fast = best_response(fair_share, utility, rates, 0)
        slow = scalar_best_response(fair_share, utility, rates, 0)
        assert fast.grid_calls > 0
        assert slow.grid_calls == 0
        assert fast.x == pytest.approx(slow.x, abs=1e-8)
        assert fast.value == pytest.approx(slow.value, abs=1e-10)

    def test_solve_nash_matches_scalar(self, fair_share):
        profile = [LinearUtility(gamma=0.2), LinearUtility(gamma=0.35)]
        fast = solve_nash(fair_share, profile)
        slow = scalar_nash(fair_share, profile)
        assert fast.converged and slow.converged
        np.testing.assert_allclose(fast.rates, slow.rates, atol=1e-7)
        assert fast.max_gain <= 1e-6 and slow.max_gain <= 1e-6
        serial = serial_nash(fair_share, profile)
        assert np.max(np.abs(fast.rates - serial)) <= SERIAL_TOL


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


def _counts(scope):
    return [scope.get(f"solver.{name}") for name in
            instrumentation.COUNTERS]


class TestGridMaximizeRows:
    OBJECTIVES = (
        lambda xs: -(xs - 0.3) ** 2,
        lambda xs: np.sin(3.0 * xs) - 0.2 * xs,
        lambda xs: np.where(xs > 0.5, np.nan, xs),
        lambda xs: np.full(xs.shape, -np.inf),
        lambda xs: np.round(-(xs - 0.7) ** 2, 9),      # plateau top
    )

    def test_each_row_equals_its_one_row_call(self):
        funcs = self.OBJECTIVES

        def rows(xs):
            return np.stack([f(x) for f, x in zip(funcs, xs)])

        batched = grid_maximize_rows(rows, len(funcs), 0.0, 2.0,
                                     n_scan=65, tol=1e-11)
        for func, row in zip(funcs, batched):
            alone = _one_row(func, 0.0, 2.0, n_scan=65, tol=1e-11)
            assert float(row.x).hex() == float(alone.x).hex()
            assert float(row.value).hex() == float(alone.value).hex()
            assert row.evaluations == alone.evaluations
            assert row.grid_calls == alone.grid_calls

    def test_stopped_rows_stay_frozen(self):
        # Row 0 is flat, so its bracket hugs the left edge, shrinks 32x a
        # round and stops before row 1.  Once it has stopped its
        # objective turns strictly better: a frozen row must not see it.
        alone = _one_row(lambda xs: np.zeros(xs.shape), 0.0, 1.0)
        calls = []

        def rows(xs):
            calls.append(None)
            late = 1.0 if len(calls) > alone.grid_calls else 0.0
            return np.stack([np.full(xs.shape[1], late),
                             -(xs[1] - 0.6) ** 2])

        flat, peaked = grid_maximize_rows(rows, 2, 0.0, 1.0)
        assert len(calls) == peaked.grid_calls > alone.grid_calls
        assert (flat.x, flat.value, flat.evaluations, flat.grid_calls) == \
            (alone.x, alone.value, alone.evaluations, alone.grid_calls)
        assert flat.evaluations == \
            33 + GRID_REFINE_POINTS * (flat.grid_calls - 1)
        assert flat.x == 0.0                 # first point of a flat top
        assert peaked.x == pytest.approx(0.6, abs=1e-8)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            grid_maximize_rows(lambda xs: xs[:, :-1], 2, 0.0, 1.0)


#: Candidate rates and congestions for the row-value contract: the
#: solver's range, exact zeros, and the values the formulas guard
#: (infinite congestion, exp-overflow exponents, negative inputs).
_GRID_RATES = st.one_of(st.floats(1e-6, 4.0), st.sampled_from(
    [0.0, 1.0, -0.5, 600.0]))
_GRID_CONGESTIONS = st.one_of(st.floats(0.0, 50.0), st.sampled_from(
    [0.0, np.inf, -1.0, 800.0, -800.0]))
_POSITIVE = st.floats(0.1, 3.0)
_EXPONENTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                       st.floats(0.2, 3.0))

FAMILY_PROFILES = {
    "linear": st.builds(LinearUtility, gamma=_POSITIVE, a=_POSITIVE),
    "exponential": st.builds(ExponentialUtility, _POSITIVE, _POSITIVE,
                             _POSITIVE, _POSITIVE,
                             r_ref=st.floats(0.0, 1.0),
                             c_ref=st.floats(0.0, 2.0)),
    "power": st.builds(PowerUtility, gamma=_POSITIVE, a=_POSITIVE,
                       p=_EXPONENTS, q=_EXPONENTS),
    "quadratic": st.builds(QuadraticUtility, gamma=_POSITIVE, a=st.just(1.0),
                           b=st.floats(-0.45, 0.5)),
    "threshold": st.builds(ThresholdUtility, st.floats(0.1, 2.0),
                           _POSITIVE, a=_POSITIVE),
    "biconvex": st.builds(BiconvexUtility, _POSITIVE, _POSITIVE,
                          _POSITIVE, _POSITIVE, _POSITIVE),
}


class TestRowValues:
    XS = np.array([[0.1, 0.2, 0.3], [0.05, 0.5, 0.9]])
    CS = np.array([[0.2, np.inf, 0.1], [1.0, 0.3, np.inf]])

    @pytest.mark.parametrize("profile", [
        [LinearUtility(gamma=0.3), LinearUtility(gamma=0.7, a=1.5)],
        [LinearUtility(gamma=0.3), PowerUtility(gamma=0.6, p=0.5)],
    ], ids=["linear", "mixed"])
    def test_rows_equal_value_grid(self, profile):
        rows = value_grid_rows(profile)(self.XS, self.CS)
        for k, utility in enumerate(profile):
            assert np.array_equal(
                rows[k], utility.value_grid(self.XS[k], self.CS[k]))

    @pytest.mark.parametrize("family", sorted(FAMILY_PROFILES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_columnar_rows_equal_value_grid(self, family, data):
        # Each family's one-pass form scores row k exactly as
        # utilities[k].value_grid does, whatever the other rows hold.
        # Power exponents come from {0.5, 1, 2} and free floats: numpy
        # takes sqrt/square for a scalar ** 0.5 / ** 2.0 but pow for an
        # exponent column, so a naive r ** p_column fails here.
        n = data.draw(st.integers(1, 6))
        profile = [data.draw(FAMILY_PROFILES[family]) for _ in range(n)]
        xs = np.asarray(data.draw(st.lists(
            st.lists(_GRID_RATES, min_size=7, max_size=7),
            min_size=n, max_size=n)))
        cs = np.asarray(data.draw(st.lists(
            st.lists(_GRID_CONGESTIONS, min_size=7, max_size=7),
            min_size=n, max_size=n)))
        rows = value_grid_rows(profile)
        assert rows.__name__ == "columnar"
        with warnings.catch_warnings(record=True) as batched:
            warnings.simplefilter("always")
            got = rows(xs, cs)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            want = [u.value_grid(x, c) for u, x, c in zip(profile, xs, cs)]
        # The scalar value runs the same formula on 0-d arrays: every
        # entry, infinities included, and it never raises.
        with warnings.catch_warnings(record=True) as scalar:
            warnings.simplefilter("always")
            points = [[u.value(r, c).hex()
                       for r, c in zip(x.tolist(), c_row.tolist())]
                      for u, x, c_row in zip(profile, xs, cs)]
        assert [row.tobytes() for row in got] == \
            [row.tobytes() for row in want]
        assert points == [[v.hex() for v in row.tolist()] for row in got]
        # The same floating-point warnings (an exp overflow at a
        # negative congestion, say), or none.
        assert {str(w.message) for w in batched} == \
            {str(w.message) for w in alone} == \
            {str(w.message) for w in scalar}

    def test_scalar_value_past_the_exp_guard_is_minus_inf(self):
        # The Lemma-5 throughput exponent is 800 here: the value is
        # -inf, as on the grid, not an OverflowError.
        utility = ExponentialUtility(alpha=1.0, beta=800.0, gamma=1.0,
                                     nu=1.0, r_ref=1.0)
        assert utility.value(0.0, 0.5) == -math.inf
        assert utility.value_grid([0.0], [0.5]).tolist() == [-math.inf]

    def test_utility_without_value_or_formula_raises(self):
        class Bare(Utility):
            pass

        with pytest.raises(TypeError, match="Bare must write value"):
            Bare().value(0.1, 0.2)


def _profiles(min_users=2, max_users=5):
    """Generated (rates, utilities) pairs: linear or power tastes."""
    def build(draw):
        n, gammas, kind, load = draw
        rates = np.asarray(gammas[:n]) / np.sum(gammas[:n]) * load
        if kind == "linear":
            utilities = [LinearUtility(gamma=g) for g in gammas[:n]]
        else:
            utilities = [PowerUtility(gamma=g, p=0.5, q=1.0)
                         for g in gammas[:n]]
        return rates, utilities

    return st.tuples(
        st.integers(min_users, max_users),
        st.lists(st.floats(0.1, 0.9), min_size=max_users,
                 max_size=max_users),
        st.sampled_from(["linear", "power"]),
        st.floats(0.1, 0.9)).map(build)


def _batched_alloc(name):
    if name == "subsystem":
        return make_discipline("fair-share").subsystem({0: 0.05})
    return make_discipline(name)


class TestBatchedMapIsPerUser:
    """The batched map and certificate equal the per-user calls."""

    @given(case=_profiles(),
           name=st.sampled_from(["fair-share", "fifo", "separable",
                                 "priority", "subsystem"]))
    @settings(max_examples=25, deadline=None)
    def test_map_equals_best_responses_bitwise(self, case, name):
        rates, profile = case
        allocation = _batched_alloc(name)
        with obs.Scope() as batched:
            mapped = best_response_map(allocation, profile, rates)
        with obs.Scope() as alone:
            singles = [best_response(allocation, u, rates, i).x
                       for i, u in enumerate(profile)]
        assert [float(x).hex() for x in mapped] == \
            [float(x).hex() for x in singles]
        assert _counts(batched) == _counts(alone)

    @given(case=_profiles(),
           name=st.sampled_from(["fair-share", "fifo", "separable"]))
    @settings(max_examples=15, deadline=None)
    def test_certificate_equals_improvements_bitwise(self, case, name):
        rates, profile = case
        allocation = make_discipline(name)
        with obs.Scope() as batched:
            gains = utility_improvements(allocation, profile, rates)
        with obs.Scope() as alone:
            singles = [utility_improvement(allocation, u, rates, i)
                       for i, u in enumerate(profile)]
        assert [float(g).hex() for g in gains] == \
            [float(g).hex() for g in singles]
        assert _counts(batched) == _counts(alone)


class _PlantedFault(FairShareAllocation):
    """Fair Share whose row evaluators raise on their second call: the
    coarse scan scores, the first zoom round fails."""

    def grid_evaluator(self, rates, users):
        return self._planted(super().grid_evaluator(rates, users))

    def class_deviation_rows(self, class_rates, counts, classes,
                             include_self=False):
        return self._planted(super().class_deviation_rows(
            class_rates, counts, classes, include_self=include_self))

    @staticmethod
    def _planted(evaluate):
        calls = []

        def faulty(xs):
            calls.append(None)
            if len(calls) > 1:
                raise ZeroDivisionError("planted row fault")
            return evaluate(xs)

        return faulty


_RATES = np.array([0.1, 0.2, 0.15])
_PROFILE = [LinearUtility(gamma=g) for g in (0.2, 0.4, 0.6)]
_COUNTS = [2, 1, 3]

#: Every grid best-response entry point, called on the planted fault.
_ENTRY_POINTS = {
    "best_response": lambda a: best_response(a, _PROFILE[1], _RATES, 1),
    "best_response_map": lambda a: best_response_map(a, _PROFILE, _RATES),
    "utility_improvements": lambda a: utility_improvements(a, _PROFILE,
                                                           _RATES),
    "class_best_response": lambda a: class_best_response(
        a, _PROFILE[1], _RATES / 4, _COUNTS, 1),
    "class_best_response_map": lambda a: class_best_response_map(
        a, _PROFILE, _RATES / 4, _COUNTS, include_self=True),
}


class TestRowEvaluatorErrorsPropagate:
    """A row evaluator that raises fails the solve with its own error:
    no per-user, per-class or scalar retry swallows it."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_planted_fault_raises(self, entry):
        with pytest.raises(ZeroDivisionError, match="planted row fault"):
            _ENTRY_POINTS[entry](_PlantedFault())


#: ``solve_nash`` outputs, as float.hex: rates, max_gain, iterations,
#: converged and the solver counts (objective, congestion, grid calls).
#: The :data:`SERIAL_GOLDENS` are built by Fair Share's construction
#: (``iterations`` counts its stages); the rest run the extrapolating
#: fixed-point driver (``iterations`` counts map evaluations).  Any
#: drift in a row's arithmetic, a stage or the driver's steps moves
#: them.
NASH_GOLDENS = {
    "fair-share": (
        ["0x1.29f5e8542ae26p-2", "0x1.2c339284053dfp-3",
         "0x1.6bdc81a88aa9ep-4", "0x1.b06d1d109c800p-6"],
        "0x0.0p+0", 4, True, [4610, 4610, 126]),
    "fifo": (
        ["0x1.ed0028c8c5121p-2", "0x1.7b02afc0f3596p-4",
         "0x1.0c6f7a0b5ed8dp-20", "0x1.0c6f7a0b5ed8dp-20"],
        "0x1.0000000000000p-54", 16, True, [21353, 21353, 581]),
    "separable": (
        ["0x1.3fffffd54e7c0p+1", "0x1.6db6db790d146p+0",
         "0x1.ffffffca73db8p-1", "0x1.3fffffd3c256ap-1"],
        "0x0.0p+0", 3, True, [5796, 5796, 160]),
    "priority": (
        ["0x1.e3779d3111180p-3", "0x1.b06d1c09c226ep-4",
         "0x1.b06d1c09c226ep-4", "0x1.b06d1c02c4f3ap-4"],
        "0x1.c032def0ca7a2p-6", 18, True, [25008, 25008, 684]),
    "fair-share-mixed": (
        ["0x1.b84701a5f114bp-3", "0x1.e7f58f191e716p-4",
         "0x1.e403b33ac06a6p-4"],
        "0x0.0p+0", 3, True, [2964, 2964, 81]),
    "fair-share-subsystem": (
        ["0x1.d79386284d3bep-3", "0x1.be113cc00c597p-4",
         "0x1.4e8530069185cp-5"],
        "0x1.0000000000000p-54", 8, True, [8886, 8886, 243]),
}

#: The goldens whose point Fair Share's construction builds; a
#: subsystem of Fair Share iterates.
SERIAL_GOLDENS = ("fair-share", "fair-share-mixed")

#: The same six cases' rates under the plain damped iteration (35, 103,
#: 33, 38, 32 and 34 map evaluations).  The extrapolating driver and
#: the construction must land within :data:`DAMPED_DRIFT_TOL` of each
#: in sup norm: the iterations stop at the same residual tolerance, a
#: few best-response noise floors apart, and the construction resolves
#: each stage to the zoom's tolerance.  Priority's point is a damped
#: fixed point, not a Nash point (gain 2.7e-2 either way).
DAMPED_NASH_RATES = {
    "fair-share": ["0x1.29f5e80367836p-2", "0x1.2c33926c467d4p-3",
                   "0x1.6bdc817bd3118p-4", "0x1.b06d1d123064cp-6"],
    "fifo": ["0x1.ed00287b1b25fp-2", "0x1.7b02b098d8fd0p-4",
             "0x1.0c6f7a0b5ed8ep-20", "0x1.0c6f7a0b5ed8ep-20"],
    "separable": ["0x1.3fffffd41e7c0p+1", "0x1.6db6db77bf5d8p+0",
                  "0x1.ffffffc8b3db8p-1", "0x1.3fffffd2c256ap-1"],
    "priority": ["0x1.e3779baa97958p-3", "0x1.b06d1d02177bfp-4",
                 "0x1.b06d1d02177bfp-4", "0x1.b06d1d01c74ecp-4"],
    "fair-share-mixed": ["0x1.b84701b5b48dbp-3", "0x1.e7f58ed7626b2p-4",
                         "0x1.e403b33c4db85p-4"],
    "fair-share-subsystem": ["0x1.d793869794c3ep-3",
                             "0x1.be113cc4b9d8cp-4",
                             "0x1.4e85300894eddp-5"],
}
DAMPED_DRIFT_TOL = 5e-8


def _golden_case(label):
    linear = [LinearUtility(gamma=g) for g in (0.2, 0.35, 0.5, 0.8)]
    if label == "fair-share-mixed":
        return make_discipline("fair-share"), [
            LinearUtility(gamma=0.3), PowerUtility(gamma=0.6, p=0.5),
            LinearUtility(gamma=0.5, a=1.2)]
    if label == "fair-share-subsystem":
        return (make_discipline("fair-share").subsystem({1: 0.12}),
                [LinearUtility(gamma=g) for g in (0.25, 0.4, 0.7)])
    return make_discipline(label), linear


class TestNashGoldens:
    @pytest.mark.parametrize("label", sorted(NASH_GOLDENS))
    def test_solve_nash_bit_identical(self, label):
        allocation, profile = _golden_case(label)
        rates, gain, iterations, converged, counts = NASH_GOLDENS[label]
        with obs.Scope() as scope:
            result = solve_nash(allocation, profile)
        assert [float(x).hex() for x in result.rates] == rates
        assert float(result.max_gain).hex() == gain
        assert result.iterations == iterations
        assert result.converged is converged
        assert _counts(scope) == counts
        built = label in SERIAL_GOLDENS
        assert result.method == ("serial" if built else "best-response")
        assert scope.get("fixed_point.map_evals") == (0 if built
                                                      else iterations)
        damped = [float.fromhex(x) for x in DAMPED_NASH_RATES[label]]
        assert np.max(np.abs(result.rates - damped)) <= DAMPED_DRIFT_TOL


def _contract_map(name, n):
    """The map ``name`` for ``n`` users (the network, Fair Share at
    both switches of ``network_extension``'s crossing, has three)."""
    if name == "network":
        return _crossing_network(FairShareAllocation)
    if name == "weighted-proportional":
        return WeightedProportionalAllocation(np.linspace(0.5, 2.0, n))
    return make_discipline(name)


class TestGeneratedVectorScalarContract:
    """The grid and the scalar scan agree on generated profiles.
    ``solve_nash`` builds Fair Share's point, so there the grid side is
    the fixed-point driver it replaced (:func:`tests.oracles.driver_nash`),
    and the construction must match that driver and the scalar serial
    construction.  Weighted proportional sharing and the crossing
    network score their rounds through the default rows."""

    @given(n=st.integers(2, 5),
           tastes=st.sampled_from(["spread", "jittered", "power"]),
           jitter=st.lists(st.floats(-0.25, 0.25), min_size=5,
                           max_size=5),
           name=st.sampled_from(["fair-share", "fifo", "separable",
                                 "weighted-proportional", "network"]))
    @settings(max_examples=10, deadline=None)
    def test_solve_nash_modes_agree(self, n, tastes, jitter, name):
        if name == "network":
            n = 3
        step = 0.6 / (n - 1)
        gammas = np.linspace(0.2, 0.8, n)
        if tastes == "jittered":
            gammas = gammas + np.asarray(jitter[:n]) * step
        if tastes == "power":
            profile = [PowerUtility(gamma=float(g), p=0.5, q=1.0)
                       for g in gammas]
        else:
            profile = [LinearUtility(gamma=float(g)) for g in gammas]
        allocation = _contract_map(name, n)
        fast = solve_nash(allocation, profile)
        slow = scalar_nash(allocation, profile)
        if name == "fair-share":
            built, fast = fast, driver_nash(allocation, profile)
            assert built.method == "serial"
            assert np.max(np.abs(built.rates - fast.rates)) <= SERIAL_TOL
            serial = serial_nash(allocation, profile)
            assert np.max(np.abs(built.rates - serial)) <= SERIAL_TOL
        assert fast.converged == slow.converged
        assert fast.is_equilibrium(1e-6) == slow.is_equilibrium(1e-6)
        np.testing.assert_allclose(fast.rates, slow.rates, rtol=0.0,
                                   atol=1e-6)


class TestDefaultRowsBatchPerRound:
    """A map on the default rows scores each zoom round in one
    ``congestion_many`` batch, so a network asks each switch once."""

    def test_each_switch_batched_once_per_round(self):
        network = _crossing_network(FairShareAllocation)
        profile = [PowerUtility(gamma=g, q=1.5) for g in (0.5, 0.8, 0.6)]
        module = importlib.import_module("repro.game.best_response")
        rounds = []

        def zoom(*args, **kwargs):
            results = grid_maximize_rows(*args, **kwargs)
            rounds.append(max(result.grid_calls for result in results))
            return results

        first, second = network.switches
        with mock.patch.object(module, "grid_maximize_rows", zoom), \
                mock.patch.object(first, "congestion_many",
                                  wraps=first.congestion_many) as one, \
                mock.patch.object(second, "congestion_many",
                                  wraps=second.congestion_many) as two:
            best_response_map(network, profile, np.array([0.2, 0.3, 0.1]))
        assert len(rounds) == 1 and rounds[0] > 1
        assert one.call_count == two.call_count == rounds[0]


#: The registry's distinct disciplines.
SCAN_NAMES = ["fair-share", "fifo", "priority", "separable",
              "stalling-pivot"]


@st.composite
def scan_cases(draw):
    """A discipline, N 2-4 rates with total load below 0.9, and linear
    or power tastes."""
    n = draw(st.integers(2, 4))
    shares = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    load = draw(st.floats(0.05, 0.9))
    rates = np.asarray(shares) * (load / sum(shares))
    tastes = draw(st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n))
    if draw(st.sampled_from(["linear", "power"])) == "linear":
        profile = [LinearUtility(gamma=g) for g in tastes]
    else:
        profile = [PowerUtility(gamma=g, p=0.5, q=1.0) for g in tastes]
    name = draw(st.sampled_from(SCAN_NAMES))
    return make_discipline(name), rates, profile


class TestBatchedScansMatchScalarLoops:
    """The adversarial, coalition and elimination scans score every
    candidate in one ``congestion_many`` batch; each equals its
    point-by-point loop in :mod:`tests.oracles` bit for bit."""

    @given(case=scan_cases(), seed=st.integers(0, 2 ** 16),
           own=st.floats(0.01, 0.5))
    @settings(max_examples=15, deadline=None)
    def test_worst_case_congestion(self, case, seed, own):
        allocation, rates, _ = case
        batched = worst_case_congestion(
            allocation, 0, own, rates.size, rng=default_rng(seed),
            n_samples=50, refine=False)
        value, opponents = worst_case_loop(
            allocation, 0, own, rates.size, default_rng(seed), 50)
        assert float(batched.worst_congestion).hex() == float(value).hex()
        assert batched.worst_opponents.tobytes() == opponents.tobytes()

    @given(case=scan_cases(), pair=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_coalition_gain(self, case, pair):
        allocation, rates, profile = case
        members = [0, 1] if pair else list(range(rates.size))
        batched = coalition_gain(allocation, profile, rates, members,
                                 grid_points=5, refine=False)
        gain, joint = coalition_scan_loop(allocation, profile, rates,
                                          members, grid_points=5)
        assert float(batched.gain).hex() == float(gain).hex()
        assert batched.deviation.tobytes() == joint.tobytes()

    @given(case=scan_cases(), points=st.integers(2, 6))
    @example(case=(make_discipline("fair-share"), np.array([
        float.fromhex("0x1.0648806675c5dp-5"),
        float.fromhex("0x1.4d0dbbdd45381p-5"),
        float.fromhex("0x1.86bc6f51029f0p-7")]),
        [PowerUtility(gamma=0.5, p=0.5, q=1.0) for _ in range(3)]),
        points=2)
    @settings(max_examples=15, deadline=None)
    def test_payoff_tables_and_elimination(self, case, points):
        allocation, rates, profile = case
        profile = profile[:3]
        grids = [np.linspace(0.5 * r, 1.5 * r, points)
                 for r in rates[:3]]
        batched = _payoff_table(allocation, profile, grids)
        looped = payoff_table_loop(allocation, profile, grids)
        assert [t.tobytes() for t in batched] == \
            [t.tobytes() for t in looped]
        fast = iterated_elimination(allocation, profile, grids)
        with mock.patch.object(learning, "_payoff_table",
                               payoff_table_loop):
            slow = iterated_elimination(allocation, profile, grids)
        assert [a.tobytes() for a in fast.survivors] == \
            [a.tobytes() for a in slow.survivors]
        assert fast.rounds == slow.rounds
