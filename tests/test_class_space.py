"""The symmetry-class Nash reduction: agreement with the exact solver.

The load-bearing claim of the class-space layer is that the K-class
reduced game *is* the N-user game on class-symmetric profiles: the
damped iteration and the FDC root must reproduce the per-user solvers
to solver precision, and the expanded points must certify through the
completely independent per-user evaluation path.  The golden grid here
pins that agreement to 1e-10 for the five allocation families at
N <= 64, K in {1, 2, 4}.

Priority is special: its tie-averaged allocation is continuous but not
C^1 across ties (it sits outside the paper's AC set), so multi-member
classes face an undercutting knife edge and the symmetric point is
only an eps-equilibrium with eps -> 0 in N.  The reduction is still
exact — the class trajectory coincides with the per-user trajectory —
which is precisely what the priority cases assert.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.disciplines.registry import make_discipline
from repro.exceptions import DisciplineError
from repro.game.classes import (
    ClassProfile,
    _class_gains,
    certify_expansion,
    class_best_response,
    class_best_response_map,
    class_fdc_residuals,
    detect_classes,
    solve_nash_classes,
    solve_nash_classes_fdc,
)
from repro.game.best_response import best_response, utility_improvement
import repro.game.nash as nash_module
from repro.game.meanfield import solve_nash_meanfield
from repro.game.nash import find_all_nash, solve_nash, solve_nash_fdc
from repro.numerics import instrumentation
from repro.numerics.rng import default_rng
from repro.users.families import LinearUtility, PowerUtility
from tests.oracles import (driver_class_nash, driver_nash,
                           meanfield_fixed_point, serial_nash)

#: The agreement tolerance the class reduction is held to.
AGREEMENT_TOL = 1e-10

#: Families whose interior equilibria are smooth (FDC-polishable).
SMOOTH_FAMILIES = ("fair-share", "fifo", "separable", "pivot")

GRID = [(8, 1), (8, 2), (8, 4), (64, 1), (64, 2), (64, 4)]


def class_setup(n, k):
    """K strictly concave classes, n // k users each.

    The 1/sqrt(n) appetite scaling keeps the equilibrium interior and
    the load regime comparable across population sizes (the same
    recipe as the scaling_regimes experiment and bench_solver).
    """
    weights = np.linspace(1.0, 2.0, k)
    utilities = [PowerUtility(gamma=1.0, a=float(w) / np.sqrt(n),
                              p=0.5, q=1.0) for w in weights]
    return utilities, [n // k] * k


def expand_profile(utilities, counts):
    """The per-user profile in class-block order."""
    return [u for u, m in zip(utilities, counts) for _ in range(m)]


def solve_both(allocation, utilities, counts):
    """(class result, exact per-user result), both BR-seeded + FDC."""
    per_user = expand_profile(utilities, counts)
    seeded = solve_nash_classes(allocation, utilities, counts=counts,
                                tol=1e-9, max_iter=300)
    cls = solve_nash_classes_fdc(allocation, utilities, counts=counts,
                                 r0=seeded.class_rates)
    ex_seed = solve_nash(allocation, per_user, tol=1e-9, max_iter=300)
    exact = solve_nash_fdc(allocation, per_user, r0=ex_seed.rates)
    return cls, exact


class TestExactAgreement:
    """solve_nash_classes == solve_nash to <= 1e-10 (the tentpole)."""

    @pytest.mark.parametrize("family", SMOOTH_FAMILIES)
    @pytest.mark.parametrize("n,k", GRID)
    def test_rates_and_utilities_match(self, family, n, k):
        allocation = make_discipline(family)
        utilities, counts = class_setup(n, k)
        cls, exact = solve_both(allocation, utilities, counts)
        assert cls.converged and exact.converged
        assert np.max(np.abs(cls.expand_rates()
                             - exact.rates)) <= AGREEMENT_TOL
        assert np.max(np.abs(cls.expand_utilities()
                             - exact.utilities)) <= AGREEMENT_TOL
        assert np.max(np.abs(cls.expand_congestion()
                             - exact.congestion)) <= AGREEMENT_TOL

    @pytest.mark.parametrize("family", SMOOTH_FAMILIES)
    def test_certificates_hold(self, family):
        allocation = make_discipline(family)
        utilities, counts = class_setup(64, 4)
        cls, _ = solve_both(allocation, utilities, counts)
        assert cls.max_gain <= 1e-8
        assert cls.spot_gain <= 1e-8
        assert cls.is_equilibrium(1e-8)

    @pytest.mark.parametrize("n,k", [(8, 1), (64, 1), (64, 2), (64, 4)])
    def test_priority_trajectory_identity(self, n, k):
        """Class and per-user damped iterations coincide for priority.

        No FDC polish: the tie-block kink makes the smooth first-order
        condition spurious, so the damped best-response fixed point is
        the object of interest — and it is the *same* trajectory in
        class space and user space.  Utilities are compared at the
        expanded point through the independent per-user congestion
        path (the tie-averaging formula's twin).
        """
        pr = make_discipline("priority")
        utilities, counts = class_setup(n, k)
        per_user = expand_profile(utilities, counts)
        cls = solve_nash_classes(pr, utilities, counts=counts, tol=1e-10,
                                 max_iter=1000)
        exact = solve_nash(pr, per_user, tol=1e-10, max_iter=1000)
        assert cls.converged and exact.converged
        expanded = cls.expand_rates()
        assert np.max(np.abs(expanded - exact.rates)) <= AGREEMENT_TOL
        congestion = pr.congestion(expanded)
        at_point = np.array(
            [u.value(float(expanded[j]), float(congestion[j]))
             for j, u in enumerate(per_user)])
        assert np.max(np.abs(at_point
                             - cls.expand_utilities())) <= AGREEMENT_TOL

    def test_fdc_residuals_vanish_at_solution(self):
        """class_fdc_residuals is the FDC oracle: ~0 at the root."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 4)
        cls, _ = solve_both(fs, utilities, counts)
        residuals = class_fdc_residuals(fs, utilities, cls.class_rates,
                                        counts)
        assert np.max(np.abs(residuals)) <= 1e-8

    def test_scalar_oracle_agrees(self):
        """The class solver matches Fair Share's serial construction,
        which iterates nothing, at N=64."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 4)
        result = solve_nash_classes(fs, utilities, counts=counts)
        serial = serial_nash(fs, expand_profile(utilities, counts))
        assert np.max(np.abs(result.expand_rates() - serial)) <= 1e-6

    def test_n1000_smoke(self):
        """The headline scale: exact N=10^3 equilibrium, certified."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(1000, 4)
        seeded = solve_nash_classes(fs, utilities, counts=counts,
                                    tol=1e-9, max_iter=300)
        result = solve_nash_classes_fdc(fs, utilities, counts=counts,
                                        r0=seeded.class_rates)
        assert result.converged
        assert result.n_users == 1000
        assert result.max_gain <= 1e-8
        assert result.spot_gain <= 1e-8


#: Generated class profiles: the class solver vs the per-user solver.
GENERATED_TOL = 1e-7


class TestGeneratedClassAgreement:
    """Class-space and per-user Nash agree on generated class profiles.

    Tastes are spread over [0.2, 0.8] with a quarter-step jitter, as in
    the benchmark's Nash inputs: bunched independent draws can stall
    FIFO's damped iteration at a corner equilibrium.  Both solvers run
    at the default step tolerance (1e-9): at 1e-10 the damped class
    iteration sometimes hovers at the derivative-free maximizer's noise
    floor and hits ``max_iter`` with a certified point.  Both solvers
    build Fair Share's point by one construction, so there the class
    point is held to the per-user and class fixed-point drivers it
    replaced (:func:`tests.oracles.driver_nash`,
    :func:`tests.oracles.driver_class_nash`) and to the scalar serial
    construction.
    """

    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           jitter=st.lists(st.floats(-0.25, 0.25), min_size=3,
                           max_size=3),
           family=st.sampled_from(["linear", "power"]),
           name=st.sampled_from(["fair-share", "fifo", "separable"]))
    @settings(max_examples=20, deadline=None)
    def test_class_solver_matches_per_user(self, sizes, jitter, family,
                                           name):
        k = len(sizes)
        step = 0.6 / max(k - 1, 1)
        tastes = np.linspace(0.2, 0.8, k) + np.asarray(jitter[:k]) * step
        if family == "linear":
            utilities = [LinearUtility(gamma=float(g)) for g in tastes]
        else:
            scale = np.sqrt(sum(sizes))
            utilities = [PowerUtility(gamma=1.0, a=(1.0 + float(w)) / scale,
                                      p=0.5, q=1.0) for w in tastes]
        allocation = make_discipline(name)
        per_user = expand_profile(utilities, sizes)
        cls = solve_nash_classes(allocation, utilities, counts=sizes)
        if name == "fair-share":
            assert cls.method == "serial"
            exact = driver_nash(allocation, per_user)
            driven = driver_class_nash(allocation, utilities, sizes)
            assert driven.converged
            assert np.max(np.abs(cls.class_rates
                                 - driven.class_rates)) <= GENERATED_TOL
            serial = serial_nash(allocation, per_user)
            assert np.max(np.abs(cls.expand_rates()
                                 - serial)) <= GENERATED_TOL
        else:
            exact = solve_nash(allocation, per_user)
        assert cls.converged and exact.converged
        assert np.max(np.abs(cls.expand_rates()
                             - exact.rates)) <= GENERATED_TOL

    def test_clipped_extrapolation_onto_a_remembered_point(self):
        """A power case from this domain whose clipped extrapolation
        once landed on an iterate still in memory: the driver evaluated
        the same three points 331 times and ended unconverged after
        400 class evaluations (gain 6.3e-4).  ``solve_nash_classes``
        builds this point now, so the driver runs as its oracle."""
        weights = [float.fromhex("0x1.e042d83baac9bp-3"),
                   float.fromhex("0x1.c58411dd35d08p-1")]
        utilities = [PowerUtility(gamma=1.0, a=(1.0 + w) / np.sqrt(5),
                                  p=0.5, q=1.0) for w in weights]
        allocation = make_discipline("fair-share")
        cls = driver_class_nash(allocation, utilities, [2, 3])
        assert cls.converged and cls.iterations <= 20
        serial = serial_nash(allocation, expand_profile(utilities, [2, 3]))
        assert np.max(np.abs(cls.expand_rates()
                             - serial)) <= GENERATED_TOL


class TestGeneratedFDCContracts:
    """Both class-form FDC roots against their references on generated
    profiles: the mean-field root against damped best-response
    iteration under the same closure (the oracle
    ``meanfield_fixed_point``), and the class root against the
    per-user root of the expanded game started at it.  Classes of
    ``PowerUtility(gamma=1, a=(1+w)/sqrt(N), p=0.5, q=1)``, as in the
    scaling_regimes experiment; a draw counts only when every solve
    converged."""

    @given(classes=st.lists(st.tuples(st.integers(1, 5),
                                       st.floats(0.1, 0.9)),
                            min_size=1, max_size=4),
           name=st.sampled_from(["fair-share", "fifo"]))
    @settings(max_examples=25, deadline=None)
    def test_roots_match_their_references(self, classes, name):
        counts = [m for m, _ in classes]
        scale = np.sqrt(sum(counts))
        utilities = [PowerUtility(gamma=1.0, a=(1.0 + w) / scale, p=0.5,
                                  q=1.0) for _, w in classes]
        allocation = make_discipline(name)
        meanfield = solve_nash_meanfield(allocation, utilities,
                                         counts=counts)
        iterated = meanfield_fixed_point(allocation, utilities, counts)
        cls = solve_nash_classes_fdc(allocation, utilities, counts=counts)
        exact = solve_nash_fdc(allocation,
                               expand_profile(utilities, counts),
                               r0=cls.expand_rates())
        assume(meanfield.converged and iterated.converged)
        assume(cls.converged and exact.converged)
        assert np.max(np.abs(meanfield.class_rates
                             - iterated.x)) <= 1e-6
        assert np.max(np.abs(exact.rates
                             - cls.expand_rates())) <= AGREEMENT_TOL


@st.composite
def class_cases(draw):
    """Generated (class rates, counts, utilities): K 1-4 classes of 1-5
    members (singletons empty their class when they deviate), linear
    or power tastes, total load below 0.9."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    shares = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    load = draw(st.floats(0.05, 0.9))
    total = sum(m * w for m, w in zip(counts, shares))
    rates = np.asarray(shares) * (load / total)
    tastes = draw(st.lists(st.floats(0.1, 0.9), min_size=k, max_size=k))
    if draw(st.sampled_from(["linear", "power"])) == "linear":
        utilities = [LinearUtility(gamma=g) for g in tastes]
    else:
        utilities = [PowerUtility(gamma=g, p=0.5, q=1.0) for g in tastes]
    return rates, counts, utilities


#: The class-space disciplines of the batched contract, each with its
#: own row evaluator.
BATCHED_NAMES = ["fair-share", "fifo", "priority", "separable",
                 "stalling-pivot"]


def _solver_counts(scope):
    return [scope.get(f"solver.{name}")
            for name in instrumentation.COUNTERS]


def _hexes(values):
    return [float(v).hex() for v in values]


class TestBatchedClassMapIsPerClass:
    """One K-row zoom per class-space round equals the per-class calls:
    the batched map, ``_class_gains`` and ``certify_expansion`` against
    ``class_best_response`` and ``utility_improvement``, bit for bit
    and with equal ``solver.*`` counts."""

    @given(case=class_cases(), name=st.sampled_from(BATCHED_NAMES),
           include_self=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_map_equals_class_best_responses(self, case, name,
                                             include_self):
        rates, counts, utilities = case
        allocation = make_discipline(name)
        with obs.Scope() as batched:
            mapped = class_best_response_map(allocation, utilities, rates,
                                             counts,
                                             include_self=include_self)
        with obs.Scope() as alone:
            singles = [class_best_response(allocation, u, rates, counts, k,
                                           include_self=include_self).x
                       for k, u in enumerate(utilities)]
        assert _hexes(mapped) == _hexes(singles)
        assert _solver_counts(batched) == _solver_counts(alone)

    @given(case=class_cases(), name=st.sampled_from(BATCHED_NAMES),
           include_self=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_class_gains_equal_per_class(self, case, name, include_self):
        rates, counts, utilities = case
        allocation = make_discipline(name)
        congestion = allocation.class_congestion(rates, counts)
        current = np.array([u.value(float(x), float(c)) for u, x, c
                            in zip(utilities, rates, congestion)])
        with obs.Scope() as batched:
            gain = _class_gains(allocation, utilities, rates,
                                np.asarray(counts), current,
                                include_self=include_self)
        with obs.Scope() as alone:
            worst = -math.inf
            for k, utility in enumerate(utilities):
                best = class_best_response(allocation, utility, rates,
                                           counts, k,
                                           include_self=include_self)
                if math.isinf(current[k]) and math.isinf(best.value):
                    worst = max(worst, 0.0)
                else:
                    worst = max(worst, best.value - float(current[k]))
        assert float(gain).hex() == float(worst).hex()
        assert _solver_counts(batched) == _solver_counts(alone)

    @given(case=class_cases(), name=st.sampled_from(BATCHED_NAMES),
           per_class=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_certify_expansion_equals_improvements(self, case, name,
                                                   per_class):
        rates, counts, utilities = case
        allocation = make_discipline(name)
        expanded = np.repeat(rates, counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        with obs.Scope() as batched:
            gain = certify_expansion(allocation, utilities, rates, counts,
                                     users_per_class=per_class)
        with obs.Scope() as alone:
            worst = -math.inf
            for k, utility in enumerate(utilities):
                for j in range(min(per_class, counts[k])):
                    worst = max(worst, utility_improvement(
                        allocation, utility, expanded, int(starts[k]) + j))
        assert float(gain).hex() == float(worst).hex()
        assert _solver_counts(batched) == _solver_counts(alone)


class TestClassBestResponse:
    def test_matches_per_user_best_response(self):
        """One class member's deviation problem == the per-user one."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 4)
        class_rates = np.array([0.02, 0.03, 0.04, 0.05])
        expanded = np.repeat(class_rates, counts)
        cls = class_best_response(fs, utilities[2], class_rates, counts, 2)
        per_user = best_response(fs, utilities[2], expanded, 4)
        assert cls.x == pytest.approx(per_user.x, abs=1e-9)
        assert cls.value == pytest.approx(per_user.value, abs=1e-11)

    def test_counts_one_reduces_to_per_user(self):
        """All-singleton classes are the plain N-user game."""
        fifo = make_discipline("fifo")
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        rates = np.array([0.05, 0.1, 0.15])
        for i in range(3):
            cls = class_best_response(fifo, profile[i], rates,
                                      [1, 1, 1], i)
            per = best_response(fifo, profile[i], rates, i)
            assert cls.x == pytest.approx(per.x, abs=1e-9)


class TestDetectClasses:
    def test_groups_equal_utilities(self):
        u1, u2 = LinearUtility(gamma=0.3), LinearUtility(gamma=0.7)
        grouping = detect_classes([u1, u2, u1, u1, u2])
        assert grouping.n_classes == 2
        assert grouping.counts == (3, 2)
        assert grouping.members == ((0, 2, 3), (1, 4))

    def test_distinct_parameters_stay_apart(self):
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        grouping = detect_classes(profile)
        assert grouping.n_classes == 3
        assert grouping.counts == (1, 1, 1)

    def test_scatter_restores_input_order(self):
        u1, u2 = LinearUtility(gamma=0.3), LinearUtility(gamma=0.7)
        grouping = detect_classes([u1, u2, u1])
        assert np.array_equal(grouping.scatter([1.0, 2.0]),
                              [1.0, 2.0, 1.0])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            detect_classes([])

    def test_solver_accepts_interleaved_profile(self):
        """A per-user profile in any order solves through detection and
        expands back in input order."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 2)
        interleaved = [utilities[j % 2] for j in range(8)]
        result = solve_nash_classes(fs, interleaved, tol=1e-9,
                                    max_iter=300)
        assert result.converged
        expanded = result.expand_rates()
        # Users 0, 2, 4, 6 are class 0; 1, 3, 5, 7 are class 1.
        assert np.allclose(expanded[::2], result.class_rates[0])
        assert np.allclose(expanded[1::2], result.class_rates[1])


class TestClassProfileValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="utilities"):
            ClassProfile(utilities=(LinearUtility(gamma=0.5),),
                         counts=(2, 3))

    def test_nonpositive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ClassProfile(utilities=(LinearUtility(gamma=0.5),),
                         counts=(0,))

    def test_solver_rejects_bad_counts(self):
        fs = make_discipline("fair-share")
        with pytest.raises(ValueError, match="counts"):
            solve_nash_classes(fs, [LinearUtility(gamma=0.5)],
                               counts=[2, 2])

    @pytest.mark.parametrize("solver", [solve_nash_classes,
                                        solve_nash_classes_fdc,
                                        solve_nash_meanfield],
                             ids=lambda solver: solver.__name__)
    def test_user_order_dependent_map_is_refused(self, solver):
        # Weights tie congestion to user positions, so two members of
        # one class are not interchangeable, and a class-space point
        # need not be an equilibrium of the expanded game.
        weighted = WeightedProportionalAllocation((0.5, 2.0, 1.0, 1.0))
        profile = [LinearUtility(gamma=0.3), LinearUtility(gamma=0.5)]
        with pytest.raises(DisciplineError,
                           match="depends on user order.*solve_nash"):
            solver(weighted, profile, counts=[2, 2])


class TestCertifyExpansion:
    def test_at_equilibrium_gain_vanishes(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 2)
        cls, _ = solve_both(fs, utilities, counts)
        gain = certify_expansion(fs, utilities, cls.class_rates, counts,
                                 users_per_class=2)
        assert gain <= 1e-8

    def test_off_equilibrium_gain_positive(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 2)
        gain = certify_expansion(fs, utilities, [0.001, 0.001], counts)
        assert gain > 1e-3


class TestFindAllNashClassSeeding:
    def test_small_n_byte_identical(self, monkeypatch):
        """Below the population threshold the starts are the flat
        Dirichlet draws, byte for byte: a replay of the draws matches
        every start the search solves from."""
        fs = make_discipline("fair-share")
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        starts = []

        def recording_solve(allocation, profile, r0, **kwargs):
            starts.append(np.array(r0))
            return solve_nash(allocation, profile, r0=r0, **kwargs)

        monkeypatch.setattr(nash_module, "solve_nash", recording_solve)
        find_all_nash(fs, profile, n_starts=4, rng=default_rng(7))
        replay = default_rng(7)
        for start in starts:
            direction = replay.dirichlet(np.ones(len(profile)))
            load = replay.uniform(0.05, 0.95 * fs.curve.capacity)
            assert (direction * load).tobytes() == start.tobytes()
        assert len(starts) == 4

    def test_class_seeded_search_certifies(self):
        """Per-class seeding at N=120 still lands on certified
        equilibria (flat N-dim Dirichlet draws concentrate and miss
        the interesting corners at this scale)."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(120, 3)
        profile = expand_profile(utilities, counts)
        found = find_all_nash(fs, profile, n_starts=2,
                              rng=default_rng(11))
        assert found
        for result in found:
            assert result.max_gain <= 1e-6
