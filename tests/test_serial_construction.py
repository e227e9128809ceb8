"""Fair Share's Nash point by construction, against its oracles.

Without ``r0``, ``solve_nash`` and ``solve_nash_classes`` build Fair
Share's equilibrium in ascending order
(:func:`repro.game.classes.serial_class_rates`) instead of iterating
to it.  On generated linear, power and mixed profiles with tied users:

* the per-user and class constructions match the fixed-point drivers
  they replaced (:func:`tests.oracles.driver_nash`,
  :func:`tests.oracles.driver_class_nash`) and the scalar serial
  construction (:func:`tests.oracles.serial_nash`) within
  :data:`ORACLE_TOL`; tied users get bitwise-equal rates, and the
  per-user point is the class point;
* at the constructed point nobody envies anybody (``t3_envy``), the
  relaxation matrix is nilpotent (``t7_dynamics``) and the driver
  started at a random point lands on it (``t4_uniqueness``);
* a constructed point that does not certify is never returned: the
  driver solves instead, and ``solver.serial_fallbacks`` counts it;
* an explicit ``r0``, a subsystem and a subclass of Fair Share iterate.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.game.classes as classes
import repro.obs as obs
from repro.disciplines.fair_share import FairShareAllocation
from repro.game.classes import solve_nash_classes
from repro.game.dynamics import is_nilpotent, relaxation_matrix
from repro.game.envy import max_envy
from repro.game.nash import solve_nash
from repro.numerics.rng import default_rng
from repro.users.families import LinearUtility, PowerUtility
from tests.oracles import driver_class_nash, driver_nash, serial_nash

#: Constructed rates against every oracle, in sup norm.
ORACLE_TOL = 1e-7
#: The certificate a constructed point and a fallback are held to.
GAIN_TOL = 1e-8
#: Envy tolerated at the constructed point (``t3_envy``'s bound).
ENVY_TOL = 1e-7
#: ``t7_dynamics``' nilpotency tolerance.
NILPOTENT_TOL = 1e-6


@st.composite
def class_profiles(draw):
    """``(utilities, counts)``: 1-4 classes of 1-3 users, tastes spread
    over [0.2, 0.8] with a quarter-step jitter, every class linear,
    every class power, or each drawn from the two (mixed)."""
    k = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    jitter = draw(st.lists(st.floats(-0.25, 0.25), min_size=k,
                           max_size=k))
    family = draw(st.sampled_from(["linear", "power", "mixed"]))
    tastes = (np.linspace(0.2, 0.8, k)
              + np.asarray(jitter) * 0.6 / max(k - 1, 1))
    utilities = []
    for taste in tastes.tolist():
        kind = family if family != "mixed" else draw(
            st.sampled_from(["linear", "power"]))
        utilities.append(LinearUtility(gamma=taste) if kind == "linear"
                         else PowerUtility(gamma=taste, p=0.5, q=1.0))
    return utilities, counts


@st.composite
def shuffled_profiles(draw):
    """A class profile expanded to one utility object per user, in a
    drawn order: ``(utilities, counts, per_user, class_of)``."""
    utilities, counts = draw(class_profiles())
    class_of = [k for k, m in enumerate(counts) for _ in range(m)]
    class_of = draw(st.permutations(class_of))
    per_user = [copy.copy(utilities[k]) for k in class_of]
    return utilities, counts, per_user, np.asarray(class_of)


class TestConstructionMatchesOracles:
    @given(case=shuffled_profiles())
    @settings(max_examples=25, deadline=None)
    def test_per_user_and_class_constructions(self, case):
        utilities, counts, per_user, class_of = case
        fs = FairShareAllocation()
        built = solve_nash(fs, per_user)
        cls = solve_nash_classes(fs, utilities, counts=counts)
        assert built.method == cls.method == "serial"
        assert built.converged and cls.converged
        assert built.iterations == cls.iterations == len(utilities)
        assert built.max_gain <= GAIN_TOL
        assert cls.max_gain <= GAIN_TOL and cls.spot_gain <= GAIN_TOL
        # Tied users share their class's rate bit for bit, and the
        # per-user point is the class point.
        assert built.rates.tobytes() == cls.class_rates[class_of].tobytes()
        driven = driver_nash(fs, per_user)
        assert np.max(np.abs(built.rates - driven.rates)) <= ORACLE_TOL
        driven_cls = driver_class_nash(fs, utilities, counts)
        assert np.max(np.abs(cls.class_rates
                             - driven_cls.class_rates)) <= ORACLE_TOL
        serial = serial_nash(fs, per_user)
        assert np.max(np.abs(built.rates - serial)) <= ORACLE_TOL


class TestPaperPropertiesAtTheConstructedPoint:
    @given(case=shuffled_profiles())
    @settings(max_examples=20, deadline=None)
    def test_nobody_envies(self, case):
        _, _, per_user, _ = case
        built = solve_nash(FairShareAllocation(), per_user)
        assert max_envy(per_user, built.rates,
                        built.congestion) <= ENVY_TOL

    @given(case=shuffled_profiles())
    @settings(max_examples=20, deadline=None)
    def test_relaxation_matrix_is_nilpotent(self, case):
        _, _, per_user, _ = case
        fs = FairShareAllocation()
        built = solve_nash(fs, per_user)
        matrix = relaxation_matrix(fs, per_user, built.rates)
        assert is_nilpotent(matrix, tol=NILPOTENT_TOL)

    @given(case=shuffled_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_the_driver_from_any_start_lands_on_it(self, case, seed):
        _, _, per_user, _ = case
        fs = FairShareAllocation()
        built = solve_nash(fs, per_user)
        generator = default_rng(seed)
        start = (generator.dirichlet(np.ones(len(per_user)))
                 * generator.uniform(0.05, 0.95))
        iterated = solve_nash(fs, per_user, r0=start)
        assert iterated.method == "best-response"
        assert np.max(np.abs(iterated.rates - built.rates)) <= ORACLE_TOL


def _perturb_first_stage(monkeypatch):
    """Every row of the construction's first stage 20% too high, so the
    first class is fixed at a rate that is no best response; later
    zooms (stages, certificates, the driver) are untouched."""
    real = classes._zoom_rows
    calls = []

    def zoom(*args, **kwargs):
        results = real(*args, **kwargs)
        calls.append(None)
        if len(calls) > 1:
            return results
        return [dataclasses.replace(result, x=1.2 * result.x)
                for result in results]

    monkeypatch.setattr(classes, "_zoom_rows", zoom)


_PROFILE = [LinearUtility(gamma=g) for g in (0.3, 0.3, 0.6)]


class TestUncertifiedConstructionFallsBack:
    def test_per_user(self, monkeypatch):
        _perturb_first_stage(monkeypatch)
        with obs.Scope() as scope:
            result = solve_nash(FairShareAllocation(), _PROFILE)
        assert result.method == "best-response"
        assert result.converged and result.is_equilibrium(GAIN_TOL)
        assert scope.get("solver.serial_fallbacks") == 1

    def test_class_space(self, monkeypatch):
        _perturb_first_stage(monkeypatch)
        with obs.Scope() as scope:
            result = solve_nash_classes(FairShareAllocation(),
                                        _PROFILE[1:], counts=[2, 1])
        assert result.method == "class-space"
        assert result.converged and result.is_equilibrium(GAIN_TOL)
        assert result.spot_gain <= GAIN_TOL
        assert scope.get("solver.serial_fallbacks") == 1

    def test_certified_construction_counts_nothing(self):
        with obs.Scope() as scope:
            result = solve_nash(FairShareAllocation(), _PROFILE)
        assert result.method == "serial"
        assert scope.get("solver.serial_fallbacks") == 0
        assert scope.get("fixed_point.map_evals") == 0


class _FairShareVariant(FairShareAllocation):
    """A subclass: the construction models Fair Share itself only."""


class TestWhoIterates:
    @pytest.mark.parametrize("case", ["r0", "subsystem", "subclass"])
    def test_iterates(self, case):
        profile = _PROFILE
        fs = FairShareAllocation()
        r0 = None
        if case == "r0":
            r0 = [0.1, 0.1, 0.1]
        elif case == "subsystem":
            fs, profile = fs.subsystem({1: 0.12}), _PROFILE[:2]
        else:
            fs = _FairShareVariant()
        result = solve_nash(fs, profile, r0=r0)
        assert result.method == "best-response"
        assert result.is_equilibrium(GAIN_TOL)
        if case != "subsystem":
            built = solve_nash(FairShareAllocation(), profile)
            assert np.max(np.abs(result.rates - built.rates)) <= ORACLE_TOL

    def test_class_space_subclass_iterates(self):
        result = solve_nash_classes(_FairShareVariant(), _PROFILE[1:],
                                    counts=[2, 1])
        assert result.method == "class-space"
