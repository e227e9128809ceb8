"""Equivalence goldens for the batched allocation evaluation core.

Every discipline's ``congestion_grid`` / ``congestion_many`` must agree
with a scalar ``congestion_i`` / ``congestion`` loop — including at
ties, at (and beyond) capacity, and through subsystems — its class
deviation rows must agree with ``congestion_i`` of a deviating member
of the expanded profile on generated class profiles, and the analytic
``gradient_i`` / ``second_gradient_i`` rows must match the numeric
finite-difference oracles.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disciplines.base import AllocationFunction
from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.disciplines.registry import available_disciplines, make_discipline
from repro.disciplines.separable import SeparableAllocation
from repro.numerics.rng import default_rng
from tests.oracles import numeric_gradient, numeric_second_gradient

#: Batched-vs-scalar congestion values must agree essentially exactly.
GRID_RTOL = 1e-12

ALL_NAMES = available_disciplines()


def scalar_grid(allocation, rates, i, xs):
    """The scalar oracle: one congestion_i call per candidate."""
    base = np.array(rates, dtype=float)
    out = np.empty(len(xs))
    for k, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        base[i] = x
        out[k] = allocation.congestion_i(base, i)
    return out


def assert_matches(actual, expected):
    """Same infinity pattern; finite entries equal to GRID_RTOL."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isinf(actual), np.isinf(expected))
    assert not np.any(np.isnan(actual))
    finite = np.isfinite(expected)
    # atol floor: the grid and scalar paths sum rate vectors in
    # different orders, so near-zero congestions may differ by an ulp.
    np.testing.assert_allclose(actual[finite], expected[finite],
                               rtol=GRID_RTOL, atol=1e-14)


def seeded_profiles(n, n_profiles=4, scale=0.85, seed=7):
    """Random interior profiles plus a hand-built tie-heavy one."""
    generator = default_rng(seed + n)
    out = []
    for _ in range(n_profiles):
        direction = generator.dirichlet(np.ones(n))
        out.append(direction * generator.uniform(0.2, scale))
    tied = np.resize([0.1, 0.1, 0.25], n)
    out.append(tied)
    return out


def candidate_rates(rates, i):
    """Candidates spanning interior, ties, capacity, and overload.

    The near-capacity candidate keeps a robust margin: the grid and the
    scalar path sum the rate vector in different orders, and exactly at
    the pole a one-ulp total difference is amplified without bound.
    """
    opponents = np.delete(np.asarray(rates, dtype=float), i)
    headroom = max(1.0 - float(opponents.sum()), 0.0)
    return np.concatenate((
        np.linspace(1e-6, 0.6, 17),
        opponents,                          # exact ties with opponents
        [max(headroom - 1e-2, 1e-6),        # just inside capacity
         headroom + 1e-9,                   # robustly at/over capacity
         headroom + 0.05, 1.5],             # clearly beyond
    ))


class TestCongestionGridMatchesScalar:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_grid_equals_scalar_loop(self, name, n):
        allocation = make_discipline(name)
        for rates in seeded_profiles(n):
            for i in (0, n - 1):
                xs = candidate_rates(rates, i)
                assert_matches(allocation.congestion_grid(rates, i, xs),
                               scalar_grid(allocation, rates, i, xs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_grid_evaluator_matches_scalar_loop(self, name):
        # The reusable multi-user evaluator (opponent precomputation
        # hoisted) must agree with the scalar loop on every row.
        allocation = make_discipline(name)
        rates = np.array([0.3, 0.2, 0.1])
        users = [1, 0, 2]
        evaluate = allocation.grid_evaluator(rates, users)
        for xs in (np.linspace(0.05, 0.4, 9),
                   np.linspace(0.01, 1.2, 7),
                   np.array([0.1, 0.3])):      # exact opponent ties
            rows = evaluate(np.tile(xs, (len(users), 1)))
            for b, i in enumerate(users):
                assert_matches(rows[b], scalar_grid(allocation, rates, i, xs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_grid_evaluator_rows_equal_congestion_grid(self, name, n):
        # Row b of a multi-user call is bit-identical to the one-user
        # congestion_grid of users[b], whatever the other rows hold.
        allocation = make_discipline(name)
        for rates in seeded_profiles(n):
            users = list(range(n))[::-1]
            grids = np.stack([candidate_rates(rates, i)[:20] for i in users])
            rows = allocation.grid_evaluator(rates, users)(grids)
            for b, i in enumerate(users):
                assert np.array_equal(
                    rows[b], allocation.congestion_grid(rates, i, grids[b]))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_grid_ignores_own_stale_rate(self, name):
        # rates[i] must be irrelevant to the grid values.
        allocation = make_discipline(name)
        rates = np.array([0.3, 0.2, 0.1])
        xs = np.linspace(0.05, 0.4, 9)
        poked = rates.copy()
        poked[1] = 0.77
        assert_matches(allocation.congestion_grid(poked, 1, xs),
                       allocation.congestion_grid(rates, 1, xs))


class TestCongestionManyMatchesScalar:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_many_equals_row_loop(self, name, n):
        allocation = make_discipline(name)
        generator = default_rng(13 + n)
        batch = generator.uniform(0.0, 1.6 / n, size=(24, n))
        batch[0] = 0.1            # symmetric row (all ties)
        batch[1, 0] = 1.2         # single overloaded sender
        expected = np.stack([allocation.congestion(row) for row in batch])
        assert_matches(allocation.congestion_many(batch), expected)


class TestSubsystemBatching:
    @pytest.mark.parametrize("name", ["fair-share", "fifo", "priority"])
    def test_subsystem_grid_equals_scalar_loop(self, name):
        allocation = make_discipline(name).subsystem({0: 0.15, 2: 0.1})
        free = np.array([0.2, 0.3])
        xs = np.concatenate((np.linspace(1e-6, 0.5, 11), [0.15, 0.8]))
        for i in range(free.size):
            assert_matches(allocation.congestion_grid(free, i, xs),
                           scalar_grid(allocation, free, i, xs))

    @pytest.mark.parametrize("name", ["fair-share", "fifo", "priority"])
    def test_subsystem_grid_evaluator(self, name):
        allocation = make_discipline(name).subsystem({0: 0.15, 2: 0.1})
        free = np.array([0.2, 0.3])
        evaluate = allocation.grid_evaluator(free, [0, 1])
        xs = np.linspace(1e-6, 0.6, 13)
        rows = evaluate(np.tile(xs, (2, 1)))
        for i in range(free.size):
            assert_matches(rows[i], scalar_grid(allocation, free, i, xs))

    @pytest.mark.parametrize("name", ["fair-share", "fifo"])
    def test_subsystem_many_equals_row_loop(self, name):
        allocation = make_discipline(name).subsystem({1: 0.25})
        generator = default_rng(31)
        batch = generator.uniform(0.0, 0.5, size=(12, 3))
        expected = np.stack([allocation.congestion(row) for row in batch])
        assert_matches(allocation.congestion_many(batch), expected)


class TestAnalyticGradients:
    """Closed-form gradient rows vs the finite-difference oracles."""

    INTERIOR = np.array([0.08, 0.22, 0.31, 0.14])

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation(),
        SeparableAllocation()], ids=lambda a: a.name)
    def test_gradient_matches_numeric(self, allocation):
        for i in range(self.INTERIOR.size):
            analytic = allocation.gradient_i(self.INTERIOR, i)
            numeric = numeric_gradient(allocation, self.INTERIOR, i)
            np.testing.assert_allclose(analytic, numeric,
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation(),
        SeparableAllocation()], ids=lambda a: a.name)
    def test_second_gradient_matches_numeric(self, allocation):
        for i in range(self.INTERIOR.size):
            analytic = allocation.second_gradient_i(self.INTERIOR, i)
            numeric = numeric_second_gradient(allocation, self.INTERIOR,
                                              i)
            np.testing.assert_allclose(analytic, numeric,
                                       rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation()],
        ids=lambda a: a.name)
    def test_gradient_matches_jacobian_row(self, allocation):
        # The Jacobian stacks gradient_i rows, so its reference is the
        # finite-difference oracle, not gradient_i itself.
        jac = allocation.jacobian(self.INTERIOR)
        for i in range(self.INTERIOR.size):
            np.testing.assert_allclose(
                jac[i], numeric_gradient(allocation, self.INTERIOR, i),
                rtol=1e-6, atol=1e-8)

    def test_overloaded_gradient_is_infinite(self):
        # Fair Share protects the low-rate users, so only the heavy
        # sender (whose own ladder class is unstable) sees inf.
        fs = FairShareAllocation()
        rates = np.array([0.2, 0.9, 0.3])      # total beyond capacity
        assert np.isinf(fs.gradient_i(rates, 1)[1])
        assert np.all(np.isfinite(fs.gradient_i(rates, 0)))

    def test_tied_rates_gradient(self):
        # Ties exercise the strict r_j < r_i split of the FS Jacobian.
        # C_i has a kink at exact ties, so the oracle here is the closed
        # form, not a finite difference straddling it: insularity makes
        # each tied row g'(N r) on the diagonal and 0 off it.
        fs = FairShareAllocation()
        rates = np.array([0.2, 0.2, 0.2])
        slope = fs.curve.derivative(0.6)
        for i in range(3):
            np.testing.assert_allclose(fs.gradient_i(rates, i),
                                       slope * np.eye(3)[i],
                                       rtol=1e-12, atol=1e-9)


class TestGenericFallback:
    """The default rows (one ``congestion_many`` batch per round over
    the base's row loop) must stay bit-identical to the scalar loop."""

    class Halving(AllocationFunction):
        name = "halving-stub"

        def congestion(self, rates):
            r = np.asarray(rates, dtype=float)
            return r / (2.0 - np.sum(r)) if np.sum(r) < 2.0 else \
                np.full(r.size, np.inf)

    def test_default_grid_bit_identical(self):
        stub = self.Halving()
        rates = np.array([0.4, 0.6, 0.2])
        xs = np.linspace(0.0, 2.5, 13)
        grid = stub.congestion_grid(rates, 1, xs)
        oracle = scalar_grid(stub, rates, 1, xs)
        assert np.array_equal(grid, oracle)

    def test_default_many_bit_identical(self):
        stub = self.Halving()
        batch = np.array([[0.1, 0.2, 0.3], [1.0, 0.9, 0.5]])
        many = stub.congestion_many(batch)
        rows = np.stack([stub.congestion(row) for row in batch])
        assert np.array_equal(many, rows)


#: SHA-256 prefixes of the evaluator outputs below, recorded before the
#: evaluators moved from boolean gather/scatter to masked ufuncs and
#: gained row-wise class forms.  The M/M/1 curve needs only IEEE
#: arithmetic, so any drift in an evaluator's last bit moves them.
EVALUATOR_DIGESTS = {
    "fair-share": "3941626b4b7efb75",
    "fifo": "409bef3a6bbb55a8",
    "separable": "0c78dc4982f55459",
    "priority": "6d752aaa05f8310c",
    "stalling-pivot": "e5ae309f6ff22435",
}


class TestEvaluatorDigests:
    """Class deviation and multi-user grid evaluators, bit for bit.

    The class profiles hold singleton classes (their deviator empties
    the class), tied rates and an overloaded ladder; the candidates
    run past capacity.
    """

    @pytest.mark.parametrize("name", sorted(EVALUATOR_DIGESTS))
    def test_outputs_unchanged(self, name):
        allocation = make_discipline(name)
        digest = hashlib.sha256()
        xs = np.concatenate((np.linspace(1e-6, 0.6, 25),
                             [0.05, 0.1, 0.2, 0.3, 0.45, 0.95, 1.5]))
        for c, m in (([0.05, 0.1, 0.2], [1, 3, 2]),
                     ([0.1, 0.1, 0.05, 0.3], [2, 1, 1, 1]),
                     ([0.2, 0.45], [2, 1]), ([0.07], [1])):
            for include_self in (False, True):
                for i in range(len(c)):
                    evaluate = allocation.class_deviation_evaluator(
                        c, m, i, include_self=include_self)
                    digest.update(evaluate(xs).tobytes())
        for rates in ([0.1, 0.2, 0.05], [0.1, 0.1, 0.3, 0.05],
                      [0.3, 0.45, 0.2]):
            users = list(range(len(rates)))[::-1]
            rows = allocation.grid_evaluator(rates, users)(
                np.tile(xs, (len(users), 1)))
            digest.update(rows.tobytes())
        assert digest.hexdigest()[:16] == EVALUATOR_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(EVALUATOR_DIGESTS))
    def test_class_rows_equal_one_row_evaluators(self, name):
        allocation = make_discipline(name)
        c, m = [0.1, 0.1, 0.05, 0.3], [2, 1, 1, 3]
        xs = np.linspace(1e-6, 0.6, 25)
        grid = np.stack([xs + 0.01 * b for b in range(4)])
        for include_self in (False, True):
            rows = allocation.class_deviation_rows(
                c, m, [3, 1, 0, 2], include_self=include_self)(grid)
            for b, i in enumerate([3, 1, 0, 2]):
                one = allocation.class_deviation_evaluator(
                    c, m, i, include_self=include_self)(grid[b])
                assert rows[b].tobytes() == one.tobytes()


#: The five closed forms (priority in both orders) and a discipline on
#: the base class's expand-to-N default.
CLASS_ROW_NAMES = ["fair-share", "fifo", "priority", "priority-descending",
                   "separable", "stalling-pivot", "weighted-proportional"]

#: Class rates and candidates are multiples of this, so every load
#: either form sums is exact: both agree on which candidates overload.
LATTICE = 1.0 / 64


@st.composite
def class_row_cases(draw):
    """K 1-4 classes of 1-3 members at lattice rates up to 1/8 (ties
    and singleton classes are common), rows for any of the classes in
    any order, and lattice candidates up to 1.25 plus the class rates
    themselves."""
    k = draw(st.integers(1, 4))
    rates = LATTICE * np.asarray(draw(st.lists(
        st.integers(1, 8), min_size=k, max_size=k)), dtype=float)
    counts = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    classes = draw(st.lists(st.integers(0, k - 1), min_size=1,
                            max_size=k + 1))
    xs = LATTICE * np.asarray(draw(st.lists(
        st.integers(0, 80), min_size=1, max_size=8)), dtype=float)
    return (rates, counts, classes, draw(st.booleans()),
            np.concatenate((xs, rates)), draw(st.sampled_from(
                CLASS_ROW_NAMES)))


class TestClassRowsMatchPerUser:
    """Row ``b`` of ``class_deviation_rows`` is the per-user definition:
    ``congestion_i`` of a member of class ``classes[b]`` moved to the
    candidate on the expanded N-vector, or, with ``include_self``, of
    an extra user appended to the full profile."""

    @given(case=class_row_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_deviating_member(self, case):
        rates, counts, classes, include_self, xs, name = case
        expanded = np.repeat(rates, counts)
        if include_self:
            expanded = np.append(expanded, 0.0)
        if name == "weighted-proportional":
            allocation = WeightedProportionalAllocation(
                np.ones(expanded.size))
        else:
            allocation = make_discipline(name)
        rows = allocation.class_deviation_rows(
            rates, counts, classes, include_self=include_self)(
                np.tile(xs, (len(classes), 1)))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        for b, i in enumerate(classes):
            deviator = expanded.size - 1 if include_self else int(starts[i])
            assert_matches(rows[b],
                           scalar_grid(allocation, expanded, deviator, xs))

