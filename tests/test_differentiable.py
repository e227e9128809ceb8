"""The value and derivative contract of every congestion map.

A congestion map writes one full-profile value form, ``congestion`` or
the batched ``congestion_many``, and the base derives the other, with
``congestion_i``, ``__call__`` and ``congestion_grid``.  It writes two
rows per user, ``gradient_i`` (``dC_i/dr_j`` over ``j``) and
``second_gradient_i`` (``d^2 C_i/dr_i dr_j`` over ``j``);
``own_derivative``, ``cross_derivative``, ``jacobian``,
``own_second_derivative`` and ``mixed_second_derivative`` read them.

* :data:`CONGESTION_DIGESTS` pins the values, and
  :data:`DERIVATIVE_DIGESTS` the five derivative hooks, bit for bit on
  profiles with ties and overload, for every discipline, a subsystem of
  each and a three-switch network.
* The generated tests hold every map's rows to the finite-difference
  oracles of :mod:`tests.oracles`, every hook to its row entry, every
  value view to the written form, and the default candidate rows (the
  network's, weighted-proportional sharing's and their subsystems') to
  ``congestion_i``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disciplines.base import AllocationFunction, Differentiable
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.disciplines.registry import available_disciplines, make_discipline
from repro.network.model import NetworkAllocation
from tests.oracles import numeric_gradient, numeric_second_gradient


def _network():
    """Three switches of different disciplines and speeds; the routes
    list their switches in index order."""
    return NetworkAllocation(
        [make_discipline("fair-share"), make_discipline("fifo"),
         make_discipline("priority")],
        [[0], [0, 1], [1, 2], [0, 1, 2], [0, 2]], speeds=[1.0, 1.25, 0.8])


def _make(name, n):
    """The discipline ``name`` for an ``n``-user profile."""
    if name == "weighted-proportional":
        return WeightedProportionalAllocation(np.linspace(0.5, 2.0, n))
    return make_discipline(name)


#: Interior, tied, six-user and overloaded profiles.  The network has
#: five users, so it sees the five-user profiles only.
DIGEST_PROFILES = (
    [0.05, 0.12, 0.2],
    [0.1, 0.1, 0.05, 0.25],
    [0.04, 0.3, 0.08, 0.3, 0.11],
    [0.05, 0.12, 0.2, 0.08, 0.02, 0.3],
    [0.2, 0.5, 0.1, 0.35],
    [0.3, 0.45, 0.2, 0.1, 0.25],
)

HOOKS = ("own_derivative", "cross_derivative", "jacobian",
         "own_second_derivative", "mixed_second_derivative")


def _hook_values(subject, rates, hook):
    """Every value of one hook at ``rates`` as a float array."""
    n = len(rates)
    method = getattr(subject, hook)
    if hook == "jacobian":
        return np.asarray(method(rates), dtype=float)
    if hook.startswith("own"):
        return np.array([method(rates, i) for i in range(n)], dtype=float)
    return np.array([[method(rates, i, j) for j in range(n)]
                     for i in range(n)], dtype=float)


def _subject_cases(label):
    """``(subject, rates)`` pairs for one digest subject."""
    if label == "network":
        return [(_network(), np.array(r)) for r in DIGEST_PROFILES
                if len(r) == 5]
    name, _, sub = label.partition("|")
    cases = []
    for profile in DIGEST_PROFILES:
        r = np.array(profile)
        allocation = _make(name, r.size)
        if sub:
            cases.append((allocation.subsystem({1: r[1]}), np.delete(r, 1)))
        else:
            cases.append((allocation, r))
    return cases


def derivative_digests(label):
    """One SHA-256 prefix per hook, over every case of ``label``."""
    digests = []
    for hook in HOOKS:
        digest = hashlib.sha256()
        with np.errstate(invalid="ignore", divide="ignore"):
            for subject, rates in _subject_cases(label):
                digest.update(_hook_values(subject, rates, hook).tobytes())
        digests.append(digest.hexdigest()[:16])
    return tuple(digests)


#: SHA-256 prefixes of the five hooks, in :data:`HOOKS` order,
#: recorded while each discipline still wrote every hook by hand.
#: ``cross_derivative`` and ``jacobian`` hash the same matrix.  The one
#: entry recorded since is the stalling pivot's mixed second
#: derivative, whose hand-written form was wrong off the diagonal
#: (``g''(S) - g''(S - r_i)``, recorded as ``19ac2d2f08c7263f``; the
#: mixed partial is ``g''(S)``).
DERIVATIVE_DIGESTS = {
    "fair-share": ("4eb34c4cab577d4e", "f7c106c6c0f2e26b",
                   "f7c106c6c0f2e26b", "720cc4c5d19d39b3",
                   "22e11971bc3f9271"),
    "fair-share|fixed": ("aa443a1b8ad17b16", "f1b2c00d157f0fa9",
                         "f1b2c00d157f0fa9", "0e7c5f297013b750",
                         "243965a9db7b1ddf"),
    "fifo": ("fe71c9b5646ab642", "65d20c2467a41177", "65d20c2467a41177",
             "097f6cce3313e2e6", "9f8931cf0b25a9ca"),
    "fifo|fixed": ("62b7dde3239f90a4", "989bdc48ba7723cd",
                   "989bdc48ba7723cd", "0e1933992cf9c802",
                   "6445f3671bcd83e1"),
    "network": ("81bbe28e34f3dd34", "fad80ab225122d90", "fad80ab225122d90",
                "b9bb12487c93d1ea", "5d58f4edf8499b75"),
    "priority": ("1c8320207a746c69", "bec1078ac0aceee3",
                 "bec1078ac0aceee3", "536fb7399ebbd52d",
                 "00151f48fa2c8f8d"),
    "priority|fixed": ("46353c84274cb4f9", "416a68290ac11c13",
                       "416a68290ac11c13", "639c7460161cc8c5",
                       "579d4cb2e9863376"),
    "separable": ("f8b85bda4f542f5e", "076d816acf22fdc6",
                  "076d816acf22fdc6", "df74c7b3e975fd97",
                  "bfa7746ce2647ba1"),
    "separable|fixed": ("143516301295f540", "ad252c10932cb8d6",
                        "ad252c10932cb8d6", "b8e460931d5c5ce0",
                        "767f690b6d54d3e0"),
    "stalling-pivot": ("9d56058e5452d110", "281d6d7a63b4c178",
                       "281d6d7a63b4c178", "1848874c10ea8976",
                       "0593f028d164f7d0"),
    "stalling-pivot|fixed": ("46f7531131093e2e", "579f40261481fd7d",
                             "579f40261481fd7d", "d0d5819aa681b9b1",
                             "96cc5af62d8ef89e"),
    "weighted-proportional": ("7c2f47789b2ee256", "88389aa1a9f58bee",
                              "88389aa1a9f58bee", "99a12ff39e7a7464",
                              "8f5233235e548640"),
    "weighted-proportional|fixed": ("69f5d8fa7e876781", "94fb2f92b06dd62f",
                                    "94fb2f92b06dd62f", "15f6474b3f29f923",
                                    "daf9298cc9136cee"),
}


class TestDerivativeDigests:
    @pytest.mark.parametrize("label", sorted(DERIVATIVE_DIGESTS))
    def test_hooks_unchanged(self, label):
        assert derivative_digests(label) == DERIVATIVE_DIGESTS[label]


#: Class-symmetric profiles: singleton classes, tied class rates and an
#: overloaded one.
CLASS_PROFILES = (([0.05, 0.1, 0.2], [1, 3, 2]),
                  ([0.1, 0.1, 0.05, 0.3], [2, 1, 1, 1]),
                  ([0.2, 0.45], [2, 1]), ([0.07], [1]),
                  ([0.12, 0.2, 0.03], [2, 3, 1]))

#: Own-rate candidates for ``congestion_grid``, zero and past capacity
#: included.
CANDIDATES = np.concatenate((np.linspace(0.0, 0.6, 13), [0.1, 0.95, 1.5]))

VALUES = ("congestion", "congestion_i", "congestion_many",
          "congestion_grid", "class_congestion")


def _values(subject, rates, method):
    """Every value of one view at ``rates`` as a float array; the batch
    holds the profile reversed, halved, overloaded and all at its top
    rate."""
    n = rates.size
    if method == "congestion":
        return np.concatenate((subject.congestion(rates), subject(rates)))
    if method == "congestion_i":
        return np.array([subject.congestion_i(rates, i) for i in range(n)])
    if method == "congestion_many":
        batch = np.stack((rates, rates[::-1], 0.5 * rates, 1.6 * rates,
                          np.full(n, rates.max())))
        return subject.congestion_many(batch)
    return np.stack([subject.congestion_grid(rates, i, CANDIDATES)
                     for i in range(n)])


def congestion_digests(label):
    """One SHA-256 prefix per value view, over every case of ``label``;
    ``None`` for a view the subject did not have when they were
    recorded (class congestion off the symmetric disciplines, a grid on
    the network)."""
    name, _, sub = label.partition("|")
    digests = []
    for method in VALUES:
        if (method == "class_congestion" and (sub or label == "network")
                or method == "congestion_grid" and label == "network"):
            digests.append(None)
            continue
        digest = hashlib.sha256()
        with np.errstate(invalid="ignore", divide="ignore"):
            if method == "class_congestion":
                for c, m in CLASS_PROFILES:
                    digest.update(_make(name, sum(m)).class_congestion(
                        c, m).tobytes())
            else:
                for subject, rates in _subject_cases(label):
                    digest.update(_values(subject, rates, method).tobytes())
        digests.append(digest.hexdigest()[:16])
    return tuple(digests)


#: SHA-256 prefixes of the five value views, in :data:`VALUES` order,
#: recorded while every discipline still wrote each view by hand.
CONGESTION_DIGESTS = {
    "fair-share": ("2ca193fc77e51ef3", "c1b0b805ab471e5c",
                   "5a2b3b999e1781c5", "eb2f3c95e49aca77",
                   "d1049791ddca31ed"),
    "fair-share|fixed": ("ecec2dc9b96d486a", "9da0abd0d2473815",
                         "d358c1c53434b8f8", "a8cb713d2fc4bb9c", None),
    "fifo": ("0a5e02f0fed2fef0", "8081cbc9568a526b", "4992b50d794a17a7",
             "a92cb51033510e13", "55e0408e0fdc967f"),
    "fifo|fixed": ("0c36f0c63ce15a1a", "b727fd62565aa637",
                   "dc9992078fdd5ff5", "2cdd679b2dd4763c", None),
    "network": ("5a3944d0a564371c", "cdee4dbfb4945a96",
                "904a2d0338d0b615", None, None),
    "priority": ("657076f981bb520a", "8344cf9cf4511064",
                 "0d94c89a537378aa", "a16b22469e73cbe9",
                 "033d0511d068d9a4"),
    "priority-descending": ("9222a8a0c6453d94", "509d7d052386d02b",
                            "265790539e473380", "fa4d2dd1d7bd2af4",
                            "2846ad4c701254c6"),
    "priority-descending|fixed": ("d66c2d396ae52800", "defbd452fe851ed5",
                                  "af87573bc7fcb9ff", "4eacd9a52e139462",
                                  None),
    "priority|fixed": ("994a593e8bca9401", "ea4c45b0e1d3260e",
                       "e7fad7b3253f4171", "a766b34cfaae188c", None),
    "separable": ("bebf868054d76b2d", "aa9d464273b0022c",
                  "a8b2dfcc56e43368", "31bae07c686ef4f5",
                  "5381103ebeef16ef"),
    "separable|fixed": ("bdeb19e95c981199", "0d43819a0f498dbf",
                        "05c2dd2493e36579", "89dab19dd0e7f4ce", None),
    "stalling-pivot": ("ee79d997c486479e", "5c04be0c77d06499",
                       "8b6bff37bf0f94be", "beaa595321603060",
                       "beda881e1f4b5e08"),
    "stalling-pivot|fixed": ("0db8630f1e155f38", "742dbeafccfbbfed",
                             "3fa30a8481d96391", "364fb74e0f003cf8", None),
    "weighted-proportional": ("6d1ab9ecd469ac1b", "cff84573ca3d7cb4",
                              "48e4bee344121204", "0cbfe9adcc86bd71",
                              "02add4db17bd7d6a"),
    "weighted-proportional|fixed": ("870251c854d8a601", "5673265070c13539",
                                    "1a0a1f3bdffeb2b2", "6477ceac721a986a",
                                    None),
}


class TestCongestionDigests:
    @pytest.mark.parametrize("label", sorted(CONGESTION_DIGESTS))
    def test_values_unchanged(self, label):
        assert congestion_digests(label) == CONGESTION_DIGESTS[label]


#: Every registered discipline, the weighted-proportional family and
#: the network, and a subsystem of each (one user frozen).
CONTRACT_LABELS = sorted(
    label for name in (*available_disciplines(), "weighted-proportional",
                       "network")
    for label in (name, f"{name}|fixed"))

#: The maps that write no rows of their own, so their rows are the
#: base's default, ``point_rows``, a subsystem's its parent's.
DEFAULT_ROW_LABELS = [label for label in CONTRACT_LABELS
                      if label.partition("|")[0] in
                      ("network", "weighted-proportional")]


@st.composite
def contract_cases(draw, max_load, labels=CONTRACT_LABELS):
    """A congestion map and a profile loading the busiest switch to at
    most ``max_load`` (a subsystem's frozen user counted), with rates
    far enough apart that no finite difference straddles a tie."""
    label = draw(st.sampled_from(labels))
    load = draw(st.floats(0.1, max_load))
    name, _, sub = label.partition("|")
    n = 5 if name == "network" else draw(st.integers(2, 5)) + bool(sub)
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    rates = np.cumsum(gaps)[list(order)]
    if name == "network":
        subject = _network()
        loads = [rates[m].sum() / s
                 for m, s in zip(subject.members, subject.speeds)]
        rates *= load / max(loads)
    else:
        rates *= load / rates.sum()
        subject = _make(name, n)
    if sub:
        return subject.subsystem({0: rates[0]}), rates[1:]
    return subject, rates


class TestRowsAndHooks:
    @given(case=contract_cases(max_load=0.8))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_numeric_oracles(self, case):
        subject, rates = case
        for i in range(rates.size):
            np.testing.assert_allclose(
                subject.gradient_i(rates, i),
                numeric_gradient(subject, rates, i), rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(
                subject.second_gradient_i(rates, i),
                numeric_second_gradient(subject, rates, i),
                rtol=1e-4, atol=1e-6)

    @given(case=contract_cases(max_load=1.4))
    @settings(max_examples=40, deadline=None)
    def test_hooks_read_their_rows_bitwise(self, case):
        """Also past capacity, where a numeric row may hold inf or nan."""
        subject, rates = case
        n = rates.size
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = np.stack([subject.gradient_i(rates, i)
                             for i in range(n)])
            second = np.stack([subject.second_gradient_i(rates, i)
                               for i in range(n)])
            hooks = {hook: _hook_values(subject, rates, hook)
                     for hook in HOOKS}
        assert hooks["jacobian"].tobytes() == rows.tobytes()
        assert hooks["cross_derivative"].tobytes() == rows.tobytes()
        assert hooks["own_derivative"].tobytes() == \
            np.diag(rows).tobytes()
        assert hooks["mixed_second_derivative"].tobytes() == \
            second.tobytes()
        assert hooks["own_second_derivative"].tobytes() == \
            np.diag(second).tobytes()


class TestValueViews:
    @given(case=contract_cases(max_load=1.4))
    @settings(max_examples=40, deadline=None)
    def test_views_read_the_written_form_bitwise(self, case):
        """``congestion``, ``__call__``, ``congestion_i`` and each row of
        ``congestion_many`` agree bit for bit, also past capacity."""
        subject, rates = case
        batch = np.stack((rates[::-1], rates, 0.5 * rates))
        full = subject.congestion(rates)
        assert subject(rates).tobytes() == full.tobytes()
        assert subject.congestion_many(batch)[1].tobytes() == full.tobytes()
        assert np.array([subject.congestion_i(rates, i)
                         for i in range(rates.size)]).tobytes() == \
            full.tobytes()
        for b, row in enumerate(batch):
            assert subject.congestion_many(batch)[b].tobytes() == \
                subject.congestion(row).tobytes()

    @given(case=contract_cases(max_load=1.4))
    @settings(max_examples=40, deadline=None)
    def test_singleton_class_rows_are_the_per_user_rows(self, case):
        """Rows of a class profile with every count one are the per-user
        rows, bit for bit.  FIFO and the pivot are left out: their
        class rows sum the opponents with ``np.dot``, which rounds
        differently from their per-user sums."""
        subject, rates = case
        if not isinstance(subject, AllocationFunction) or \
                subject.name in ("proportional", "stalling-pivot"):
            return
        users = list(range(rates.size))[::-1]
        xs = np.tile(np.concatenate((CANDIDATES, rates)), (rates.size, 1))
        rows = subject.class_deviation_rows(
            rates, np.ones(rates.size, dtype=int), users)(xs)
        assert subject.grid_evaluator(rates, users)(xs).tobytes() == \
            rows.tobytes()

    @given(case=contract_cases(max_load=1.4, labels=DEFAULT_ROW_LABELS))
    @settings(max_examples=40, deadline=None)
    def test_default_rows_are_congestion_i(self, case):
        """Entry ``[b, k]`` of the default rows is ``congestion_i`` of
        user ``users[b]`` moved to candidate ``k``, bit for bit, also
        past capacity."""
        subject, rates = case
        users = list(range(rates.size))[::-1]
        xs = np.tile(np.concatenate((CANDIDATES, rates)), (rates.size, 1))
        rows = subject.grid_evaluator(rates, users)(xs)
        for b, i in enumerate(users):
            moved = rates.copy()
            points = []
            for x in xs[b]:
                moved[i] = x
                points.append(subject.congestion_i(moved, i))
            assert rows[b].tobytes() == np.array(points).tobytes()


class _Neither(AllocationFunction):
    """A discipline that writes no value form."""

    name = "neither"


class _NeitherMap(Differentiable):
    """A congestion map that writes no value form."""


class TestMissingValueForm:
    @pytest.mark.parametrize("cls", [_Neither, _NeitherMap])
    def test_every_value_view_raises_type_error(self, cls):
        subject = cls()
        rates = [0.1, 0.2]
        calls = (lambda: subject.congestion(rates), lambda: subject(rates),
                 lambda: subject.congestion_i(rates, 0),
                 lambda: subject.congestion_many([rates]))
        for call in calls:
            with pytest.raises(TypeError, match="congestion or "
                                                "congestion_many"):
                call()
