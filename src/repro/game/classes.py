"""Symmetry-class Nash solving: the K-class reduction of the N-user game.

Profiles of interest contain a handful of *distinct* utility types;
because acceptable allocations are symmetric under user permutation
(Section 2), the N-user game collapses to a K-class game with
multiplicities.  Starting from a class-symmetric point, simultaneous
best responses preserve the symmetry — every member of a class faces
the same deviation problem — so the best-response iteration of
:func:`repro.game.nash.solve_nash` runs on the K-dimensional reduced
game.  That is what :func:`solve_nash_classes` does: the same
fixed-point driver, its extrapolation weighted by the class counts so
each step is the per-user step at a class-symmetric point, and the
same grid-zoom maximizer, with congestion evaluated
through the O(K) class-space paths
(:meth:`~repro.disciplines.base.AllocationFunction.class_congestion`,
:meth:`~repro.disciplines.base.AllocationFunction.class_deviation_rows`),
making exact equilibria tractable at N=10^4+ where the per-user
solver's O(N) inner loop is prohibitive.

Fair Share needs no iteration: :func:`serial_class_rates` builds its
equilibrium in ascending-rate order, one zoom per class, and both
:func:`solve_nash_classes` and :func:`repro.game.nash.solve_nash` take
that construction for
:class:`~repro.disciplines.fair_share.FairShareAllocation` itself,
falling back to the iteration when a constructed point does not
certify.

:func:`solve_nash_classes_fdc` roots the class-space first-derivative
conditions through the one FDC root,
:func:`repro.game.dynamics.fdc_root`; the mean-field limit
(:mod:`repro.game.meanfield`) is the same root under the
``include_self=True`` closure.  All three solvers make their result
in one function.

Each class-space round — the map and the certificate of every solver
here and in :mod:`repro.game.meanfield` — is one K-row grid zoom
(:func:`~repro.numerics.optimize.grid_maximize_rows`) over the
discipline's row-wise
:meth:`~repro.disciplines.base.AllocationFunction.class_deviation_rows`
and :func:`~repro.users.families.value_grid_rows`.  A lone
:func:`class_best_response` is the same zoom with one row, so results
and ``solver.*`` counts equal the per-class calls bit for bit.  An
exception from the row evaluator propagates.

Results are *certified twice*: in class space (the max class deviation
gain, exact for the full game by symmetry) and by expansion — one
per-user :func:`~repro.game.best_response.utility_improvement` spot
check per class against the expanded N-vector, scored in one batched
call, which exercises the completely independent per-user evaluation
path.

Per-user O(N) loops do not belong in this module; the GW107
staticcheck rule enforces that.  The expansion certificate's bounded
spot-check users go through one batched per-user call, outside any
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.disciplines.base import check_classes, expand_class_rates
from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.exceptions import DisciplineError
from repro.game.best_response import (MIN_RATE, _equal_split,
                                      _improvements, _require_users,
                                      _zoom_rows)
from repro.game.dynamics import fdc_root
from repro.numerics.iterate import damped_fixed_point
from repro.numerics.optimize import ScalarMaxResult
from repro.users.utility import Utility

#: The serial construction's counter, ``solver.<name>`` in
#: :mod:`repro.obs`, shown after the driver's on the ``[solver]`` line:
#: a constructed Fair Share point whose certificate missed ``tol``, so
#: the fixed-point driver solved instead.
SERIAL_COUNTERS = ("serial_fallbacks",)


@dataclass(frozen=True)
class ClassProfile:
    """A partition of N users into K utility classes.

    Attributes
    ----------
    utilities:
        One representative utility per class.
    counts:
        Users per class (positive).
    members:
        Original user indices per class when the partition was
        detected from a per-user profile (:func:`detect_classes`);
        ``None`` when the profile was specified directly in class
        form.  Expansion uses it to restore the original user order.
    """

    utilities: Tuple[Utility, ...]
    counts: Tuple[int, ...]
    members: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if len(self.utilities) != len(self.counts):
            raise ValueError(
                f"{len(self.utilities)} utilities for "
                f"{len(self.counts)} counts")
        if any(int(m) < 1 for m in self.counts):
            raise ValueError(f"class counts must be positive, "
                             f"got {self.counts}")
        if self.members is not None:
            if len(self.members) != len(self.counts):
                raise ValueError("members does not match classes")
            if any(len(idx) != int(m)
                   for idx, m in zip(self.members, self.counts)):
                raise ValueError("members does not match counts")

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def n_users(self) -> int:
        return int(sum(self.counts))

    def counts_array(self) -> np.ndarray:
        """The multiplicities as an integer array."""
        return np.asarray(self.counts, dtype=int)

    def scatter(self, class_values: Sequence[float]) -> np.ndarray:
        """Per-user vector from per-class values.

        Original user order when :attr:`members` is known, class-block
        order otherwise.
        """
        values = np.asarray(class_values, dtype=float)
        if values.size != self.n_classes:
            raise ValueError(
                f"expected {self.n_classes} class values, "
                f"got {values.size}")
        return _scatter(values, self.counts_array(), self.members)


def _scatter(values: np.ndarray, counts: np.ndarray,
             members: Optional[Tuple[Tuple[int, ...], ...]]
             ) -> np.ndarray:
    """Per-user vector from per-class ``values``: in original user
    order when ``members`` is known, class-block order otherwise."""
    if members is None:
        return np.repeat(values, counts)
    out = np.empty(int(np.sum(counts)))
    for k, indices in enumerate(members):
        out[list(indices)] = values[k]
    return out


def _utility_key(utility: Utility) -> Tuple[object, ...]:
    """A hashable identity key grouping exactly-equal utilities."""
    try:
        attrs = vars(utility)
    except TypeError:                       # __slots__ or builtins
        attrs = {}
    items: List[Tuple[str, object]] = []
    for name in sorted(attrs):
        value = attrs[name]
        if isinstance(value, Utility):
            items.append((name, _utility_key(value)))
        else:
            items.append((name, repr(value)))
    return (type(utility).__module__, type(utility).__qualname__,
            tuple(items))


def detect_classes(profile: Sequence[Utility]) -> ClassProfile:
    """Group a per-user profile into utility classes.

    Users whose utilities are of the same type with identical
    parameters share a class; classes are ordered by first appearance,
    and the returned :attr:`ClassProfile.members` remembers each
    user's original index so expanded results come back in input
    order.
    """
    _require_users(profile)
    groups: Dict[Tuple[object, ...], int] = {}
    utilities: List[Utility] = []
    members: List[List[int]] = []
    for index, utility in enumerate(profile):
        key = _utility_key(utility)
        slot = groups.get(key)
        if slot is None:
            slot = len(utilities)
            groups[key] = slot
            utilities.append(utility)
            members.append([])
        members[slot].append(index)
    return ClassProfile(
        utilities=tuple(utilities),
        counts=tuple(len(idx) for idx in members),
        members=tuple(tuple(idx) for idx in members))


def class_best_response(allocation, utility: Utility,
                        class_rates: Sequence[float],
                        counts: Sequence[int], i: int,
                        include_self: bool = False) -> ScalarMaxResult:
    """Best response of one member of class ``i`` in class space.

    The same scan + grid-zoom maximization as
    :func:`repro.game.best_response.best_response`, with congestion
    evaluated through the O(K)
    :meth:`~repro.disciplines.base.AllocationFunction
    .class_deviation_rows`: the one-row case of the batched class map
    (:func:`class_best_response_map`).
    """
    return _class_best_responses(allocation, [utility], class_rates,
                                 counts, include_self=include_self,
                                 classes=[i])[0]


def _class_best_responses(allocation, utilities: Sequence[Utility],
                          class_rates: Sequence[float],
                          counts: Sequence[int],
                          include_self: bool = False,
                          classes: Optional[Sequence[int]] = None
                          ) -> List[ScalarMaxResult]:
    """Every class's :func:`class_best_response` against ``class_rates``.

    ``utilities[b]`` is the utility of class ``classes[b]`` (by
    default class ``b``: every class).  The maximizations run as one
    row-wise zoom (:func:`~repro.numerics.optimize.grid_maximize_rows`):
    each round is one :meth:`~repro.disciplines.base.AllocationFunction
    .class_deviation_rows` call plus one
    :func:`~repro.users.families.value_grid_rows` pass, and row ``b``
    does exactly the arithmetic of class ``classes[b]``'s one-row
    zoom, so results and ``solver.*`` counts equal the per-class ones
    bit for bit.
    """
    rows = range(len(utilities)) if classes is None else classes
    return _zoom_rows(allocation.class_deviation_rows(
        class_rates, counts, rows, include_self=include_self), utilities,
        allocation)


def class_best_response_map(allocation, utilities: Sequence[Utility],
                            class_rates: Sequence[float],
                            counts: Sequence[int],
                            include_self: bool = False) -> np.ndarray:
    """Simultaneous class best responses ``B(c)_k``.

    Fixed points are exactly the class-symmetric Nash equilibria of
    the expanded game (``include_self=False``) or the mean-field
    equilibria (``include_self=True``).  The K best responses run as
    one batched zoom (:func:`_class_best_responses`).
    """
    c, m = check_classes(class_rates, counts)
    if len(utilities) != c.size:
        raise ValueError(
            f"{len(utilities)} utilities for {c.size} classes")
    results = _class_best_responses(allocation, utilities, c, m,
                                    include_self=include_self)
    return np.array([result.x for result in results], dtype=float)


@dataclass
class ClassNashResult:
    """A class-space Nash equilibrium candidate.

    Attributes
    ----------
    class_rates / class_congestion / class_utilities:
        Per-class equilibrium values (each member of class ``k``
        sends ``class_rates[k]``).
    counts:
        Users per class.
    converged:
        Whether the damped fixed point met its tolerance, the FDC
        root converged to positive rates, or the construction
        finished (always).
    iterations:
        Map evaluations of the fixed point, residual evaluations of
        the root, or stages of the construction.
    max_gain:
        Largest class-space deviation gain — by symmetry this *is*
        the max unilateral gain over all N users (certificate).
    spot_gain:
        Largest gain among the expanded per-user spot checks, one
        member per class; computed through the independent per-user
        evaluation path.
    method:
        Solver tag: ``"serial"`` (Fair Share's construction),
        ``"class-space"``, ``"fdc-root-class"`` or ``"mean-field"``.
    members:
        Original user indices per class when known (see
        :class:`ClassProfile`).
    """

    class_rates: np.ndarray
    class_congestion: np.ndarray
    class_utilities: np.ndarray
    counts: np.ndarray
    converged: bool
    iterations: int
    max_gain: float
    spot_gain: float
    method: str
    members: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def n_users(self) -> int:
        return int(self.counts.sum())

    def expand_rates(self) -> np.ndarray:
        """The equilibrium as a full per-user rate vector."""
        return _scatter(self.class_rates, self.counts, self.members)

    def expand_congestion(self) -> np.ndarray:
        """Per-user congestion at the equilibrium."""
        return _scatter(self.class_congestion, self.counts, self.members)

    def expand_utilities(self) -> np.ndarray:
        """Per-user utility levels at the equilibrium."""
        return _scatter(self.class_utilities, self.counts, self.members)

    def is_equilibrium(self, tol: float = 1e-6) -> bool:
        """Whether no user can gain more than ``tol`` by deviating."""
        return self.max_gain <= tol


def _class_gains(allocation, utilities: Sequence[Utility],
                 class_rates: np.ndarray, counts: np.ndarray,
                 class_utilities: np.ndarray,
                 include_self: bool = False) -> float:
    """Max class-space deviation gain (the reduced-game certificate),
    the K best responses batched as in :func:`class_best_response_map`."""
    worst = -math.inf
    bests = _class_best_responses(allocation, utilities, class_rates,
                                  counts, include_self=include_self)
    for best, current in zip(bests, np.asarray(class_utilities,
                                               dtype=float).tolist()):
        if math.isinf(current) and math.isinf(best.value):
            gain = 0.0
        else:
            gain = best.value - current
        worst = max(worst, gain)
    return worst


def certify_expansion(allocation, utilities: Sequence[Utility],
                      class_rates: Sequence[float],
                      counts: Sequence[int],
                      users_per_class: int = 1) -> float:
    """Exact per-user spot checks of an expanded class equilibrium.

    Expands the class rates to the full N-vector and measures the
    unilateral :func:`~repro.game.best_response.utility_improvement`
    of up to ``users_per_class`` members of every class against it —
    the per-user evaluation path end to end, independent of the
    class-space formulas.  The spot-check users' best responses run
    as one batched zoom, each equal to its lone call bit for bit.
    Returns the largest gain observed.
    """
    c, m = check_classes(class_rates, counts)
    expanded = expand_class_rates(c, m)
    starts = np.concatenate(([0], np.cumsum(m)[:-1]))
    users: List[int] = []
    checked: List[Utility] = []
    # A bounded spot check: users_per_class members of each of K
    # classes, never O(N).
    for k, utility in enumerate(utilities):
        for j in range(min(int(users_per_class), int(m[k]))):
            users.append(int(starts[k]) + j)
            checked.append(utility)
    worst = -math.inf
    for gain in _improvements(allocation, checked, expanded, users):
        worst = max(worst, gain)
    return worst


def _resolve_classes(allocation, profile: Sequence[Utility],
                     counts: Optional[Sequence[int]]
                     ) -> Tuple[Tuple[Utility, ...], np.ndarray,
                                Optional[Tuple[Tuple[int, ...], ...]]]:
    """Normalize a per-user or class-form profile to class form.

    The one entry of every class-space and mean-field solver.  Class
    space treats the members of a class as interchangeable, so a map
    whose congestion depends on user order is refused here, as is an
    empty profile.
    """
    if isinstance(allocation, WeightedProportionalAllocation):
        raise DisciplineError(
            "weighted-proportional congestion depends on user order "
            "(each user position carries its own weight), so the "
            "members of a class are not interchangeable; solve per "
            "user with repro.game.nash.solve_nash")
    _require_users(profile)
    if counts is None:
        detected = detect_classes(profile)
        return detected.utilities, detected.counts_array(), detected.members
    utilities = tuple(profile)
    counts_arr = np.asarray(counts, dtype=int)
    if counts_arr.ndim != 1 or counts_arr.size != len(utilities):
        raise ValueError(
            f"counts must be 1-D of length {len(utilities)}, got shape "
            f"{counts_arr.shape}")
    if int(counts_arr.min()) < 1:
        raise ValueError(f"class counts must be positive, got {counts_arr}")
    return utilities, counts_arr, None


def _class_outcome(allocation, utilities: Sequence[Utility],
                   class_rates: np.ndarray, counts: np.ndarray,
                   members: Optional[Tuple[Tuple[int, ...], ...]],
                   converged: bool, iterations: int,
                   method: str) -> ClassNashResult:
    """A class-space solve's result, certified against the *exact*
    game whatever closure found the point: the class-space gain
    (:func:`_class_gains`) and one expanded per-user spot check per
    class (:func:`certify_expansion`).  At a mean-field point the
    residual gain a real, self-excluded user retains is the mean-field
    error expressed in utility."""
    congestion = allocation.class_congestion(class_rates, counts)
    class_utilities = np.asarray(
        [utility.value(float(class_rates[k]), float(congestion[k]))
         for k, utility in enumerate(utilities)], dtype=float)
    return ClassNashResult(
        class_rates=class_rates, class_congestion=congestion,
        class_utilities=class_utilities, counts=counts,
        converged=converged, iterations=iterations,
        max_gain=_class_gains(allocation, utilities, class_rates, counts,
                              class_utilities),
        spot_gain=certify_expansion(allocation, utilities, class_rates,
                                    counts),
        method=method, members=members)


def _fdc_residuals(allocation, utilities: Sequence[Utility],
                   class_rates: Sequence[float], counts: Sequence[int],
                   include_self: bool) -> np.ndarray:
    """Class-space FDC residuals under either closure: the body of
    :func:`class_fdc_residuals` (``include_self=False``) and
    :func:`repro.game.meanfield.meanfield_fdc_residuals` (``True``).
    A class with infinite congestion has no residual (``nan``), as in
    :func:`repro.game.dynamics.fdc_residuals`."""
    c, m = check_classes(class_rates, counts)
    if len(utilities) != c.size:
        raise ValueError(
            f"{len(utilities)} utilities for {c.size} classes")
    congestion = allocation.class_congestion(c, m)
    out = np.empty(c.size)
    for k, utility in enumerate(utilities):
        if not math.isfinite(float(congestion[k])):
            out[k] = math.nan
            continue
        ratio = utility.marginal_ratio(float(c[k]), float(congestion[k]))
        out[k] = ratio + allocation.class_own_derivative(
            c, m, k, include_self=include_self)
    return out


def class_fdc_residuals(allocation, utilities: Sequence[Utility],
                        class_rates: Sequence[float],
                        counts: Sequence[int]) -> np.ndarray:
    """Nash first-derivative-condition residuals in class space.

    Entry ``k`` is ``E_k = M_k(s_k, C_k) + dC/dx`` for one member of
    class ``k`` deviating — zero at an interior class-symmetric Nash
    equilibrium.  The slope comes from
    :meth:`~repro.disciplines.base.AllocationFunction
    .class_own_derivative` (analytic for the core families), so the
    residual costs O(K) per call.
    """
    return _fdc_residuals(allocation, utilities, class_rates, counts,
                          include_self=False)


def _class_root(allocation, profile: Sequence[Utility],
                counts: Optional[Sequence[int]],
                r0: Optional[Sequence[float]], include_self: bool,
                method: str) -> ClassNashResult:
    """The FDC root (:func:`~repro.game.dynamics.fdc_root`) of the
    class form under one closure: the exact game
    (:func:`solve_nash_classes_fdc`) or the mean-field limit
    (:func:`repro.game.meanfield.solve_nash_meanfield`)."""
    utilities, m, members = _resolve_classes(allocation, profile, counts)
    start = (_equal_split(allocation, m) if r0 is None
             else np.asarray(r0, dtype=float))
    class_rates, converged, evaluations = fdc_root(
        lambda c: _fdc_residuals(allocation, utilities, c, m,
                                 include_self=include_self), start)
    return _class_outcome(allocation, utilities, class_rates, m, members,
                          converged, evaluations, method)


def solve_nash_classes_fdc(allocation, profile: Sequence[Utility],
                           counts: Optional[Sequence[int]] = None,
                           r0: Optional[Sequence[float]] = None
                           ) -> ClassNashResult:
    """Root-find the class-space Nash first-derivative conditions.

    The K-dimensional twin of :func:`repro.game.nash.solve_nash_fdc`:
    Newton-quality precision where the damped best-response iteration
    is limited by the flat-objective noise floor of derivative-free
    maximization (~``sqrt(eps)`` on rates).  As in the per-user
    solver, every root is re-certified with actual best responses; use
    ``r0`` (typically a :func:`solve_nash_classes` result) to select
    the basin when equilibria are not unique.
    """
    return _class_root(allocation, profile, counts, r0,
                       include_self=False, method="fdc-root-class")


def _stage_rows(curve, users: float, total: float, congestion: float,
                g_fixed: float):
    """One stage of :func:`serial_class_rates`: the congestion of a
    rate ``x`` at or above every fixed rate, shared with the ``users``
    left, ``c + (g(S + m x) - G) / m``, for every candidate row."""
    def evaluate(xs: np.ndarray) -> np.ndarray:
        return congestion + (curve.values(total + users * xs)
                             - g_fixed) / users

    return evaluate


def serial_class_rates(allocation: FairShareAllocation,
                       utilities: Sequence[Utility],
                       counts: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Fair Share's Nash class rates, built in ascending order.

    Fair Share is serial cost sharing of ``g``: a user's congestion
    depends only on its own rate, the smaller rates and how many users
    send at least as much, which is why its relaxation matrix is
    nilpotent (Theorem 7).  So its equilibrium is built one stage per
    class, with no fixed-point iteration.  With the classes of earlier
    stages fixed (rate mass ``S``, the last block's congestion ``c``
    and ``G``, the value of ``g`` at its load) and ``m`` users left,
    every class left maximizes ``U_k(x, c + (g(S + m x) - G) / m)``
    over ``[floor, cap]``, ``floor`` the last fixed rate
    (:data:`~repro.game.best_response.MIN_RATE` at first): row ``k``
    of one :func:`~repro.numerics.optimize.grid_maximize_rows` zoom,
    counted like any best response.  The class with the smallest
    maximizer (the first on a tie) is fixed next, every member at that
    rate; the stages climb the ladder of
    :meth:`~repro.disciplines.fair_share.FairShareAllocation
    .class_congestion`.

    Returns the class rates and the number of stages (one per class).
    The point is a Nash equilibrium where building in ascending order
    is a best response, as it is in AU; the solvers certify it.
    """
    m = np.asarray(counts, dtype=float)
    curve = allocation.curve
    rates = np.empty(m.size)
    left = list(range(m.size))
    users = float(m.sum())
    total = congestion = g_fixed = 0.0
    floor = MIN_RATE
    while left:
        results = _zoom_rows(
            _stage_rows(curve, users, total, congestion, g_fixed),
            [utilities[k] for k in left], allocation, lo=floor)
        pick = int(np.argmin([result.x for result in results]))
        k = left.pop(pick)
        floor = rates[k] = results[pick].x
        g_load = curve.value(total + users * floor)
        congestion += (g_load - g_fixed) / users
        g_fixed = g_load
        total += m[k] * floor
        users -= m[k]
    return rates, m.size


def solve_nash_classes(allocation, profile: Sequence[Utility],
                       counts: Optional[Sequence[int]] = None,
                       tol: float = 1e-9,
                       max_iter: int = 400) -> ClassNashResult:
    """Class-space Nash: Fair Share's construction, else best-response
    iteration on the K-class reduced game.

    Parameters
    ----------
    allocation:
        An allocation function exposing the class-space evaluation
        hooks (every discipline does; the five core families are
        O(K)).
    profile:
        Either a per-user profile (``counts is None``; classes are
        detected with :func:`detect_classes`) or one representative
        utility per class.
    counts:
        Users per class when ``profile`` is already in class form.

    Under :class:`~repro.disciplines.fair_share.FairShareAllocation`
    itself (not a subclass or a subsystem) the point is built, not
    iterated: :func:`serial_class_rates`, K stages of one zoom each,
    reported with ``method="serial"`` and ``iterations`` the stages.
    A constructed point whose ``max_gain`` or ``spot_gain`` exceeds
    ``tol`` is not returned: it counts as ``solver.serial_fallbacks``
    and the iteration below solves instead.

    Every other map iterates, starting at the equal split at 50% load,
    which is :func:`repro.game.nash.default_start` for the expanded
    game; from that class-symmetric start it is the per-user
    :func:`~repro.game.nash.solve_nash` iteration on the expanded game
    restricted to class-symmetric points (the driver weights its
    extrapolation by ``counts``), so the result matches the exact
    solver to solver tolerance while doing O(K) work per step instead
    of O(N).  Both certificates are computed: the class-space
    ``max_gain`` and one expanded per-user spot check per class
    (``spot_gain``).
    """
    utilities, m, members = _resolve_classes(allocation, profile, counts)
    if type(allocation) is FairShareAllocation:
        class_rates, stages = serial_class_rates(allocation, utilities, m)
        built = _class_outcome(allocation, utilities, class_rates, m,
                               members, True, stages, "serial")
        if built.max_gain <= tol and built.spot_gain <= tol:
            return built
        obs.add("solver.serial_fallbacks")

    def mapping(c: np.ndarray) -> np.ndarray:
        return class_best_response_map(allocation, utilities, c, m)

    outcome = damped_fixed_point(mapping, _equal_split(allocation, m),
                                 tol=tol, max_iter=max_iter, weights=m)
    return _class_outcome(allocation, utilities, outcome.x, m, members,
                          outcome.converged, outcome.iterations,
                          "class-space")
