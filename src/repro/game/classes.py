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

Each class-space round — the map, its certificate and the mean-field
twins in :mod:`repro.game.meanfield` — is one K-row grid zoom
(:func:`~repro.numerics.optimize.grid_maximize_rows`) over the
discipline's row-wise
:meth:`~repro.disciplines.base.AllocationFunction.class_deviation_rows`
and :func:`~repro.users.families.value_grid_rows`.  A lone
:func:`class_best_response` is the same zoom with one row, so results
and ``solver.*`` counts equal the per-class calls bit for bit.  An
exception from the row evaluator propagates.

Results are *certified twice*: in class space (the max class deviation
gain, exact for the full game by symmetry) and by expansion — a
bounded number of per-user :func:`~repro.game.best_response
.utility_improvement` spot checks against the expanded N-vector,
scored in one batched call, which exercise the completely independent
per-user evaluation path.

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
from scipy import optimize as sp_optimize

from repro.disciplines.base import check_classes, expand_class_rates
from repro.disciplines.parametric import WeightedProportionalAllocation
from repro.exceptions import DisciplineError
from repro.game.best_response import _improvements, _zoom_rows
from repro.numerics.iterate import damped_fixed_point
from repro.numerics.optimize import ScalarMaxResult
from repro.users.utility import Utility


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
        if self.members is None:
            return np.repeat(values, self.counts_array())
        out = np.empty(self.n_users)
        for k, indices in enumerate(self.members):
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
    if not profile:
        raise ValueError("profile must contain at least one utility")
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
        Whether the damped fixed point met its tolerance.
    iterations:
        Fixed-point iterations used.
    max_gain:
        Largest class-space deviation gain — by symmetry this *is*
        the max unilateral gain over all N users (certificate).
    spot_gain:
        Largest gain among the expanded per-user spot checks
        (``nan`` when certification was skipped); computed through
        the independent per-user evaluation path.
    method:
        Solver tag (``"class-space"``).
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

    def _scatter(self, values: np.ndarray) -> np.ndarray:
        if self.members is None:
            return np.repeat(values, self.counts)
        out = np.empty(self.n_users)
        for k, indices in enumerate(self.members):
            out[list(indices)] = values[k]
        return out

    def expand_rates(self) -> np.ndarray:
        """The equilibrium as a full per-user rate vector."""
        return self._scatter(self.class_rates)

    def expand_congestion(self) -> np.ndarray:
        """Per-user congestion at the equilibrium."""
        return self._scatter(self.class_congestion)

    def expand_utilities(self) -> np.ndarray:
        """Per-user utility levels at the equilibrium."""
        return self._scatter(self.class_utilities)

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

    Class space treats the members of a class as interchangeable, so a
    map whose congestion depends on user order is refused here, the
    one entry of every class-space and mean-field solver.
    """
    if isinstance(allocation, WeightedProportionalAllocation):
        raise DisciplineError(
            "weighted-proportional congestion depends on user order "
            "(each user position carries its own weight), so the "
            "members of a class are not interchangeable; solve per "
            "user with repro.game.nash.solve_nash")
    if counts is None:
        detected = detect_classes(profile)
        return detected.utilities, detected.counts_array(), detected.members
    utilities = tuple(profile)
    counts_arr = np.asarray(counts, dtype=int)
    if counts_arr.ndim != 1 or counts_arr.size != len(utilities):
        raise ValueError(
            f"counts must be 1-D of length {len(utilities)}, got shape "
            f"{counts_arr.shape}")
    if counts_arr.size and int(counts_arr.min()) < 1:
        raise ValueError(f"class counts must be positive, got {counts_arr}")
    return utilities, counts_arr, None


def _default_class_start(allocation, counts: np.ndarray) -> np.ndarray:
    """Equal split at 50% load — :func:`repro.game.nash.default_start`
    collapsed to class space."""
    n_users = int(counts.sum())
    capacity = getattr(getattr(allocation, "curve", None), "capacity",
                       math.inf)
    level = capacity if math.isfinite(capacity) else 1.0
    return np.full(counts.size, 0.5 * level / n_users)


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
    c, m = check_classes(class_rates, counts)
    if len(utilities) != c.size:
        raise ValueError(
            f"{len(utilities)} utilities for {c.size} classes")
    congestion = allocation.class_congestion(c, m)
    out = np.empty(c.size)
    for k, utility in enumerate(utilities):
        if not math.isfinite(float(congestion[k])):
            out[k] = 1e6
            continue
        ratio = utility.marginal_ratio(float(c[k]), float(congestion[k]))
        out[k] = ratio + allocation.class_own_derivative(c, m, k)
    return out


def solve_nash_classes_fdc(allocation, profile: Sequence[Utility],
                           counts: Optional[Sequence[int]] = None,
                           r0: Optional[Sequence[float]] = None,
                           tol: float = 1e-10,
                           certify_users: int = 1) -> ClassNashResult:
    """Root-find the class-space Nash first-derivative conditions.

    The K-dimensional twin of :func:`repro.game.nash.solve_nash_fdc`:
    Newton-quality precision where the damped best-response iteration
    is limited by the flat-objective noise floor of derivative-free
    maximization (~``sqrt(eps)`` on rates).  As in the per-user
    solver, every root is re-certified with actual best responses; use
    ``r0`` (typically a :func:`solve_nash_classes` result) to select
    the basin when equilibria are not unique.
    """
    utilities, counts_arr, members = _resolve_classes(
        allocation, profile, counts)
    _, m = check_classes(np.zeros(counts_arr.size), counts_arr)
    start = (_default_class_start(allocation, m) if r0 is None
             else np.asarray(r0, dtype=float))

    def residuals(c: np.ndarray) -> np.ndarray:
        return class_fdc_residuals(allocation, utilities, np.abs(c), m)

    solution = sp_optimize.root(residuals, start, method="hybr",
                                options={"xtol": tol})
    class_rates = np.abs(np.asarray(solution.x, dtype=float))
    converged = bool(solution.success) and bool(np.all(class_rates > 0.0))
    congestion = allocation.class_congestion(class_rates, m)
    class_utilities = np.asarray(
        [utility.value(float(class_rates[k]), float(congestion[k]))
         for k, utility in enumerate(utilities)], dtype=float)
    max_gain = _class_gains(allocation, utilities, class_rates, m,
                            class_utilities)
    spot_gain = math.nan
    if certify_users > 0:
        spot_gain = certify_expansion(allocation, utilities, class_rates,
                                      m, users_per_class=certify_users)
    return ClassNashResult(class_rates=class_rates,
                           class_congestion=congestion,
                           class_utilities=class_utilities,
                           counts=m, converged=converged,
                           iterations=int(solution.nfev),
                           max_gain=max_gain, spot_gain=spot_gain,
                           method="fdc-root-class", members=members)


def solve_nash_classes(allocation, profile: Sequence[Utility],
                       counts: Optional[Sequence[int]] = None,
                       r0: Optional[Sequence[float]] = None,
                       damping: float = 0.5, tol: float = 1e-9,
                       max_iter: int = 400,
                       certify_users: int = 1) -> ClassNashResult:
    """Best-response iteration on the K-class reduced game.

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
    r0:
        K-dimensional starting point; defaults to the equal split at
        50% load, matching :func:`repro.game.nash.default_start` for
        the expanded game.
    certify_users:
        Per-user expansion spot checks per class (0 skips the
        expansion certificate; the class-space ``max_gain``
        certificate is always computed).

    From a class-symmetric start the iteration is the per-user
    :func:`~repro.game.nash.solve_nash` iteration on the expanded game
    restricted to class-symmetric points (the driver weights its
    extrapolation by ``counts``), so the result matches the exact
    solver to solver tolerance while doing O(K) work per step instead
    of O(N).
    """
    utilities, counts_arr, members = _resolve_classes(
        allocation, profile, counts)
    c0, m = check_classes(
        np.zeros(len(utilities)) if r0 is None else r0, counts_arr)
    if r0 is None:
        c0 = _default_class_start(allocation, m)

    def mapping(c: np.ndarray) -> np.ndarray:
        return class_best_response_map(allocation, utilities, c, m)

    outcome = damped_fixed_point(mapping, c0, damping=damping, tol=tol,
                                 max_iter=max_iter, weights=m)
    class_rates = np.asarray(outcome.x, dtype=float)
    congestion = allocation.class_congestion(class_rates, m)
    class_utilities = np.asarray(
        [utility.value(float(class_rates[k]), float(congestion[k]))
         for k, utility in enumerate(utilities)], dtype=float)
    max_gain = _class_gains(allocation, utilities, class_rates, m,
                            class_utilities)
    spot_gain = math.nan
    if certify_users > 0:
        spot_gain = certify_expansion(allocation, utilities, class_rates,
                                      m, users_per_class=certify_users)
    return ClassNashResult(class_rates=class_rates,
                           class_congestion=congestion,
                           class_utilities=class_utilities,
                           counts=m, converged=outcome.converged,
                           iterations=outcome.iterations,
                           max_gain=max_gain, spot_gain=spot_gain,
                           method="class-space", members=members)
