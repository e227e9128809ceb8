"""Nash equilibrium computation.

Two complementary solvers, each with its twin in class space
(:mod:`repro.game.classes`):

* :func:`solve_nash` — Fair Share's equilibrium by construction, every
  other one by best-response iteration.  Fair Share is serial cost
  sharing, so its point is built in ascending-rate order, one zoom per
  utility class (:func:`repro.game.classes.serial_class_rates`), with
  no fixed-point iteration; the construction applies to
  :class:`~repro.disciplines.fair_share.FairShareAllocation` itself
  without ``r0``, and a constructed point that does not certify falls
  back to the iteration.  The iteration runs the shared fixed-point
  driver (:func:`repro.numerics.iterate.damped_fixed_point`): damped
  steps plus safeguarded Anderson extrapolation.  Globally robust;
  under Fair Share it converges from any start for any profile in AU
  (Theorem 5), the damped fallback handles FIFO's oscillatory
  coupling, and the extrapolation finishes the separable discipline's
  constant map in a few evaluations.
* :func:`solve_nash_fdc` — the one FDC root
  (:func:`repro.game.dynamics.fdc_root`) on the first-derivative
  conditions ``E_i(r) = M_i(r_i, C_i(r)) + dC_i/dr_i = 0``
  (:func:`repro.game.dynamics.fdc_residuals`).  Fast and precise near
  a solution; every root is re-certified with actual best responses
  before being reported.

The iteration and the root start from :func:`default_start` unless
given ``r0``; both solvers refuse an empty profile.

:func:`find_all_nash` runs multistart searches and clusters the
results — the experimental instrument behind the Theorem-4 uniqueness
study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.disciplines.fair_share import FairShareAllocation
from repro.game.best_response import (
    _capacity,
    _equal_split,
    _require_users,
    best_response_map,
    utility_improvements,
)
from repro.game.classes import (ClassProfile, detect_classes,
                                serial_class_rates)
from repro.game.dynamics import fdc_residuals, fdc_root
from repro.numerics.iterate import damped_fixed_point
from repro.numerics.rng import default_rng
from repro.users.utility import Utility

#: Population from which :func:`find_all_nash` seeds starts per class.
#: An N-dimensional Dirichlet concentrates as N grows
#: (every start degenerates to the equal split), so large-N multistart
#: needs the class structure to stay diverse.
CLASS_START_MIN_USERS = 100


@dataclass
class NashResult:
    """A computed Nash equilibrium candidate.

    Attributes
    ----------
    rates:
        Equilibrium rate vector.
    congestion:
        The induced congestion vector ``C(r)``.
    utilities:
        Per-user utility levels at the equilibrium.
    converged:
        Whether the solver met its tolerance (a construction that
        certified always has).
    iterations:
        Iterations used by the underlying solver: map or residual
        evaluations, or the construction's stages.
    max_gain:
        Largest unilateral utility improvement any user retains
        (certificate; ~0 at a true equilibrium).
    method:
        Which solver produced the point: ``"serial"`` (Fair Share's
        construction), ``"best-response"`` or ``"fdc-root"``.
    """

    rates: np.ndarray
    congestion: np.ndarray
    utilities: np.ndarray
    converged: bool
    iterations: int
    max_gain: float
    method: str

    def is_equilibrium(self, tol: float = 1e-6) -> bool:
        """Whether no user can gain more than ``tol`` by deviating."""
        return self.max_gain <= tol


def _certify(allocation, profile: Sequence[Utility],
             rates: np.ndarray) -> float:
    """Max unilateral gain over all users (equilibrium certificate)."""
    return float(max(utility_improvements(allocation, profile, rates)))


def _package(allocation, profile: Sequence[Utility], rates: np.ndarray,
             converged: bool, iterations: int, method: str) -> NashResult:
    congestion = allocation.congestion(rates)
    utilities = np.array([u.value(float(rates[i]), float(congestion[i]))
                          for i, u in enumerate(profile)])
    return NashResult(rates=np.asarray(rates, dtype=float),
                      congestion=congestion, utilities=utilities,
                      converged=converged, iterations=iterations,
                      max_gain=_certify(allocation, profile, rates),
                      method=method)


def default_start(n_users: int, allocation=None) -> np.ndarray:
    """A safe interior starting point (equal split at 50% load)."""
    return _equal_split(allocation, np.ones(n_users, dtype=int))


def _start(allocation, profile: Sequence[Utility],
           r0: Optional[Sequence[float]]) -> np.ndarray:
    """A per-user solve's start: ``r0``, else :func:`default_start`."""
    _require_users(profile)
    if r0 is None:
        return default_start(len(profile), allocation)
    return np.asarray(r0, dtype=float)


def solve_nash(allocation, profile: Sequence[Utility],
               r0: Optional[Sequence[float]] = None,
               tol: float = 1e-9, max_iter: int = 400) -> NashResult:
    """A Nash equilibrium: Fair Share's construction, else best-response
    iteration.

    Under :class:`~repro.disciplines.fair_share.FairShareAllocation`
    itself (not a subclass or a subsystem) and without ``r0``, the
    point is built: the profile's utility classes
    (:func:`~repro.game.classes.detect_classes`, so tied users get
    bitwise-equal rates) go through
    :func:`~repro.game.classes.serial_class_rates`, and the result has
    ``method="serial"`` and ``iterations`` the stages.  A constructed
    point whose ``max_gain`` exceeds ``tol`` is not returned: it
    counts as ``solver.serial_fallbacks`` and the iteration solves
    instead.  An explicit ``r0`` always iterates, so multistart
    searches keep their basins.

    The iteration starts with damped steps ``r <- (r + B(r)) / 2`` (the
    damping halves while the steps stall), with extrapolation between
    them; ``max_iter`` bounds the best-response maps evaluated
    (``iterations`` in the result).
    """
    if r0 is None and type(allocation) is FairShareAllocation:
        grouping = detect_classes(profile)
        class_rates, stages = serial_class_rates(
            allocation, grouping.utilities, grouping.counts_array())
        built = _package(allocation, profile, grouping.scatter(class_rates),
                         True, stages, method="serial")
        if built.max_gain <= tol:
            return built
        obs.add("solver.serial_fallbacks")

    def mapping(r: np.ndarray) -> np.ndarray:
        return best_response_map(allocation, profile, r)

    outcome = damped_fixed_point(mapping, _start(allocation, profile, r0),
                                 tol=tol, max_iter=max_iter)
    return _package(allocation, profile, outcome.x, outcome.converged,
                    outcome.iterations, method="best-response")


def solve_nash_fdc(allocation, profile: Sequence[Utility],
                   r0: Optional[Sequence[float]] = None) -> NashResult:
    """Root-find the Nash first-derivative conditions.

    ``E_i(r) = M_i(r_i, C_i(r)) + dC_i/dr_i``; a Nash equilibrium in
    the interior satisfies ``E = 0``.  The returned point carries its
    best-response certificate — for non-Fair-Share disciplines an FDC
    root need not be a global best response (Lemma 4 is specific to
    Fair Share), and the ``max_gain`` field exposes that.
    """
    rates, converged, evaluations = fdc_root(
        lambda r: fdc_residuals(allocation, profile, r),
        _start(allocation, profile, r0))
    return _package(allocation, profile, rates, converged, evaluations,
                    method="fdc-root")


def is_nash(allocation, profile: Sequence[Utility],
            rates: Sequence[float], tol: float = 1e-6) -> bool:
    """Certify ``rates`` as a Nash equilibrium by best responses."""
    r = np.asarray(rates, dtype=float)
    return _certify(allocation, profile, r) <= tol


def _class_seeded_start(generator: np.random.Generator,
                        grouping: ClassProfile,
                        max_total: float) -> np.ndarray:
    """One random start with class-level diversity.

    The total load and its split *across classes* come from
    low-dimensional draws (K-dim Dirichlet), so distinct starts place
    genuinely different masses on each utility class even at N=10^4;
    the split *within* a class is a further Dirichlet so the start is
    not artificially class-symmetric.
    """
    load = generator.uniform(0.05, max_total)
    totals = generator.dirichlet(np.ones(grouping.n_classes)) * load
    start = np.empty(grouping.n_users)
    for k, indices in enumerate(grouping.members):
        share = generator.dirichlet(np.ones(len(indices)))
        start[list(indices)] = totals[k] * share
    return start


def find_all_nash(allocation, profile: Sequence[Utility],
                  n_starts: int = 12,
                  rng: Optional[np.random.Generator] = None,
                  gain_tol: float = 1e-6,
                  distinct_tol: float = 1e-3) -> List[NashResult]:
    """Multistart equilibrium search with clustering.

    Runs best-response iteration (:func:`solve_nash`) from
    ``n_starts`` random interior points, keeps runs that certify as
    equilibria, and merges points closer than ``distinct_tol`` in sup
    norm.  Returns the distinct equilibria found (possibly empty if
    nothing certified).

    Starts are seeded per utility class (:func:`_class_seeded_start`)
    exactly when ``len(profile) >=`` :data:`CLASS_START_MIN_USERS` and
    the profile has fewer classes than users; otherwise they are flat
    N-dimensional Dirichlet draws.
    """
    _require_users(profile)
    generator = default_rng(rng if rng is not None else 0)
    n = len(profile)
    capacity = _capacity(allocation)
    max_total = 0.95 * capacity if math.isfinite(capacity) else 2.0
    grouping: Optional[ClassProfile] = None
    if n >= CLASS_START_MIN_USERS:
        grouping = detect_classes(profile)
        if grouping.n_classes >= n:
            grouping = None         # no symmetry to exploit
    found: List[NashResult] = []
    alpha = np.ones(n)
    for trial in range(n_starts):
        if grouping is not None:
            start = _class_seeded_start(generator, grouping, max_total)
        else:
            direction = generator.dirichlet(alpha)
            load = generator.uniform(0.05, max_total)
            start = direction * load
        result = solve_nash(allocation, profile, r0=start)
        if not result.is_equilibrium(gain_tol):
            continue
        duplicate = any(
            float(np.max(np.abs(result.rates - other.rates))) < distinct_tol
            for other in found)
        if not duplicate:
            found.append(result)
    return found
