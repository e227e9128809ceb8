"""Best responses: one user's optimal rate against fixed opponents.

The paper's users are selfish: user ``i`` varies ``r_i`` to maximize
``U_i(r_i, C_i(r |^i r_i))`` with the other rates held fixed.  The
objective is smooth inside the stable region and drops to ``-inf``
where the user's own congestion diverges, so a coarse scan followed
by local refinement is both robust and accurate.

Every congestion map answers through one path: a best response is a
handful of batched grid-zoom rounds
(:func:`~repro.numerics.optimize.grid_maximize_rows`) over the map's
row evaluator, a :data:`SCAN_POINTS`-point scan of
``[MIN_RATE, cap]`` and zoom rounds down to :data:`ZOOM_TOL`.  The
simultaneous map :func:`best_response_map` and the certificate
:func:`utility_improvements` run one zoom for *all* N users: each
round is one multi-user ``grid_evaluator`` pass and one row-wise
utility pass (a columnar one for a profile of one parametric family),
and a lone :func:`best_response` is the same zoom with one row, so a
row's result does not depend on the other rows.  A map without rows
of its own (a ``NetworkAllocation``, weighted proportional sharing)
scores a round through the default
:func:`~repro.disciplines.base.point_rows`, one ``congestion_many``
batch.  The class-space solvers batch their K classes the same way,
and their expansion certificate scores its spot-check users through
the same batched call.  An exception from the evaluator propagates.
Every best response adds its evaluation counts to the ``solver.*``
counters of :mod:`repro.obs`, counted per user.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Sized

import numpy as np

import repro.obs as obs
from repro.numerics.optimize import ScalarMaxResult, grid_maximize_rows
from repro.users.families import value_grid_rows
from repro.users.utility import Utility

#: Smallest rate a user will consider (the paper requires ``r_i > 0``).
MIN_RATE = 1e-6

#: Points of the coarse scan that opens every best response.
SCAN_POINTS = 65

#: Bracket width at which a best response's zoom stops.
ZOOM_TOL = 1e-11


def _capacity(allocation) -> float:
    """The capacity pole of the allocation's service curve: ``inf`` for
    pole-free constraints and for maps that carry no curve at all."""
    return getattr(getattr(allocation, "curve", None), "capacity",
                   math.inf)


def _default_rate_cap(allocation) -> float:
    """Upper end of the rate interval a user searches.

    For curves with a capacity pole (M/M/1), rates at or beyond capacity
    are never optimal (own congestion is infinite), so the pole bounds
    the search.  For pole-free constraints (the separable world) or
    allocations that do not carry a service curve at all, we use a
    generous fixed cap; utilities in AU eventually punish congestion
    enough to keep optima interior.
    """
    capacity = _capacity(allocation)
    if math.isfinite(capacity):
        return capacity * (1.0 - 1e-6)
    return 4.0


def _require_users(profile: Sized) -> None:
    """Refuse an empty profile (or class counts), at the entry of every
    Nash solver."""
    if len(profile) == 0:
        raise ValueError("profile must contain at least one utility")


def _equal_split(allocation, counts: np.ndarray) -> np.ndarray:
    """Every solver's default start: half the capacity (1 without a
    pole) split equally among all users, one entry per class of
    ``counts`` users (per user when every count is one)."""
    _require_users(counts)
    capacity = _capacity(allocation)
    level = capacity if math.isfinite(capacity) else 1.0
    return np.full(len(counts), 0.5 * level / int(np.sum(counts)))


def _count(results: Sequence[ScalarMaxResult]) -> None:
    """Add best responses' evaluations to the ``solver.*`` counters."""
    evaluations = sum(result.evaluations for result in results)
    obs.add("solver.objective_evals", evaluations)
    obs.add("solver.congestion_evals", evaluations)
    obs.add("solver.grid_calls",
            sum(result.grid_calls for result in results))


def best_response(allocation, utility: Utility, rates: Sequence[float],
                  i: int) -> ScalarMaxResult:
    """Maximize user ``i``'s utility along its own rate axis.

    Row ``i`` of :func:`best_response_map`: a one-row grid zoom over
    the map's ``grid_evaluator``, searching ``[MIN_RATE, cap]`` with
    the cap just under the capacity pole.

    Parameters
    ----------
    allocation:
        A congestion map (:class:`~repro.disciplines.base.Differentiable`).
    utility:
        User ``i``'s utility.
    rates:
        Current full rate vector; entry ``i`` is ignored.
    """
    return _best_responses(allocation, [utility], rates, users=[i])[0]


def _best_responses(allocation, profile: Sequence[Utility],
                   rates: Sequence[float],
                   users: Optional[Sequence[int]] = None
                   ) -> List[ScalarMaxResult]:
    """Every user's :func:`best_response` against the same ``rates``.

    ``profile[b]`` is the utility of user ``users[b]`` (by default
    user ``b``: the whole population).  The maximizations run as one
    row-wise zoom (:func:`~repro.numerics.optimize.grid_maximize_rows`):
    each round is one multi-user ``grid_evaluator`` call plus one
    :func:`~repro.users.families.value_grid_rows` pass, and row ``b``
    does exactly the arithmetic of user ``users[b]``'s one-row zoom,
    so results and ``solver.*`` counts equal the per-user ones bit for
    bit.  A batched Fair Share round holds every user's opponent
    tables, O(N^2) floats; per-user solves past a few thousand users
    belong in class space (:mod:`repro.game.classes`) anyway.
    """
    r = np.asarray(rates, dtype=float)
    rows = range(len(profile)) if users is None else users
    return _zoom_rows(allocation.grid_evaluator(r, rows), profile,
                      allocation)


def _zoom_rows(evaluate, utilities: Sequence[Utility], allocation,
               lo: float = MIN_RATE) -> List[ScalarMaxResult]:
    """One row-wise zoom: row ``b`` maximizes ``utilities[b]`` over the
    congestion ``evaluate`` gives its row, on ``[lo, cap]``; counted
    per row."""
    values = value_grid_rows(utilities)
    results = grid_maximize_rows(lambda xs: values(xs, evaluate(xs)),
                                 len(utilities), lo,
                                 _default_rate_cap(allocation),
                                 n_scan=SCAN_POINTS, tol=ZOOM_TOL)
    _count(results)
    return results


def best_response_map(allocation, profile: Sequence[Utility],
                      rates: Sequence[float]) -> np.ndarray:
    """Simultaneous best responses: ``B(r)_i = argmax_x U_i(x, C_i)``.

    Fixed points of this map are exactly the Nash equilibria.
    """
    r = np.asarray(rates, dtype=float)
    if len(profile) != r.size:
        raise ValueError(
            f"profile has {len(profile)} utilities for {r.size} rates")
    results = _best_responses(allocation, profile, r)
    return np.array([result.x for result in results], dtype=float)


def _current_value(allocation, utility: Utility, r: np.ndarray,
                   i: int) -> float:
    """User ``i``'s utility at ``r`` (one counted evaluation)."""
    value = utility.value(float(r[i]), allocation.congestion_i(r, i))
    obs.add("solver.objective_evals")
    obs.add("solver.congestion_evals")
    return value


def _gain(current: float, best: ScalarMaxResult) -> float:
    """Deviation gain; 0 when the user is stuck at ``-inf`` either way."""
    if math.isinf(current) and math.isinf(best.value):
        return 0.0
    return best.value - current


def utility_improvement(allocation, utility: Utility,
                        rates: Sequence[float], i: int) -> float:
    """How much user ``i`` could gain by deviating unilaterally.

    Zero (up to solver tolerance) at a Nash equilibrium.  Used as the
    equilibrium certificate because rate-space distance is a bad metric
    when the objective is flat.  Counts toward the ``solver.*``
    counters, so ``is_nash``/certification cost shows up in the
    ``[solver]`` totals rather than being invisible.
    """
    r = np.asarray(rates, dtype=float)
    current = _current_value(allocation, utility, r, i)
    return _gain(current, best_response(allocation, utility, r, i))


def utility_improvements(allocation, profile: Sequence[Utility],
                         rates: Sequence[float]) -> List[float]:
    """:func:`utility_improvement` for every user of ``profile``.

    Each user's current value is evaluated as in the one-user call;
    the best responses run batched, as in :func:`best_response_map`.
    """
    return _improvements(allocation, profile, rates, range(len(profile)))


def _improvements(allocation, utilities: Sequence[Utility],
                  rates: Sequence[float],
                  users: Sequence[int]) -> List[float]:
    """:func:`utility_improvement` of user ``users[b]`` with utility
    ``utilities[b]``, for every ``b``, the best responses batched."""
    r = np.asarray(rates, dtype=float)
    currents = [_current_value(allocation, utility, r, i)
                for i, utility in zip(users, utilities)]
    bests = _best_responses(allocation, utilities, r, users=users)
    return [_gain(current, best) for current, best in zip(currents, bests)]
