"""Named test oracles: independent second paths the solvers must match.

* :func:`plain_damped_fixed_point` is the fixed-point driver before it
  extrapolated: the damped step ``x <- (1-d) x + d B(x)`` with adaptive
  halving, and nothing else.
* :func:`serial_nash` builds Fair Share's Nash equilibrium in ascending
  order, the way the serial cost-sharing equilibrium is built, with no
  fixed-point iteration at all.  A user's Fair Share congestion depends
  only on its own rate, the smaller rates and how many users send at
  least as much (insularity), so once the ``j - 1`` smallest rates are
  fixed, each remaining user's problem is one-dimensional.  It is the
  scalar twin of the solvers' own construction
  (``repro.game.classes.serial_class_rates``): one user per stage, by
  golden section.
* :func:`driver_nash` and :func:`driver_class_nash` are Fair Share's
  Nash point the way ``solve_nash`` and ``solve_nash_classes`` found it
  before they built it: ``damped_fixed_point`` over
  ``best_response_map`` or ``class_best_response_map`` from the equal
  split, certified as the solvers certify.  Any discipline goes.
* :func:`scalar_best_response` and :func:`scalar_nash` are the best
  response and ``solve_nash`` by golden section: a scan of
  ``congestion_i`` point by point, refined by
  ``multistart_maximize``, iterated by the repository's
  ``damped_fixed_point`` from ``default_start`` and certified by the
  same scan.  Every solver best-responds through batched grid-zoom
  rows instead.
* :func:`meanfield_fixed_point` is the mean-field equilibrium by
  damped best-response iteration: ``damped_fixed_point`` over the
  batched class map under the ``include_self=True`` closure, weighted
  by the class counts, from the solvers' equal-split start.
  ``solve_nash_meanfield`` roots the first-derivative conditions of the
  same closure instead.
* :func:`payoff_table_loop`, :func:`coalition_scan_loop` and
  :func:`worst_case_loop` are the elimination, coalition and
  adversarial scans point by point: congestion one profile at a time,
  in ``itertools.product`` order, each utility one ``Utility.value``
  call, the best point kept by a strict ``>``.  The scans batch every
  point in one ``congestion_many`` call and score it with
  ``value_grid``.
* :func:`numeric_gradient`, :func:`numeric_jacobian`,
  :func:`numeric_second_partial` and :func:`numeric_second_gradient`
  are central differences of ``congestion_i``, the references for every
  closed-form derivative row.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.game.best_response import (MIN_RATE, SCAN_POINTS, ZOOM_TOL,
                                      _count, _current_value,
                                      _default_rate_cap, _equal_split,
                                      _gain, best_response_map)
from repro.game.classes import (ClassNashResult, _class_outcome,
                                class_best_response_map)
from repro.game.nash import NashResult, _package, default_start
from repro.numerics import diff
from repro.numerics.iterate import FixedPointResult, damped_fixed_point
from repro.numerics.optimize import ScalarMaxResult, multistart_maximize
from repro.users.utility import Utility


def scalar_best_response(allocation, utility: Utility,
                         rates: Sequence[float], i: int) -> ScalarMaxResult:
    """User ``i``'s best response by golden section over
    ``congestion_i``, on the interval and to the tolerance of
    ``best_response``; counted in the ``solver.*`` counters."""
    base = np.array(rates, dtype=float)

    def objective(x: float) -> float:
        base[i] = x
        return utility.value(x, allocation.congestion_i(base, i))

    result = multistart_maximize(objective, MIN_RATE,
                                 _default_rate_cap(allocation),
                                 n_scan=SCAN_POINTS, tol=ZOOM_TOL)
    _count([result])
    return result


def scalar_nash(allocation, profile: Sequence[Utility]) -> NashResult:
    """``solve_nash`` with every best response a
    :func:`scalar_best_response`: the same driver, start and defaults,
    and ``max_gain`` the largest deviation gain that scan finds."""
    def mapping(r: np.ndarray) -> np.ndarray:
        return np.array([scalar_best_response(allocation, u, r, i).x
                         for i, u in enumerate(profile)])

    outcome = damped_fixed_point(
        mapping, default_start(len(profile), allocation), damping=0.5,
        tol=1e-9, max_iter=400)
    rates = np.asarray(outcome.x, dtype=float)
    congestion = allocation.congestion(rates)
    gains = [_gain(_current_value(allocation, u, rates, i),
                   scalar_best_response(allocation, u, rates, i))
             for i, u in enumerate(profile)]
    return NashResult(
        rates=rates, congestion=congestion,
        utilities=np.array([u.value(float(rates[i]), float(congestion[i]))
                            for i, u in enumerate(profile)]),
        converged=outcome.converged, iterations=outcome.iterations,
        max_gain=float(max(gains)), method="scalar-scan")


def driver_nash(allocation, profile: Sequence[Utility]) -> NashResult:
    """Per-user Nash by the fixed-point driver alone:
    ``damped_fixed_point`` over ``best_response_map`` from
    ``default_start`` at ``solve_nash``'s defaults (tol 1e-9, 400
    maps), packaged and certified by ``solve_nash``'s own
    ``_package``."""
    outcome = damped_fixed_point(
        lambda r: best_response_map(allocation, profile, r),
        default_start(len(profile), allocation), tol=1e-9, max_iter=400)
    return _package(allocation, profile, outcome.x, outcome.converged,
                    outcome.iterations, method="best-response")


def driver_class_nash(allocation, utilities: Sequence[Utility],
                      counts: Sequence[int]) -> ClassNashResult:
    """Class-space Nash by the fixed-point driver alone:
    ``damped_fixed_point`` over ``class_best_response_map``, weighted by
    the class counts, from the equal split at ``solve_nash_classes``'
    defaults, with both of its certificates."""
    m = np.asarray(counts, dtype=int)
    outcome = damped_fixed_point(
        lambda c: class_best_response_map(allocation, utilities, c, m),
        _equal_split(allocation, m), tol=1e-9, max_iter=400, weights=m)
    return _class_outcome(allocation, utilities, outcome.x, m, None,
                          outcome.converged, outcome.iterations,
                          "class-space")


def meanfield_fixed_point(allocation, utilities: Sequence[Utility],
                          counts: Sequence[int]) -> FixedPointResult:
    """The mean-field class rates by damped best-response iteration
    (``x``, ``converged``, ``iterations`` of ``damped_fixed_point``'s
    result)."""
    m = np.asarray(counts, dtype=int)

    def mapping(c: np.ndarray) -> np.ndarray:
        return class_best_response_map(allocation, utilities, c, m,
                                       include_self=True)

    return damped_fixed_point(mapping, _equal_split(allocation, m),
                              damping=0.5, tol=1e-9, max_iter=400,
                              weights=m)


def payoff_table_loop(allocation, profile: Sequence[Utility],
                      grids: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``game.learning._payoff_table`` point by point."""
    points = np.array(list(itertools.product(*grids)), dtype=float)
    congestion = np.stack([allocation.congestion(row) for row in points])
    shapes = tuple(len(g) for g in grids)
    return [np.array([profile[i].value(r, c)
                      for r, c in zip(points[:, i].tolist(),
                                      congestion[:, i].tolist())]
                     ).reshape(shapes)
            for i in range(len(grids))]


def coalition_scan_loop(allocation, profile: Sequence[Utility],
                        rates: Sequence[float], members: Sequence[int],
                        grid_points: int = 9, span: float = 0.5
                        ) -> Tuple[float, np.ndarray]:
    """``(gain, joint)`` of ``game.coalitions.coalition_gain``'s grid
    stage point by point: the first joint deviation whose worst member
    gains most, if that gain is positive."""
    base = np.asarray(rates, dtype=float)
    members = list(members)
    base_c = allocation.congestion(base)
    base_u = [profile[m].value(float(base[m]), float(base_c[m]))
              for m in members]
    grids = [np.unique(np.concatenate((np.linspace(
        max(base[m] * (1.0 - span), 1e-6), base[m] * (1.0 + span) + 0.02,
        grid_points), [base[m]]))) for m in members]
    joints = np.array(list(itertools.product(*grids)), dtype=float)
    candidates = np.tile(base, (joints.shape[0], 1))
    candidates[:, members] = np.maximum(joints, 1e-6)
    congestion = np.stack([allocation.congestion(row)
                           for row in candidates])
    best_gain, best_joint = 0.0, base[members].copy()
    for b, joint in enumerate(joints):
        values = [profile[m].value(float(candidates[b, m]),
                                   float(congestion[b, m]))
                  for m in members]
        gains = [v - u for v, u in zip(values, base_u)]
        finite = all(math.isfinite(v) for v in values)
        gain = min(gains) if finite else -1e9
        if gain > best_gain:
            best_gain, best_joint = gain, joint
    return best_gain, best_joint


def worst_case_loop(allocation, i: int, own_rate: float, n_users: int,
                    rng: np.random.Generator, n_samples: int,
                    opponent_cap: float = 2.0) -> Tuple[float, np.ndarray]:
    """``(C_i, opponents)`` of ``game.protection.worst_case_congestion``'s
    sampling stage point by point: one size ``n_users - 1`` draw per
    sample."""
    worst_value, worst_opponents = -math.inf, np.zeros(n_users - 1)
    for _ in range(n_samples):
        opponents = rng.uniform(0.0, opponent_cap, size=n_users - 1)
        value = allocation.congestion_i(
            np.insert(np.abs(opponents), i, own_rate), i)
        if value > worst_value:
            worst_value, worst_opponents = value, opponents
    return worst_value, worst_opponents


def plain_damped_fixed_point(mapping: Callable[[np.ndarray], np.ndarray],
                             x0: Sequence[float], damping: float = 0.5,
                             tol: float = 1e-10, max_iter: int = 500):
    """``(x, converged, iterations)`` of the plain damped iteration."""
    x = np.asarray(x0, dtype=float).copy()
    d = damping
    last_residual = math.inf
    stall = 0
    for iteration in range(1, max_iter + 1):
        target = np.asarray(mapping(x), dtype=float)
        residual = float(np.max(np.abs(target - x)))
        if residual < tol:
            return x, True, iteration
        if residual >= last_residual * 0.999:
            stall += 1
            if stall >= 3 and d > 1.0 / 64.0:
                d *= 0.5
                stall = 0
        else:
            stall = 0
        last_residual = residual
        x = (1.0 - d) * x + d * target
    return x, False, max_iter


def serial_nash(allocation, profile: Sequence[Utility]) -> np.ndarray:
    """Fair Share's Nash rates, one ascending stage per user.

    With the ``j - 1`` smallest rates fixed (sum ``S``, the last fixed
    user's congestion ``c`` and ``G = g`` at its breakpoint), each of
    the ``m`` remaining users maximizes
    ``U_i(x, c + (g(S + m x) - G) / m)`` over ``x`` at or above the last
    fixed rate; the smallest maximizer is fixed next.  Rates are floored
    at ``MIN_RATE``, as best responses are.
    """
    curve = allocation.curve
    r_max = _default_rate_cap(allocation)
    rates = np.empty(len(profile))
    remaining = list(range(len(profile)))
    total, congestion, g_fixed, floor = 0.0, 0.0, 0.0, MIN_RATE
    while remaining:
        m = len(remaining)

        def stage_congestion(x: float) -> float:
            load = total + m * x
            if load >= curve.capacity:
                return math.inf
            return congestion + (curve.value(load) - g_fixed) / m

        choices = [multistart_maximize(
            lambda x, u=profile[i]: u.value(x, stage_congestion(x)),
            floor, r_max, n_scan=65, tol=1e-12).x for i in remaining]
        pick = int(np.argmin(choices))
        x = max(choices[pick], floor)
        rates[remaining.pop(pick)] = x
        congestion = stage_congestion(x)
        g_fixed = curve.value(total + m * x)
        total += x
        floor = x
    return rates


def numeric_gradient(allocation, rates: Sequence[float],
                     i: int) -> np.ndarray:
    """``dC_i/dr_j`` over ``j`` by central differences of
    ``congestion_i``."""
    r = np.asarray(rates, dtype=float)
    return diff.gradient(lambda x: allocation.congestion_i(x, i), r)


def numeric_jacobian(allocation, rates: Sequence[float]) -> np.ndarray:
    """``J[i, j] = dC_i/dr_j`` by central differences."""
    r = np.asarray(rates, dtype=float)
    return np.stack([numeric_gradient(allocation, r, i)
                     for i in range(r.size)])


def numeric_second_partial(allocation, rates: Sequence[float], i: int,
                           j: int) -> float:
    """``d^2 C_i/dr_i dr_j`` by central differences."""
    r = np.asarray(rates, dtype=float)
    return diff.second_partial(lambda x: allocation.congestion_i(x, i), r,
                               i, j)


def numeric_second_gradient(allocation, rates: Sequence[float],
                            i: int) -> np.ndarray:
    """``d^2 C_i/dr_i dr_j`` over ``j`` by central differences."""
    r = np.asarray(rates, dtype=float)
    return np.array([numeric_second_partial(allocation, r, i, j)
                     for j in range(r.size)])
