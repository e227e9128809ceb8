"""Named test oracles: independent second paths the solvers must match.

* :func:`plain_damped_fixed_point` is the fixed-point driver before it
  extrapolated: the damped step ``x <- (1-d) x + d B(x)`` with adaptive
  halving, and nothing else.
* :func:`serial_nash` builds Fair Share's Nash equilibrium in ascending
  order, the way the serial cost-sharing equilibrium is built, with no
  fixed-point iteration at all.  A user's Fair Share congestion depends
  only on its own rate, the smaller rates and how many users send at
  least as much (insularity), so once the ``j - 1`` smallest rates are
  fixed, each remaining user's problem is one-dimensional.
* :class:`ScalarOnly` wraps an allocation so that every solver takes
  its scalar path: the golden-section scan over ``congestion_i`` and
  the point-by-point loops of the adversarial searches.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.game.best_response import MIN_RATE, _default_rate_cap
from repro.numerics.optimize import multistart_maximize
from repro.users.utility import Utility


class ScalarOnly:
    """``allocation`` with every attribute forwarded, except that it
    reports no one-pass grid (``vectorized_grid`` is False)."""

    vectorized_grid = False

    def __init__(self, allocation) -> None:
        self.allocation = allocation

    def __getattr__(self, name: str):
        return getattr(self.allocation, name)


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
