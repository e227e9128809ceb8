"""Best responses: one user's optimal rate against fixed opponents.

The paper's users are selfish: user ``i`` varies ``r_i`` to maximize
``U_i(r_i, C_i(r |^i r_i))`` with the other rates held fixed.  The
objective is smooth inside the stable region and drops to ``-inf``
where the user's own congestion diverges, so a scan + golden-section
maximization is both robust and accurate.

When the discipline advertises a one-pass grid
(:attr:`~repro.disciplines.base.AllocationFunction.vectorized_grid`)
and the solver-vector switch is on, the scan and refinement run as a
handful of batched ``congestion_grid`` + ``value_grid`` calls instead
of ~100 scalar congestion evaluations — the core of the vectorized
solver path.  Every best response adds its evaluation counts to the
``solver.*`` counters of :mod:`repro.obs`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.numerics import instrumentation
from repro.numerics.optimize import (GridFunc, ScalarMaxResult,
                                     multistart_maximize)
from repro.users.utility import Utility

#: Smallest rate a user will consider (the paper requires ``r_i > 0``).
MIN_RATE = 1e-6


def _default_rate_cap(allocation) -> float:
    """Upper end of the rate interval a user searches.

    For curves with a capacity pole (M/M/1), rates at or beyond capacity
    are never optimal (own congestion is infinite), so the pole bounds
    the search.  For pole-free constraints (the separable world) or
    allocations that do not carry a service curve at all, we use a
    generous fixed cap; utilities in AU eventually punish congestion
    enough to keep optima interior.
    """
    curve = getattr(allocation, "curve", None)
    capacity = getattr(curve, "capacity", math.inf)
    if math.isfinite(capacity):
        return capacity * (1.0 - 1e-6)
    return 4.0


def _grid_objective(allocation, utility: Utility, rates: np.ndarray,
                    i: int) -> Optional[GridFunc]:
    """Batched objective for :func:`multistart_maximize`, if available.

    In ``auto`` mode the discipline's
    :attr:`~repro.disciplines.base.AllocationFunction.grid_min_users`
    cost hint arbitrates: below that population the scalar scan beats
    the grid's fixed numpy overhead (FIFO's scalar objective is a
    single ``sum``), so the call returns ``None`` and the maximizer
    takes the scalar path — same bracket, same result, less time.
    """
    solver_mode = instrumentation.mode()
    if solver_mode == "off":
        return None
    if not getattr(allocation, "vectorized_grid", False):
        return None
    if (solver_mode == "auto"
            and rates.size < getattr(allocation, "grid_min_users", 0)):
        return None
    # One evaluator per best response: the opponent-side precomputation
    # (sort, ladder, prefix sums) is shared by every grid-zoom round.
    evaluator = allocation.grid_evaluator(rates.copy(), i)

    def grid(xs: np.ndarray) -> np.ndarray:
        return utility.value_grid(xs, evaluator(xs))

    return grid


def best_response(allocation, utility: Utility, rates: Sequence[float],
                  i: int, r_max: Optional[float] = None,
                  n_scan: int = 65, tol: float = 1e-11) -> ScalarMaxResult:
    """Maximize user ``i``'s utility along her own rate axis.

    Parameters
    ----------
    allocation:
        An allocation function (or subsystem) exposing ``congestion_i``.
    utility:
        User ``i``'s utility.
    rates:
        Current full rate vector; entry ``i`` is ignored.
    r_max:
        Upper search bound; defaults to just under the capacity pole.
    n_scan:
        Grid size of the global scan preceding local refinement.
    """
    base = np.asarray(rates, dtype=float).copy()
    hi = _default_rate_cap(allocation) if r_max is None else float(r_max)

    def objective(x: float) -> float:
        base[i] = x
        congestion = allocation.congestion_i(base, i)
        return utility.value(x, congestion)

    grid = _grid_objective(allocation, utility,
                           np.asarray(rates, dtype=float), i)
    result = multistart_maximize(objective, MIN_RATE, hi, n_scan=n_scan,
                                 tol=tol, grid_func=grid)
    base[i] = result.x
    obs.add("solver.objective_evals", result.evaluations)
    obs.add("solver.congestion_evals", result.evaluations)
    obs.add("solver.grid_calls", result.grid_calls)
    return result


def best_response_map(allocation, profile: Sequence[Utility],
                      rates: Sequence[float],
                      r_max: Optional[float] = None,
                      n_scan: int = 65, tol: float = 1e-11) -> np.ndarray:
    """Simultaneous best responses: ``B(r)_i = argmax_x U_i(x, C_i)``.

    Fixed points of this map are exactly the Nash equilibria.
    """
    r = np.asarray(rates, dtype=float)
    if len(profile) != r.size:
        raise ValueError(
            f"profile has {len(profile)} utilities for {r.size} rates")
    out = np.empty_like(r)
    for i, utility in enumerate(profile):
        out[i] = best_response(allocation, utility, r, i, r_max=r_max,
                               n_scan=n_scan, tol=tol).x
    return out


def utility_improvement(allocation, utility: Utility,
                        rates: Sequence[float], i: int,
                        r_max: Optional[float] = None) -> float:
    """How much user ``i`` could gain by deviating unilaterally.

    Zero (up to solver tolerance) at a Nash equilibrium.  Used as the
    equilibrium certificate because rate-space distance is a bad metric
    when the objective is flat.  Counts toward the ``solver.*``
    counters, so ``is_nash``/certification cost shows up in the
    ``[solver]`` totals rather than being invisible.
    """
    r = np.asarray(rates, dtype=float)
    current = utility.value(float(r[i]), allocation.congestion_i(r, i))
    obs.add("solver.objective_evals")
    obs.add("solver.congestion_evals")
    best = best_response(allocation, utility, r, i, r_max=r_max)
    if math.isinf(current) and math.isinf(best.value):
        return 0.0
    return best.value - current
