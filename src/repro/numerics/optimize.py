"""Robust one-dimensional maximization.

Best-response computation reduces to maximizing a user's utility along
her own rate axis.  The objective is smooth and usually unimodal, but
under some disciplines (and outside equilibrium) it can have plateaus or
several local maxima, and it can diverge to ``-inf`` near the capacity
boundary.  The helpers here therefore combine golden-section search with
a coarse multistart scan, and treat non-finite objective values as
``-inf`` rather than propagating exceptions.

Best responses replace golden-section search with a batched grid
zoom, :func:`grid_maximize_rows`, which maximizes many independent
objectives at once — one row each, as in a simultaneous best-response
round over N users or K utility classes; a lone best response is its
one-row case.  A round on arrays of about (8, 33) costs numpy call
overhead rather than arithmetic, so the row objectives the solvers
pass in (the disciplines' row evaluators and
:func:`~repro.users.families.value_grid_rows`) make one call per
round for all rows, with as few numpy calls as they can.  An
exception from a row objective propagates: there is no scalar retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0        # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0       # 1/phi^2

#: A row-wise batched objective: ``(B, K)`` candidates -> ``(B, K)``
#: values, row ``b`` scored by the ``b``-th of ``B`` objectives.
RowFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarMaxResult:
    """Outcome of a scalar maximization.

    Attributes
    ----------
    x:
        Argmax estimate.
    value:
        Objective value at ``x``.
    evaluations:
        Number of objective evaluations performed.
    grid_calls:
        Number of batched grid evaluations (0 on the scalar path).
    """

    x: float
    value: float
    evaluations: int
    grid_calls: int = 0


def _safe(func: Callable[[float], float]) -> Callable[[float], float]:
    """Wrap ``func`` so numerical blowups become ``-inf``."""

    def wrapped(x: float) -> float:
        try:
            value = func(x)
        except (OverflowError, ZeroDivisionError, ValueError,
                FloatingPointError):
            return -math.inf
        if value != value:          # NaN check without numpy
            return -math.inf
        return value

    return wrapped


def golden_section_max(func: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-10,
                       max_iter: int = 200) -> ScalarMaxResult:
    """Golden-section search for the maximum of ``func`` on ``[lo, hi]``.

    Exact for unimodal objectives; for multimodal ones it returns a local
    maximum, which is why callers normally go through
    :func:`multistart_maximize`.
    """
    if hi < lo:
        lo, hi = hi, lo
    safe = _safe(func)
    a, b = lo, hi
    h = b - a
    evals = 2
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    yc = safe(c)
    yd = safe(d)
    iterations = 0
    while h > tol and iterations < max_iter:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + INVPHI2 * h
            yc = safe(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + INVPHI * h
            yd = safe(d)
        evals += 1
        iterations += 1
    if yc > yd:
        return ScalarMaxResult(x=c, value=yc, evaluations=evals)
    return ScalarMaxResult(x=d, value=yd, evaluations=evals)


#: Points per refinement round of the batched zoom (bracket shrinks by
#: ``2 / (GRID_REFINE_POINTS - 1)`` = 16x per round).
GRID_REFINE_POINTS = 33

_LAST = GRID_REFINE_POINTS - 1
_POSITIONS = np.arange(GRID_REFINE_POINTS)
_RAMP = _POSITIONS.astype(float)
#: Per argmax position of a round: itself and the two neighbours that
#: bracket it (clamped to the grid).
_PICKS = np.stack((_POSITIONS, np.maximum(_POSITIONS - 1, 0),
                   np.minimum(_POSITIONS + 1, _LAST)), axis=1)


def _safe_rows(row_func: RowFunc, xs: np.ndarray) -> np.ndarray:
    """Evaluate a row batch, mapping NaNs to ``-inf``."""
    ys = np.asarray(row_func(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(
            f"grid objective returned shape {ys.shape} for {xs.shape}")
    return np.fmax(ys, -math.inf)       # NaN -> -inf, all else kept


def grid_maximize_rows(row_func: RowFunc, n_rows: int, lo: float,
                       hi: float, n_scan: int = 33,
                       tol: float = 1e-10) -> List[ScalarMaxResult]:
    """Scan + grid zoom for ``n_rows`` objectives at once, one row each.

    ``row_func`` maps a ``(n_rows, K)`` candidate array to the values
    of objective ``b`` along row ``b``.  Every row scans the same
    ``n_scan``-point grid on ``[lo, hi]`` (built once), then zooms on
    its own bracket: each round scores :data:`GRID_REFINE_POINTS`
    points across the bracket around the row's incumbent and shrinks
    it 16x, until its width falls under ``tol`` or stops shrinking
    (the float resolution floor).  A row that has stopped keeps its
    incumbent and counts while the others go on; the call returns once
    every row has stopped.  Each row does exactly the arithmetic of a
    lone zoom — refinement grids use numpy's ``linspace`` formula
    (``arange(K) * step + left``, last point ``right``) row by row —
    so a row's result does not depend on the other rows.  Exceptions
    from ``row_func`` propagate; NaNs count as ``-inf``.
    """
    if n_scan < 3:
        raise ValueError("n_scan must be at least 3")
    if hi < lo:
        lo, hi = hi, lo
    scan = np.linspace(lo, hi, n_scan)
    ys = _safe_rows(row_func, scan[None, :].repeat(n_rows, axis=0))
    best = ys.argmax(axis=1)
    left = scan[np.maximum(best - 1, 0)]
    right = scan[np.minimum(best + 1, n_scan - 1)]
    width = right - left
    # Each round's best point per row, and which rows were still live.
    tops = [ys.max(axis=1)]
    x_tops = [scan[best]]
    live = [np.ones(n_rows, dtype=bool)]
    active = width > tol
    row_start = np.arange(0, n_rows * GRID_REFINE_POINTS,
                          GRID_REFINE_POINTS)[:, None]
    while active.any():
        # np.linspace(left, right, K) row by row; array endpoints would
        # switch every row to another formula once any step is 0.
        xs = np.multiply.outer(width / _LAST, _RAMP)
        xs += left[:, None]
        xs[:, _LAST] = right
        ys = _safe_rows(row_func, xs)
        at = _PICKS.take(ys.argmax(axis=1), axis=0)
        at += row_start
        got = xs.take(at)
        tops.append(ys.take(at[:, 0]))
        x_tops.append(got[:, 0])
        live.append(active)
        # A stopped row's bracket still moves; its rounds no longer count.
        left, right = got[:, 1], got[:, 2]
        new_width = right - left
        active = active & (new_width < width) & (new_width > tol)
        width = new_width
    # Rows improve only on a strictly better round, so each keeps the
    # first best of its live rounds.
    rows = np.arange(n_rows)
    live = np.array(live)
    scores = np.where(live, tops, -math.inf)
    first = scores.argmax(axis=0)
    best_x = np.array(x_tops)[first, rows]
    best_y = scores[first, rows]
    calls = live.sum(axis=0)
    return [ScalarMaxResult(x=x, value=y,
                            evaluations=n_scan + GRID_REFINE_POINTS * (c - 1),
                            grid_calls=c)
            for x, y, c in zip(best_x.tolist(), best_y.tolist(),
                               calls.tolist())]


def multistart_maximize(func: Callable[[float], float], lo: float, hi: float,
                        n_scan: int = 33,
                        tol: float = 1e-10) -> ScalarMaxResult:
    """Global scalar maximization by scan + local refinement.

    Evaluates ``func`` on an ``n_scan``-point grid, then runs a
    golden-section search on the bracket around the best grid point.  The
    endpoints themselves are candidates, so boundary maxima are found.

    The scalar scan: accurate for unimodal objectives and resistant to
    the mild multimodality that arises under non-Fair-Share disciplines
    out of equilibrium.  The Stackelberg leader, the cost-sharing
    demand game and the symmetric social optimum run through it; best
    responses take :func:`grid_maximize_rows`, its batched counterpart.
    """
    if n_scan < 3:
        raise ValueError("n_scan must be at least 3")
    if hi < lo:
        lo, hi = hi, lo
    safe = _safe(func)
    width = hi - lo
    xs = [lo + width * k / (n_scan - 1) for k in range(n_scan)]
    ys = [safe(x) for x in xs]
    best = max(range(n_scan), key=lambda k: ys[k])
    left = xs[max(best - 1, 0)]
    right = xs[min(best + 1, n_scan - 1)]
    refined = golden_section_max(func, left, right, tol=tol)
    evals = n_scan + refined.evaluations
    if ys[best] > refined.value:
        return ScalarMaxResult(x=xs[best], value=ys[best], evaluations=evals)
    return ScalarMaxResult(x=refined.x, value=refined.value,
                           evaluations=evals)
