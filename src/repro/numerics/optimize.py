"""Robust one-dimensional maximization.

Best-response computation reduces to maximizing a user's utility along
her own rate axis.  The objective is smooth and usually unimodal, but
under some disciplines (and outside equilibrium) it can have plateaus or
several local maxima, and it can diverge to ``-inf`` near the capacity
boundary.  The helpers here therefore combine golden-section search with
a coarse multistart scan, and treat non-finite objective values as
``-inf`` rather than propagating exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0        # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0       # 1/phi^2

#: A batched objective: maps an array of candidates to their values.
GridFunc = Callable[[np.ndarray], np.ndarray]


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


def maximize_scalar(func: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-10) -> ScalarMaxResult:
    """Maximize ``func`` on ``[lo, hi]`` assuming it is unimodal."""
    return golden_section_max(func, lo, hi, tol=tol)


def _safe_grid(grid_func: GridFunc, xs: np.ndarray) -> np.ndarray:
    """Evaluate a batch, mapping NaNs (and exceptions) to ``-inf``."""
    try:
        ys = np.asarray(grid_func(xs), dtype=float)
    except (OverflowError, ZeroDivisionError, ValueError,
            FloatingPointError):
        return np.full(xs.shape, -math.inf)
    if ys.shape != xs.shape:
        raise ValueError(
            f"grid objective returned shape {ys.shape} for {xs.shape}")
    return np.where(np.isnan(ys), -math.inf, ys)


#: Points per refinement round of the batched zoom (bracket shrinks by
#: ``2 / (GRID_REFINE_POINTS - 1)`` = 16x per round).
GRID_REFINE_POINTS = 33


def grid_multistart_maximize(grid_func: GridFunc, lo: float, hi: float,
                             n_scan: int = 33,
                             tol: float = 1e-10) -> ScalarMaxResult:
    """Batched scan + iterative grid-zoom maximization.

    The vectorized counterpart of :func:`multistart_maximize`: one grid
    call evaluates the coarse scan, then each refinement round
    evaluates :data:`GRID_REFINE_POINTS` points across the bracket
    around the incumbent and shrinks the bracket 16x, until its width
    falls under ``tol``.  Golden-section search is inherently
    sequential (~45 scalar calls at ``tol=1e-11``); the zoom replaces
    it with ~8 batched rounds, which is what lets a vectorized
    ``congestion_grid`` pay off end to end.  The argmax agrees with
    the scalar path to within ``tol`` (both land inside the same
    final bracket).
    """
    if n_scan < 3:
        raise ValueError("n_scan must be at least 3")
    if hi < lo:
        lo, hi = hi, lo
    xs = np.linspace(lo, hi, n_scan)
    ys = _safe_grid(grid_func, xs)
    evals = n_scan
    calls = 1
    best = int(np.argmax(ys))
    best_x = float(xs[best])
    best_y = float(ys[best])
    left = float(xs[max(best - 1, 0)])
    right = float(xs[min(best + 1, n_scan - 1)])
    width = right - left
    while width > tol:
        xs = np.linspace(left, right, GRID_REFINE_POINTS)
        ys = _safe_grid(grid_func, xs)
        evals += GRID_REFINE_POINTS
        calls += 1
        best = int(np.argmax(ys))
        if float(ys[best]) > best_y:
            best_x = float(xs[best])
            best_y = float(ys[best])
        left = float(xs[max(best - 1, 0)])
        right = float(xs[min(best + 1, GRID_REFINE_POINTS - 1)])
        new_width = right - left
        if new_width >= width:       # float resolution floor
            break
        width = new_width
    return ScalarMaxResult(x=best_x, value=best_y, evaluations=evals,
                           grid_calls=calls)


def multistart_maximize(func: Callable[[float], float], lo: float, hi: float,
                        n_scan: int = 33,
                        tol: float = 1e-10,
                        grid_func: Optional[GridFunc] = None,
                        ) -> ScalarMaxResult:
    """Global scalar maximization by scan + local refinement.

    Evaluates ``func`` on an ``n_scan``-point grid, then runs a
    golden-section search on the bracket around the best grid point.  The
    endpoints themselves are candidates, so boundary maxima are found.

    When ``grid_func`` is given (a batched objective evaluating a whole
    candidate array in one pass), the scan *and* the refinement run
    through :func:`grid_multistart_maximize` instead — same bracket
    logic, a handful of numpy calls instead of ~100 Python ones.  If
    the batched path raises, the scalar path is used as a fallback so
    a discipline with a buggy grid override degrades to correct-but-
    slow rather than failing.

    This is the workhorse behind best-response computation: accurate for
    unimodal objectives and resistant to the mild multimodality that
    arises under non-Fair-Share disciplines out of equilibrium.
    """
    if grid_func is not None:
        try:
            return grid_multistart_maximize(grid_func, lo, hi,
                                            n_scan=n_scan, tol=tol)
        except (TypeError, ValueError, IndexError, AttributeError):
            pass
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


def argmax_on_grid(func: Callable[[float], float],
                   grid: Sequence[float]) -> float:
    """Return the grid point maximizing ``func`` (ties go to the first)."""
    if not grid:
        raise ValueError("grid must be non-empty")
    safe = _safe(func)
    best_x = grid[0]
    best_y = safe(grid[0])
    for x in grid[1:]:
        y = safe(x)
        if y > best_y:
            best_x, best_y = x, y
    return best_x
