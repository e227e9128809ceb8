"""Fixed-point iteration: a damped step with safeguarded Anderson
extrapolation.

Best-response dynamics are a fixed-point iteration ``r <- B(r)``.  The
plain step ``x <- x + d (B(x) - x)`` is globally cautious: under FIFO
the relaxation matrix has a leading eigenvalue near ``1 - N``
(Theorem 7), so undamped dynamics diverge for ``N > 2`` and the step
must be damped, with adaptive halving when the residual stalls.  Under
Fair Share the same matrix is nilpotent, so the Nash solvers build
Fair Share's point stage by stage instead
(``repro.game.classes.serial_class_rates``) and this driver meets its
map only from an explicit start, in a subsystem or in a network.  Under
a separable discipline ``B`` is constant after one step, yet a fixed
damping makes it crawl at FIFO's pace.

:func:`damped_fixed_point` therefore extrapolates over its last
:data:`ANDERSON_MEMORY` ``(x, B(x) - x)`` pairs (type-II Anderson
acceleration), which solves an affine map of dimension up to the
memory in a few evaluations whatever its spectrum (a constant map in
three).  The damped step starts the iteration and stays as the
fallback, behind four safeguards:

* an extrapolated point whose residual is not below
  :data:`REJECT_FACTOR` times the residual of the point it came from is
  dropped: the iteration goes back to that point, clears its memory and
  takes the plain step;
* extrapolated points are clipped to the box spanned by the iterates
  and map outputs in memory until the box proves too tight: once an
  accepted extrapolation that the box clipped lowers the residual below
  its source's, later ones may pass the box by 1, 2, 4, ... up to
  :data:`MAX_REACH` box widths (doubling with each such step), and a
  rejected extrapolation shrinks the reach back to the plain box.
  Under FIFO the modes beside the damped ``1 - N`` one are small and
  positive, so damped steps approach the fixed point from one side,
  outside the box, and a fixed box held per-user FIFO solves to the
  damped rate (2.1-2.2x the evaluations).  A box that widens from the
  first step breaks the class/per-user agreement of priority solves.
  At any reach, a coordinate positive throughout memory stays at or
  above half its smallest remembered value, so rates stay nonnegative;
* an extrapolated point within ``tol`` (sup norm) of an iterate in
  memory is not taken; the plain step is taken instead.  Clipping can
  land on such an iterate, and its residual passes the first
  safeguard, so the same step would repeat until ``max_iter``;
* once the residual is within :data:`ENDGAME_FACTOR` times ``tol``, only
  plain steps are taken.  Near a fixed point a best response is
  resolved only to about 1e-9-1e-8 (the argmax of a flat utility is
  ill-conditioned), and extrapolating on that noise can cycle.

A stall never ends a run: it ends converged, after ``max_iter`` map
evaluations, or when an end-game step would start from a state it has
already stepped from.  ``B`` is a function, so such a run is on an
orbit that never converges; plain steps at a best response's noise
floor fall into such cycles, and they end there instead of spinning to
``max_iter``.  A run that ends unconverged returns the best point it
evaluated.  Each map evaluation, rejected extrapolation and
unconverged run is counted in :mod:`repro.obs` as
``fixed_point.<name>`` for each name in :data:`COUNTERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as obs

#: Difference pairs the extrapolation solves over.
ANDERSON_MEMORY = 4
#: An extrapolated point survives only if its residual is below this
#: multiple of the residual at the point it was extrapolated from.
REJECT_FACTOR = 10.0
#: Plain steps only once the residual is below this multiple of ``tol``.
ENDGAME_FACTOR = 100.0
#: Relative singular-value cutoff of the extrapolation least squares.
LSTSQ_RCOND = 1e-12
#: The most box widths an extrapolation may earn to pass its box by.
MAX_REACH = 8.0

#: The driver's counters, ``fixed_point.<name>`` in :mod:`repro.obs`,
#: in ``[solver]`` line order.
COUNTERS = ("map_evals", "rejected_extrapolations", "unconverged")


@dataclass
class FixedPointResult:
    """Outcome of a fixed-point iteration.

    Attributes
    ----------
    x:
        Final iterate: the converged point, or else the evaluated
        point with the smallest residual.
    converged:
        Whether the residual dropped below tolerance.
    iterations:
        Number of map evaluations performed (at most ``max_iter``).
    residual:
        Sup-norm residual ``||B(x) - x||`` at :attr:`x`.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


def _extrapolate(xs: List[np.ndarray], outputs: List[np.ndarray],
                 scale: np.ndarray, reach: float
                 ) -> Tuple[np.ndarray, bool]:
    """The Anderson point from the pairs in memory, clipped to their box
    widened by ``reach`` box widths, and whether the clip moved it.

    ``gamma`` minimizes the row-scaled 2-norm of the newest residual
    ``B(x) - x`` minus a combination of residual differences; the point
    is the newest map output minus the same combination of output
    differences.  However far the box reaches, a coordinate positive
    throughout memory is kept at or above half its smallest remembered
    value (at ``reach`` 0 the box itself does that): a widened box would
    otherwise hand negative rates to evaluators that reject them, as
    Fair Share's grid evaluator does.
    """
    points, images = np.asarray(xs), np.asarray(outputs)
    residuals = (images - points) * scale
    gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1],
                            rcond=LSTSQ_RCOND)[0]
    point = images[-1] - np.diff(images, axis=0).T @ gamma
    low = np.minimum(points.min(axis=0), images.min(axis=0))
    high = np.maximum(points.max(axis=0), images.max(axis=0))
    width = reach * (high - low)
    floor = np.where(low > 0.0, np.maximum(low - width, 0.5 * low),
                     low - width)
    kept = np.clip(point, floor, high + width)
    return kept, not np.array_equal(kept, point)


def damped_fixed_point(mapping: Callable[[np.ndarray], np.ndarray],
                       x0: np.ndarray,
                       damping: float = 0.5,
                       tol: float = 1e-10,
                       max_iter: int = 500,
                       weights: Optional[Sequence[float]] = None
                       ) -> FixedPointResult:
    """Find ``x = B(x)``, stopping when ``||B(x) - x||_inf < tol``.

    Parameters
    ----------
    mapping:
        The map ``B`` whose fixed point is sought.
    x0:
        Starting point.
    damping:
        Initial fraction ``d`` in (0, 1] of the plain step
        ``x <- (1-d) x + d B(x)``, which starts the iteration, follows
        a rejected extrapolation and finishes it near the fixed point.
        The damping halves whenever plain steps fail to shrink the
        residual for several consecutive iterations (helps FIFO's
        near-oscillatory best-response dynamics); extrapolated steps
        do not use the damping and do not count.
    max_iter:
        Map evaluations allowed, rejected extrapolations included.
    weights:
        Positive per-coordinate multiplicities weighting the
        extrapolation's least squares.  A class-space map passes its
        class counts, so the iteration is the per-user one restricted
        to class-symmetric points.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    x = np.asarray(x0, dtype=float).copy()
    scale = np.sqrt(np.ones(x.size) if weights is None
                    else np.asarray(weights, dtype=float))
    d = damping
    last_residual = np.inf
    stall = 0
    xs: List[np.ndarray] = []           # the last few pairs (x, B(x))
    outputs: List[np.ndarray] = []
    # (x, B(x), residual, clipped) behind an extrapolation
    source: Optional[Tuple[np.ndarray, np.ndarray, float, bool]] = None
    reach = 0.0               # box widths an extrapolation may pass it by
    endgame = False
    visited: Set[Tuple[bytes, float, int]] = set()
    best_x, best_residual = x, np.inf
    iteration = 0
    while iteration < max_iter:
        iteration += 1
        target = np.asarray(mapping(x), dtype=float)
        residual = float(np.max(np.abs(target - x)))
        obs.add("fixed_point.map_evals")
        if residual < tol:
            return FixedPointResult(x=x, converged=True,
                                    iterations=iteration, residual=residual)
        if residual < best_residual:
            best_x, best_residual = x, residual
        if source is not None and not residual < REJECT_FACTOR * source[2]:
            obs.add("fixed_point.rejected_extrapolations")
            x, target, residual, _ = source
            xs, outputs = [], []
            reach = 0.0
        elif source is not None and source[3] and residual < source[2]:
            # The box held back a point that still paid off.
            reach = min(2.0 * reach, MAX_REACH) if reach else 1.0
        xs.append(x)
        outputs.append(target)
        del xs[:-ANDERSON_MEMORY - 1], outputs[:-ANDERSON_MEMORY - 1]
        if source is None:
            if residual >= last_residual * 0.999:
                stall += 1
                if stall >= 3 and d > 1.0 / 64.0:
                    d *= 0.5
                    stall = 0
            else:
                stall = 0
        last_residual = residual
        source = None
        endgame = endgame or residual < ENDGAME_FACTOR * tol
        if endgame:
            # What follows depends on nothing else (the residual is a
            # function of x), so a state seen before starts an orbit
            # that can never converge.
            state = (x.tobytes(), d, stall)
            if state in visited:
                break
            visited.add(state)
        point = None
        if not endgame and len(xs) >= 2:
            point, clipped = _extrapolate(xs, outputs, scale, reach)
            if np.min(np.max(np.abs(np.asarray(xs) - point), axis=1)) <= tol:
                point = None
        if point is None:
            x = (1.0 - d) * x + d * target
        else:
            source = (x, target, residual, clipped)
            x = point
    obs.add("fixed_point.unconverged")
    return FixedPointResult(x=best_x, converged=False,
                            iterations=iteration, residual=best_residual)
