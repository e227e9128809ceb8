"""Mean-field (heavy-traffic) Nash approximation for huge populations.

As N grows, one user's own rate is an infinitesimal fraction of the
load, so her unilateral deviation no longer moves the field she is
responding to.  Dropping the self-exclusion from the deviation
problem — the deviator *rides on top of the full class profile*
instead of being removed from her class first — yields the mean-field
closure used for large-scale congestion games in the tradition of
Wu–Bui–Johari-style heavy-traffic analyses: a K-dimensional
per-class fixed point

``s_k = argmax_x U_k(x, C_k^field(x))``,

where ``C_k^field`` is the class deviation evaluator with
``include_self=True``.  The approximation error against the exact
class-space equilibrium is O(1/N) (one user's mass mis-counted out of
N), so it *improves* as the population grows — exactly the regime
where it is needed.  The exact solver
(:func:`repro.game.classes.solve_nash_classes`) stays O(K) per step
too, so the mean-field route is not about asymptotics of cost; it is
the limit object itself, with an even better-conditioned fixed point
(no 1/(m_k-1) self-exclusion discontinuities for singleton classes)
and the natural starting point for N in the millions.

Both drivers from the class-space solver are available: the damped
best-response iteration — the class solver's batched map
(:func:`~repro.game.classes.class_best_response_map`, one K-row zoom
per round) under the ``include_self=True`` closure — and the
Newton-quality FDC root (``method="fdc"``, the default for its
precision).  Results certify against the *exact* game with the class
solver's own certificates: the class-space gain
(:func:`~repro.game.classes._class_gains`) and expansion spot checks,
so ``spot_gain`` directly measures the mean-field error in utility
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize

from repro.disciplines.base import check_classes
from repro.game.classes import (
    ClassNashResult,
    _class_gains,
    _default_class_start,
    _resolve_classes,
    certify_expansion,
    class_best_response_map,
)
from repro.numerics.iterate import damped_fixed_point
from repro.users.utility import Utility


def meanfield_fdc_residuals(allocation, utilities: Sequence[Utility],
                            class_rates: Sequence[float],
                            counts: Sequence[int]) -> np.ndarray:
    """First-derivative conditions under the mean-field closure.

    Entry ``k`` is ``M_k(s_k, C_k) + dC^field/dx``: the congestion
    level is the actual class congestion (the field the whole class
    generates), while the slope is the ``include_self=True`` deviation
    derivative — an infinitesimal agent perturbing a fixed field.
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
        out[k] = ratio + allocation.class_own_derivative(
            c, m, k, include_self=True)
    return out


def solve_nash_meanfield(allocation, profile: Sequence[Utility],
                         counts: Optional[Sequence[int]] = None,
                         r0: Optional[Sequence[float]] = None,
                         method: str = "fdc",
                         damping: float = 0.5, tol: float = 1e-10,
                         max_iter: int = 400,
                         certify_users: int = 1) -> ClassNashResult:
    """Solve the K-class mean-field equilibrium.

    Parameters mirror :func:`repro.game.classes.solve_nash_classes`;
    ``method`` selects the FDC root (``"fdc"``, default — fast and
    Newton-precise) or the damped best-response iteration
    (``"best-response"``), both under the ``include_self=True``
    closure.  The returned congestion/utilities are evaluated on the
    *exact* class-symmetric profile at the mean-field rates, and the
    certificates (``max_gain`` via exact-game class best responses,
    ``spot_gain`` via expanded per-user checks) measure the distance
    from true equilibrium — i.e. the mean-field error, O(1/N).
    """
    utilities, counts_arr, members = _resolve_classes(
        allocation, profile, counts)
    _, m = check_classes(np.zeros(counts_arr.size), counts_arr)
    start = (_default_class_start(allocation, m) if r0 is None
             else np.asarray(r0, dtype=float))

    if method == "fdc":
        def residuals(c: np.ndarray) -> np.ndarray:
            return meanfield_fdc_residuals(allocation, utilities,
                                           np.abs(c), m)

        solution = sp_optimize.root(residuals, start, method="hybr",
                                    options={"xtol": tol})
        class_rates = np.abs(np.asarray(solution.x, dtype=float))
        converged = bool(solution.success) and bool(
            np.all(class_rates > 0.0))
        iterations = int(solution.nfev)
    elif method == "best-response":
        def mapping(c: np.ndarray) -> np.ndarray:
            return class_best_response_map(allocation, utilities, c, m,
                                           include_self=True)

        outcome = damped_fixed_point(mapping, start, damping=damping,
                                     tol=tol, max_iter=max_iter, weights=m)
        class_rates = np.asarray(outcome.x, dtype=float)
        converged = bool(outcome.converged)
        iterations = int(outcome.iterations)
    else:
        raise ValueError(
            f"unknown mean-field method {method!r}; use 'fdc' or "
            f"'best-response'")

    congestion = allocation.class_congestion(class_rates, m)
    class_utilities = np.asarray(
        [utility.value(float(class_rates[k]), float(congestion[k]))
         for k, utility in enumerate(utilities)], dtype=float)
    # Certify against the EXACT game: the residual gain a real (finite,
    # self-excluded) user retains at the mean-field point is the
    # mean-field approximation error expressed in utility.
    worst = _class_gains(allocation, utilities, class_rates, m,
                         class_utilities)
    spot_gain = math.nan
    if certify_users > 0:
        spot_gain = certify_expansion(allocation, utilities, class_rates,
                                      m, users_per_class=certify_users)
    return ClassNashResult(class_rates=class_rates,
                           class_congestion=congestion,
                           class_utilities=class_utilities,
                           counts=m, converged=converged,
                           iterations=iterations, max_gain=worst,
                           spot_gain=spot_gain, method="mean-field",
                           members=members)


def meanfield_error(exact: ClassNashResult,
                    approx: ClassNashResult) -> float:
    """Sup-norm class-rate gap between an exact and a mean-field solve.

    The headline O(1/N) quantity: compare
    :func:`repro.game.classes.solve_nash_classes` (or its FDC twin)
    against :func:`solve_nash_meanfield` at the same profile.
    """
    if exact.class_rates.size != approx.class_rates.size:
        raise ValueError(
            f"class counts differ: {exact.class_rates.size} vs "
            f"{approx.class_rates.size}")
    return float(np.max(np.abs(exact.class_rates - approx.class_rates)))
