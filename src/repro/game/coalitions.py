"""Coalitional manipulation (footnote 14, via [23] p. 1025).

The paper notes that Fair Share Nash equilibria are resilient against
*joint* manipulations: no coalition of users can coordinate a deviation
that makes every member strictly better off.  This module implements
the computational check — grid + local search over a coalition's joint
rate space with everyone else held fixed — and its mirror image, the
search for profitable coalitions under other disciplines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import optimize as sp_optimize

import repro.obs as obs
from repro.numerics import instrumentation
from repro.users.utility import Utility


@dataclass
class CoalitionOutcome:
    """Result of searching one coalition's joint deviations.

    Attributes
    ----------
    members:
        The coalition's user indices.
    gain:
        Largest *minimum member gain* found over joint deviations
        (``<= 0`` means no deviation helps every member).
    deviation:
        The best joint rate choice found for the members.
    """

    members: Tuple[int, ...]
    gain: float
    deviation: np.ndarray


def coalition_gain(allocation, profile: Sequence[Utility],
                   rates: Sequence[float], members: Sequence[int],
                   grid_points: int = 9,
                   span: float = 0.5,
                   refine: bool = True) -> CoalitionOutcome:
    """Max-min utility gain a coalition can grab by deviating jointly.

    Each member's candidate rates form a grid around (and including)
    her current rate; all joint combinations are evaluated and the one
    maximizing the *worst member's* gain is polished with Nelder-Mead.
    Non-members keep their rates.
    """
    base = np.asarray(rates, dtype=float)
    members = tuple(int(m) for m in members)
    if len(set(members)) != len(members) or not members:
        raise ValueError(f"invalid coalition {members}")
    base_c = allocation.congestion(base)
    base_u = np.array([profile[m].value(float(base[m]),
                                        float(base_c[m]))
                       for m in members])

    def min_gain(joint: np.ndarray) -> float:
        candidate = base.copy()
        for k, m in enumerate(members):
            candidate[m] = max(float(joint[k]), 1e-6)
        congestion = allocation.congestion(candidate)
        worst = np.inf
        for k, m in enumerate(members):
            value = profile[m].value(float(candidate[m]),
                                     float(congestion[m]))
            if not np.isfinite(value):
                return -1e9
            worst = min(worst, value - base_u[k])
        return float(worst)

    grids = []
    for m in members:
        lo = max(base[m] * (1.0 - span), 1e-6)
        hi = base[m] * (1.0 + span) + 0.02
        grid = np.unique(np.concatenate(
            (np.linspace(lo, hi, grid_points), [base[m]])))
        grids.append(grid)
    best_gain = 0.0
    best_joint = base[list(members)].copy()
    if (instrumentation.vectorized()
            and getattr(allocation, "vectorized_grid", False)):
        # All joint combinations in one congestion_many batch.  The
        # meshgrid flattening enumerates combinations in the same
        # (C-order) sequence as itertools.product, and argmax keeps the
        # first maximum, so ties resolve exactly like the scalar loop.
        mesh = np.meshgrid(*grids, indexing="ij")
        combos = np.stack([m.reshape(-1) for m in mesh], axis=1)
        candidates = np.tile(base, (combos.shape[0], 1))
        candidates[:, list(members)] = np.maximum(combos, 1e-6)
        congestion = allocation.congestion_many(candidates)
        worst = np.full(combos.shape[0], np.inf)
        finite = np.ones(combos.shape[0], dtype=bool)
        with np.errstate(invalid="ignore"):
            for k, m in enumerate(members):
                values = profile[m].value_grid(candidates[:, m],
                                               congestion[:, m])
                finite &= np.isfinite(values)
                worst = np.minimum(worst, values - base_u[k])
        scores = np.where(finite, worst, -1e9)
        pick = int(np.argmax(scores))
        if float(scores[pick]) > best_gain:
            best_gain = float(scores[pick])
            best_joint = combos[pick].astype(float)
        obs.add("solver.congestion_evals", combos.shape[0])
        obs.add("solver.grid_calls")
    else:
        for joint in itertools.product(*grids):
            gain = min_gain(np.asarray(joint))
            if gain > best_gain:
                best_gain = gain
                best_joint = np.asarray(joint, dtype=float)
    if refine:
        result = sp_optimize.minimize(
            lambda x: -min_gain(x), best_joint, method="Nelder-Mead",
            options={"maxiter": 200, "xatol": 1e-8, "fatol": 1e-10})
        polished = min_gain(np.asarray(result.x))
        if polished > best_gain:
            best_gain = polished
            best_joint = np.abs(np.asarray(result.x, dtype=float))
    return CoalitionOutcome(members=members, gain=float(best_gain),
                            deviation=best_joint)


def search_profitable_coalitions(allocation, profile: Sequence[Utility],
                                 rates: Sequence[float],
                                 max_size: int = 2,
                                 grid_points: int = 9,
                                 tol: float = 1e-6) -> List[CoalitionOutcome]:
    """All coalitions up to ``max_size`` that profit from deviating."""
    n = len(profile)
    profitable: List[CoalitionOutcome] = []
    for size in range(2, max_size + 1):
        for members in itertools.combinations(range(n), size):
            outcome = coalition_gain(allocation, profile, rates,
                                     members, grid_points=grid_points)
            if outcome.gain > tol:
                profitable.append(outcome)
    return profitable
