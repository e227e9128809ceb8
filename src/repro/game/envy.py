"""Envy and the unilaterally envy-free property (Section 4.1.2).

User ``i`` envies user ``j`` when she would strictly prefer ``j``'s
allocation to her own, judged by *her own* utility (no interpersonal
comparison).  The paper's strong fairness notion is *unilateral*
envy-freeness: whenever a user has best-responded, she envies no one —
no matter what the others are doing.  Fair Share has it (Theorem 3);
FIFO does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.game.best_response import _require_users, best_response
from repro.numerics.rng import default_rng
from repro.users.utility import Utility

#: Upper end of the total opponent load :func:`search_unilateral_envy`
#: draws (the lower end is 0.1).
MAX_PROBE_LOAD = 0.95


def envy_matrix(profile: Sequence[Utility], rates: Sequence[float],
                congestion: Sequence[float]) -> np.ndarray:
    """``E[i, j] = U_i(r_j, c_j) - U_i(r_i, c_i)``.

    Positive entries mean ``i`` envies ``j``.  The diagonal is zero by
    construction.  Infinite congestions compare as equally bad.
    """
    r = np.asarray(rates, dtype=float)
    c = np.asarray(congestion, dtype=float)
    n = r.size
    out = np.zeros((n, n))
    with np.errstate(invalid="ignore"):
        for i, utility in enumerate(profile):
            own = utility.value(float(r[i]), float(c[i]))
            # One value_grid pass scores every rival allocation under
            # user i's utility; infinite-vs-infinite pairs tie at zero.
            others = utility.value_grid(r, c)
            gaps = others - own
            if np.isinf(own):
                gaps = np.where(np.isinf(others), 0.0, gaps)
            gaps[i] = 0.0
            out[i] = gaps
    return out


def max_envy(profile: Sequence[Utility], rates: Sequence[float],
             congestion: Sequence[float]) -> float:
    """Largest envy entry; ``<= 0`` iff the allocation is envy-free."""
    return float(envy_matrix(profile, rates, congestion).max())


@dataclass
class UnilateralEnvyOutcome:
    """Result of one unilateral-envy probe.

    Attributes
    ----------
    rates:
        Rate vector after user ``i`` best-responded.
    envy:
        Max envy user ``i`` feels toward anyone at that point.
    best_rate:
        The best response chosen.
    """

    rates: np.ndarray
    envy: float
    best_rate: float


def unilateral_envy(allocation, profile: Sequence[Utility],
                    opponent_rates: Sequence[float], i: int) -> (
        UnilateralEnvyOutcome):
    """Best-respond user ``i`` against ``opponent_rates``, measure envy.

    ``opponent_rates`` is a full-length vector whose ``i``-th entry is
    ignored.  An allocation function is unilaterally envy-free iff this
    envy is ``<= 0`` for every opponent configuration and every utility
    in AU.
    """
    r = np.asarray(opponent_rates, dtype=float).copy()
    response = best_response(allocation, profile[i], r, i)
    r[i] = response.x
    congestion = allocation.congestion(r)
    utility = profile[i]
    own = utility.value(float(r[i]), float(congestion[i]))
    others = utility.value_grid(r, congestion)
    with np.errstate(invalid="ignore"):
        gaps = others - own
    if np.isinf(own):
        gaps = np.where(np.isinf(others), 0.0, gaps)
    gaps[i] = -np.inf                       # never "envies" herself
    worst = float(np.max(gaps)) if r.size > 1 else -np.inf
    return UnilateralEnvyOutcome(rates=r, envy=worst,
                                 best_rate=float(response.x))


def search_unilateral_envy(allocation, profile: Sequence[Utility],
                           n_trials: int = 50,
                           rng: Optional[np.random.Generator] = None
                           ) -> UnilateralEnvyOutcome:
    """Adversarial search for positive unilateral envy.

    Samples ``n_trials`` random opponent rate vectors (total load
    uniform in ``[0.1, MAX_PROBE_LOAD]``), best-responds each user in
    turn, and returns the single worst (most envious) outcome found.
    For Fair Share the returned envy should never be positive; for FIFO
    it usually is.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    _require_users(profile)
    generator = default_rng(rng if rng is not None else 11)
    alpha = np.ones(len(profile))

    def outcomes() -> Iterator[UnilateralEnvyOutcome]:
        for _ in range(n_trials):
            rates = (generator.dirichlet(alpha)
                     * generator.uniform(0.1, MAX_PROBE_LOAD))
            for i in range(len(profile)):
                yield unilateral_envy(allocation, profile, rates, i)

    # max() keeps the first of equally envious outcomes.
    return max(outcomes(), key=lambda outcome: outcome.envy)
