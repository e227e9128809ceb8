"""Generalized hill climbing: iterated elimination of dominated rates.

Section 4.2.2 models "reasonable" self-optimization abstractly: each
user starts with a candidate set of rates and must eventually discard
any candidate that is *strictly worse than some other candidate against
every possible configuration of the opponents' surviving candidates*.
The limiting survivor set ``S^inf`` contains every Nash and Stackelberg
equilibrium; convergence is robust iff ``S^inf`` is a single point.

Theorem 5 (via [8]): under Fair Share ``S^inf`` is always the unique
Nash equilibrium — any mix of reasonable learners converges.  Under
FIFO the survivor set typically stays fat, leaving room for super-games
and leader exploitation.

We implement the elimination dynamics exactly on finite rate grids, and
a stochastic better-reply process as a concrete "naive learner".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.numerics.rng import default_rng
from repro.users.utility import Utility

#: Elimination rounds after which :func:`iterated_elimination` stops
#: even if candidates are still falling.
MAX_ELIMINATION_ROUNDS = 100

#: Standard deviation of :func:`stochastic_better_reply`'s first
#: perturbation, and the factor it shrinks by every step.
STEP_SCALE = 0.05
ANNEAL = 0.999


@dataclass
class EliminationResult:
    """Outcome of iterated elimination of dominated rates.

    Attributes
    ----------
    survivors:
        Per-user arrays of surviving rate candidates (``S_i^inf``).
    rounds:
        Elimination rounds executed until a fixed point.
    collapsed:
        Whether every user's survivor set is a single rate.
    survivor_spans:
        Per-user width ``max(S_i) - min(S_i)`` of the survivor set.
    """

    survivors: List[np.ndarray]
    rounds: int
    collapsed: bool
    survivor_spans: np.ndarray


def _payoff_table(allocation, profile: Sequence[Utility],
                  grids: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Precompute ``U_i`` over the full candidate product.

    ``tables[i][k_1, ..., k_N]`` is user ``i``'s utility when each user
    ``j`` plays grid point ``k_j``.  Exact but exponential in N — the
    elimination experiments use N <= 3 and modest grids.
    """
    shapes = tuple(len(g) for g in grids)
    # The whole candidate product as one (prod(shapes), n) batch; C-order
    # meshgrid flattening matches itertools.product, so reshaping back to
    # ``shapes`` lands every entry at its grid index.
    mesh = np.meshgrid(*grids, indexing="ij")
    profiles_flat = np.stack([m.reshape(-1) for m in mesh], axis=1)
    congestion = allocation.congestion_many(profiles_flat)
    tables = [profile[i].value_grid(profiles_flat[:, i],
                                    congestion[:, i]).reshape(shapes)
              for i in range(len(grids))]
    obs.add("solver.congestion_evals", profiles_flat.shape[0])
    obs.add("solver.grid_calls")
    return tables


def iterated_elimination(allocation, profile: Sequence[Utility],
                         grids: Sequence[np.ndarray]) -> EliminationResult:
    """Run exact iterated strict dominance on finite rate grids.

    A candidate ``s`` of user ``i`` is eliminated when some surviving
    candidate ``s_hat`` yields strictly higher utility against *every*
    surviving opponent combination.  Iterates to a fixed point, or for
    at most :data:`MAX_ELIMINATION_ROUNDS` rounds.
    """
    n = len(profile)
    if len(grids) != n:
        raise ValueError(f"{len(grids)} grids for {n} users")
    grid_arrays = [np.asarray(g, dtype=float) for g in grids]
    tables = _payoff_table(allocation, profile, grid_arrays)
    alive = [np.ones(len(g), dtype=bool) for g in grid_arrays]
    rounds = 0
    changed = True
    while changed and rounds < MAX_ELIMINATION_ROUNDS:
        changed = False
        rounds += 1
        for i in range(n):
            table = np.moveaxis(tables[i], i, 0)   # own axis first
            opponent_mask = np.ones(table.shape[1:], dtype=bool)
            for j in range(n):
                if j == i:
                    continue
                axis = j if j < i else j - 1
                shape = [1] * (n - 1)
                shape[axis] = alive[j].size
                opponent_mask = opponent_mask & alive[j].reshape(shape)
            live_idx = np.nonzero(alive[i])[0]
            for s in live_idx:
                payoff_s = table[s][opponent_mask]
                if np.any(~np.isfinite(payoff_s)):
                    payoff_s = np.where(np.isfinite(payoff_s), payoff_s,
                                        -1e18)
                for s_hat in live_idx:
                    if s_hat == s:
                        continue
                    payoff_hat = table[s_hat][opponent_mask]
                    payoff_hat = np.where(np.isfinite(payoff_hat),
                                          payoff_hat, -1e18)
                    if np.all(payoff_hat > payoff_s):
                        alive[i][s] = False
                        changed = True
                        break
    survivors = [grid_arrays[i][alive[i]] for i in range(n)]
    spans = np.array([
        float(s.max() - s.min()) if s.size else math.nan
        for s in survivors])
    collapsed = all(s.size == 1 for s in survivors)
    return EliminationResult(survivors=survivors, rounds=rounds,
                             collapsed=collapsed, survivor_spans=spans)


@dataclass
class AutomataResult:
    """Outcome of a linear reward-inaction (L_R-I) automata run.

    Attributes
    ----------
    probabilities:
        Final per-user probability vectors over their rate grids.
    modal_rates:
        The most probable rate of each user at the end.
    history:
        Modal rates every ``record_every`` steps.
    """

    probabilities: List[np.ndarray]
    modal_rates: np.ndarray
    history: np.ndarray


def learning_automata(allocation, profile: Sequence[Utility],
                      grids: Sequence[np.ndarray],
                      n_steps: int = 4000,
                      learning_rate: float = 0.03,
                      rng: Optional[np.random.Generator] = None,
                      record_every: int = 200) -> AutomataResult:
    """Linear reward-inaction automata (the [8] family of learners).

    Each user keeps a probability vector over her candidate rates,
    samples one per round, observes a normalized reward from her own
    utility, and shifts mass toward the sampled action proportionally
    to the reward (L_R-I).  These are "generalized hill climbers" in
    the paper's sense; under Fair Share their play concentrates on the
    unique Nash equilibrium.

    Rewards are normalized per user with a running min/max so that the
    ordinal utilities become [0, 1] reinforcement signals.
    """
    generator = default_rng(rng if rng is not None else 17)
    n = len(profile)
    if len(grids) != n:
        raise ValueError(f"{len(grids)} grids for {n} users")
    grid_arrays = [np.asarray(g, dtype=float) for g in grids]
    probs = [np.full(g.size, 1.0 / g.size) for g in grid_arrays]
    # Per-user EWMA baseline and spread for reward centering: an
    # action is reinforced according to how much better than the
    # user's *recent* experience it performed, which keeps rewards
    # informative as play drifts (a global min/max washes out).
    baselines = [None] * n
    spreads = [1.0] * n
    ewma = 0.05
    n_records = n_steps // record_every + 1
    history = np.empty((n_records, n))
    record_row = 0
    for step in range(n_steps):
        choices = [int(generator.choice(g.size, p=probs[k]))
                   for k, g in enumerate(grid_arrays)]
        rates = np.array([grid_arrays[k][choices[k]] for k in range(n)])
        congestion = allocation.congestion(rates)
        for k in range(n):
            value = profile[k].value(float(rates[k]),
                                     float(congestion[k]))
            if not math.isfinite(value):
                # Overload: zero reinforcement; keep it out of the
                # baseline (it would swamp the spread).
                reward = 0.0
            elif baselines[k] is None:
                baselines[k] = value
                reward = 0.5
            else:
                deviation = value - baselines[k]
                spreads[k] = ((1.0 - ewma) * spreads[k]
                              + ewma * abs(deviation))
                scale = max(spreads[k], 1e-9)
                reward = min(max(0.5 + deviation / (4.0 * scale), 0.0),
                             1.0)
                baselines[k] += ewma * deviation
            # L_R-I update: move toward the chosen action.
            chosen = choices[k]
            probs[k] *= (1.0 - learning_rate * reward)
            probs[k][chosen] += learning_rate * reward
            probs[k] /= probs[k].sum()
        if step % record_every == 0:
            history[record_row] = [
                grid_arrays[k][int(np.argmax(probs[k]))]
                for k in range(n)]
            record_row += 1
    history = history[:record_row]
    modal = np.array([grid_arrays[k][int(np.argmax(probs[k]))]
                      for k in range(n)])
    return AutomataResult(probabilities=probs, modal_rates=modal,
                          history=history)


def stochastic_better_reply(allocation, profile: Sequence[Utility],
                            r0: Sequence[float], n_steps: int = 2000,
                            rng: Optional[np.random.Generator] = None
                            ) -> np.ndarray:
    """A concrete naive learner: random local search, keep improvements.

    Each step, a random user perturbs her rate by a shrinking random
    amount (normal, standard deviation :data:`STEP_SCALE` shrunk by
    :data:`ANNEAL` per step) and keeps the change iff her *own* utility
    improved — the
    "adjust the knob until the picture looks best" behavior from the
    paper's TV-contrast analogy.  Returns the rate trajectory
    (``n_steps + 1`` rows).
    """
    generator = default_rng(rng if rng is not None else 3)
    r = np.asarray(r0, dtype=float).copy()
    n = r.size
    trail = np.empty((n_steps + 1, n))
    trail[0] = r
    scale = STEP_SCALE
    for step in range(1, n_steps + 1):
        i = int(generator.integers(0, n))
        candidate = r[i] + generator.normal(0.0, scale)
        candidate = min(max(candidate, 1e-6), 0.999)
        current_c = allocation.congestion_i(r, i)
        current_u = profile[i].value(float(r[i]), float(current_c))
        probe = r.copy()
        probe[i] = candidate
        new_c = allocation.congestion_i(probe, i)
        new_u = profile[i].value(candidate, float(new_c))
        if new_u > current_u:
            r = probe
        scale *= ANNEAL
        trail[step] = r
    return trail
