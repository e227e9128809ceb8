"""Protectiveness (Section 4.3, Theorem 8).

A discipline is *protective* when no combination of other users'
behavior — greedy, broken, or malicious — can push user ``i``'s
congestion above the symmetric worst case
``C_i(r_i * e) = g(N r_i) / N`` (everyone sending what she sends).
This is the out-of-equilibrium guarantee: the converse of the Golden
Rule.  Fair Share is protective in all subsystems and is the only MAC
discipline that is; under FIFO a single heavy sender inflicts unbounded
congestion on everyone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.numerics.rng import default_rng
from repro.queueing.service_curves import MM1Curve, ServiceCurve

#: Largest rate an adversarial opponent sends: twice the M/M/1
#: capacity, deliberately beyond the stable region.
OPPONENT_CAP = 2.0


def protection_bound(own_rate: float, n_users: int,
                     curve: Optional[ServiceCurve] = None) -> float:
    """The symmetric bound ``C_i(r_i * e) = g(N r_i) / N``."""
    if own_rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {own_rate}")
    if n_users < 1:
        raise ValueError(f"need at least one user, got {n_users}")
    g = curve if curve is not None else MM1Curve()
    total = n_users * own_rate
    if total >= g.capacity:
        return math.inf
    return g.value(total) / n_users


@dataclass
class ProtectionReport:
    """Result of an adversarial search against one user.

    Attributes
    ----------
    own_rate:
        The protected user's fixed rate.
    bound:
        The symmetric protection bound.
    worst_congestion:
        Largest congestion the search inflicted on the user.
    worst_opponents:
        The opponent rate vector achieving it.
    protective:
        Whether ``worst_congestion <= bound`` (within tolerance).
    """

    own_rate: float
    bound: float
    worst_congestion: float
    worst_opponents: np.ndarray
    protective: bool


def worst_case_congestion(allocation, i: int, own_rate: float,
                          n_users: int,
                          rng: Optional[np.random.Generator] = None,
                          n_samples: int = 200,
                          refine: bool = True,
                          bound: Optional[float] = None) -> ProtectionReport:
    """Adversarially maximize ``C_i`` over the opponents' rates.

    Opponent rates range over ``[0, OPPONENT_CAP]`` — deliberately
    *beyond* the stable region, since malice is exactly the
    out-of-equilibrium case the guarantee must cover.  Random sampling
    is followed by a Nelder-Mead polish from the worst sample (the
    objective is not smooth where the allocation saturates).

    ``bound`` overrides the symmetric single-switch bound — network
    allocations, for example, supply the sum of their per-hop bounds.
    """
    from scipy import optimize as sp_optimize

    if n_users < 2:
        raise ValueError("protection needs at least one opponent")
    generator = default_rng(rng if rng is not None else 23)
    if bound is None:
        bound = protection_bound(own_rate, n_users,
                                 curve=allocation.curve)

    def congestion_of(opponents: np.ndarray) -> float:
        rates = np.insert(np.abs(opponents), i, own_rate)
        return float(allocation.congestion_i(rates, i))

    # One (n_samples, n-1) draw consumes the identical RNG stream as
    # n_samples sequential size-(n-1) draws; argmax keeps the first
    # maximum.
    draws = generator.uniform(0.0, OPPONENT_CAP,
                              size=(n_samples, n_users - 1))
    profiles = np.insert(np.abs(draws), i, own_rate, axis=1)
    values = allocation.congestion_many(profiles)[:, i]
    best = int(np.argmax(values))
    worst_value = float(values[best])
    worst_opponents = draws[best]
    obs.add("solver.congestion_evals", n_samples)
    obs.add("solver.grid_calls")
    if refine and math.isfinite(worst_value):
        result = sp_optimize.minimize(
            lambda x: -congestion_of(x), worst_opponents,
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-12})
        polished = congestion_of(np.asarray(result.x))
        if polished > worst_value:
            worst_value = polished
            worst_opponents = np.abs(np.asarray(result.x))
    protective = bool(worst_value <= bound * (1.0 + 1e-9) + 1e-12)
    return ProtectionReport(own_rate=float(own_rate), bound=float(bound),
                            worst_congestion=float(worst_value),
                            worst_opponents=worst_opponents,
                            protective=protective)


def verify_protective(allocation, n_users: int,
                      rng: Optional[np.random.Generator] = None,
                      n_samples: int = 120) -> bool:
    """Check protectiveness for user 0 at six own-rates, evenly spaced
    from 0.02 to ``0.9 / n_users``.

    By symmetry checking one user index suffices for symmetric
    allocation functions.
    """
    generator = default_rng(rng if rng is not None else 29)
    for own_rate in np.linspace(0.02, 0.9 / n_users, 6).tolist():
        report = worst_case_congestion(allocation, 0, float(own_rate),
                                       n_users, rng=generator,
                                       n_samples=n_samples)
        if not report.protective:
            return False
    return True
