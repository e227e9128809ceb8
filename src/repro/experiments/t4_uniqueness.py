"""Theorem 4: Fair Share's Nash equilibrium is unique; FIFO's need not be.

Constructs an explicit witness: a single utility in AU (the biconvex
family, whose marginal rate of substitution rises in both arguments)
shared by two users, tuned so the asymmetric point ``(a, b)`` satisfies
the FIFO Nash conditions.  By symmetry ``(b, a)`` is then a second
equilibrium; multistart search certifies both, and the symmetric
equilibrium between them, on a near-flat stretch where a start that
stops short still certifies within 1e-8.  On the *same* profile Fair
Share has exactly one equilibrium, and a multistart sweep over random
mixed profiles never finds a second Fair Share equilibrium.
"""

from __future__ import annotations

import numpy as np

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.experiments.base import ExperimentReport, Table
from repro.game.nash import find_all_nash, is_nash
from repro.game.witnesses import fifo_multiplicity_witness
from repro.numerics.rng import default_rng
from repro.users.profiles import random_mixed_profile

EXPERIMENT_ID = "t4_uniqueness"
CLAIM = ("A FIFO game in AU can have multiple Nash equilibria; the Fair "
         "Share equilibrium is always unique")


def run(seed: int = 0, fast: bool = False) -> ExperimentReport:
    """Multiplicity witness for FIFO, uniqueness sweep for Fair Share."""
    fifo = ProportionalAllocation()
    fs = FairShareAllocation()
    a, b = 0.15, 0.45
    witness = fifo_multiplicity_witness(a=a, b=b)
    profile = [witness, witness]

    planted = np.array([a, b])
    mirror = np.array([b, a])
    planted_ok = is_nash(fifo, profile, planted, tol=1e-8)
    mirror_ok = is_nash(fifo, profile, mirror, tol=1e-8)

    n_starts = 10 if fast else 24
    fifo_eqs = find_all_nash(fifo, profile, n_starts=n_starts,
                             rng=default_rng(seed),
                             gain_tol=1e-8, distinct_tol=5e-3)
    fs_eqs = find_all_nash(fs, profile, n_starts=n_starts,
                           rng=default_rng(seed + 1),
                           gain_tol=1e-8, distinct_tol=5e-3)

    witness_table = Table(
        title="Witness profile (two users, same biconvex utility)",
        headers=["discipline", "distinct equilibria found",
                 "planted (a,b) is Nash", "mirror (b,a) is Nash"])
    witness_table.add_row("fifo", len(fifo_eqs), planted_ok, mirror_ok)
    witness_table.add_row("fair-share", len(fs_eqs), "-", "-")

    eq_table = Table(
        title="Equilibria located (rates, unilateral-gain certificate)",
        headers=["discipline", "rates", "max unilateral gain"])
    for eq in fifo_eqs[:6]:
        eq_table.add_row("fifo", str(np.round(eq.rates, 4)),
                         float(eq.max_gain))
    for eq in fs_eqs:
        eq_table.add_row("fair-share", str(np.round(eq.rates, 4)),
                         float(eq.max_gain))

    # Uniqueness sweep for Fair Share over random profiles.
    rng = default_rng(seed + 2)
    n_profiles = 3 if fast else 10
    fs_always_unique = True
    for _ in range(n_profiles):
        n_users = int(rng.integers(2, 5))
        random_profile = random_mixed_profile(n_users, rng)
        eqs = find_all_nash(fs, random_profile,
                            n_starts=6 if fast else 12, rng=rng,
                            gain_tol=1e-6, distinct_tol=1e-3)
        if len(eqs) > 1:
            fs_always_unique = False

    passed = (planted_ok and mirror_ok and len(fifo_eqs) >= 2
              and len(fs_eqs) == 1 and fs_always_unique)
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID, claim=CLAIM, passed=passed,
        tables=[witness_table, eq_table],
        summary={
            "fifo_equilibria_on_witness": len(fifo_eqs),
            "fs_equilibria_on_witness": len(fs_eqs),
            "fs_unique_on_random_profiles": fs_always_unique,
        },
        notes=["the witness FIFO game has a near-flat equilibrium "
               "component; the planted pair certifies at gain < 1e-8",
               "the witness utility is convex as a function — inside "
               "the paper's literal AU wording; under the concave "
               "(convex-preferences) reading our separable/quasi-linear "
               "constructions all yield contraction best replies for "
               "FIFO, so only the Fair Share half of the claim is "
               "exercised there"])
