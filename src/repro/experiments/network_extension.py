"""Section 5.4 extension: a network of Fair Share switches.

The paper leaves the multi-switch game as future work, noting that
"straightforward generalizations of most of the single-switch results
remain true for networks" under the Poisson-output approximation.  This
experiment builds that generalization and tests three of the paper's
expectations:

1. *Equilibration*: on a two-switch network with crossing routes and
   Fair Share at every hop, best-response dynamics converge to one
   equilibrium from many starting points.
2. *Protection*: a route user's total congestion stays below the sum of
   per-hop symmetric bounds whatever the other users do.
3. *The Poisson approximation*: a packet-level FIFO/FIFO tandem, run
   as a two-switch line on the sharded switch-graph simulator, matches
   the analytic network model exactly in the mean (Jackson network),
   while Fair-Share ladders at both hops deviate only mildly — the
   approximation error the paper anticipates.
"""

from __future__ import annotations

import numpy as np

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.experiments.base import ExperimentReport, Table
from repro.game.nash import find_all_nash, solve_nash
from repro.game.protection import worst_case_congestion
from repro.network.model import NetworkAllocation, Route
from repro.network.sharded import simulate_sharded, tandem_config
from repro.numerics.rng import default_rng
from repro.users.families import PowerUtility

EXPERIMENT_ID = "network_extension"
CLAIM = ("On a network of Fair Share switches, selfish users still "
         "equilibrate robustly and stay protected; the Poisson-output "
         "approximation is exact for FIFO tandems and mild for ladders")


def _crossing_network(discipline_factory) -> NetworkAllocation:
    """Two switches; users A->[0], B->[1], C->[0, 1]."""
    return NetworkAllocation(
        switches=[discipline_factory(), discipline_factory()],
        routes=[Route([0]), Route([1]), Route([0, 1])])


def run(seed: int = 0, fast: bool = False) -> ExperimentReport:
    """Equilibration, protection, and tandem validation."""
    profile = [PowerUtility(gamma=0.5, q=1.5),
               PowerUtility(gamma=0.8, q=1.5),
               PowerUtility(gamma=0.6, q=1.5)]

    # 1. Robust equilibration on the crossing topology.
    fs_net = _crossing_network(FairShareAllocation)
    fifo_net = _crossing_network(ProportionalAllocation)
    n_starts = 5 if fast else 10
    fs_eqs = find_all_nash(fs_net, profile, n_starts=n_starts,
                           rng=default_rng(seed),
                           gain_tol=1e-6, distinct_tol=1e-3)
    eq_table = Table(
        title="Crossing network (A->S0, B->S1, C->S0+S1)",
        headers=["discipline", "equilibria found", "rates",
                 "route user's total c"])
    fs_nash = solve_nash(fs_net, profile)
    fifo_nash = solve_nash(fifo_net, profile)
    eq_table.add_row("fair-share", len(fs_eqs),
                     str(np.round(fs_nash.rates, 4)),
                     float(fs_nash.congestion[2]))
    eq_table.add_row("fifo", "-", str(np.round(fifo_nash.rates, 4)),
                     float(fifo_nash.congestion[2]))
    fs_unique = len(fs_eqs) == 1 and fs_nash.is_equilibrium(1e-5)

    # 2. Protection of the route user (index 2) under FS everywhere.
    bound = fs_net.protection_bound(0.1, 2)
    report = worst_case_congestion(fs_net, 2, 0.1, 3,
                                   rng=default_rng(seed + 1),
                                   n_samples=60 if fast else 200,
                                   bound=bound)
    protect_table = Table(
        title="Network protection of the two-hop user (rate 0.1)",
        headers=["sum of per-hop bounds", "worst congestion found",
                 "protected"])
    protected = report.worst_congestion <= bound * (1.0 + 1e-9) + 1e-12
    protect_table.add_row(float(bound), report.worst_congestion,
                          protected)

    # 3. Tandem DES vs the analytic network model (all users two-hop).
    rates = np.array([0.1, 0.2, 0.3])
    shared_routes = [Route([0, 1])] * 3
    horizon = 20000.0 if fast else 80000.0
    tandem_table = Table(
        title="Tandem validation: simulated vs analytic total queues",
        headers=["policy pair", "user", "simulated total c",
                 "analytic total c", "relative error"])
    approx_ok = True
    for label, factory, policies in (
            ("fifo/fifo", ProportionalAllocation, ("fifo", "fifo")),
            ("ladder/ladder", FairShareAllocation,
             ("fair-share", "fair-share"))):
        analytic = NetworkAllocation(
            switches=[factory(), factory()],
            routes=shared_routes).congestion(rates)
        sim = simulate_sharded(tandem_config(rates, policies, horizon,
                                             seed=seed))
        tolerance = 0.12 if label == "fifo/fifo" else 0.25
        for i in range(3):
            measured = float(sim.total_mean_queues[i])
            expected = float(analytic[i])
            error = abs(measured - expected) / expected
            tandem_table.add_row(label, i, measured, expected, error)
            if error > tolerance:
                approx_ok = False

    passed = fs_unique and protected and approx_ok
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID, claim=CLAIM, passed=passed,
        tables=[eq_table, protect_table, tandem_table],
        summary={
            "fs_network_unique_equilibrium": fs_unique,
            "route_user_protected": protected,
            "poisson_approximation_ok": approx_ok,
        },
        notes=["FIFO tandems are Jackson networks (approximation "
               "exact); ladder tandems test the paper's Poisson-output "
               "caveat"])
