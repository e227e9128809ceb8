"""Microbenchmarks of the library's hot paths.

These complement the experiment benchmarks: they time the primitives
the reproduction leans on (allocation evaluation, analytic Jacobians,
best responses, Nash solves, the discrete-event loop) so performance
regressions are visible independently of the experiment logic.

The event-loop throughput matrix (``test_event_loop_throughput``)
sweeps the four kernel-backed packet disciplines across utilizations
rho in {0.5, 0.9, 0.97} and reports events per second.  Running this
file as a script times the same matrix without pytest — once per
engine backend (``scalar`` and, when a C toolchain is present,
``chunked``) — plus the sharded switch-graph aggregate, and appends
the numbers to ``BENCH_sim.json`` (one entry per run, tagged with the
engine version and backend) so throughput can be tracked across
engine changes::

    PYTHONPATH=src python benchmarks/bench_micro.py -o BENCH_sim.json

The sharded rows report *aggregate* events/s over an 8-switch ring
(32 users, two hops each) at per-switch utilization 0.9, for each
jobs count up to the box's core count.  On a single-core runner the
extra worker processes only add IPC overhead, so the jobs=1 row is
the honest aggregate figure there; scaling is linear in cores because
the switches share no state between window barriers.
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.game.best_response import best_response
from repro.game.nash import solve_nash
from repro.network.sharded import SwitchGraphConfig, simulate_sharded
from repro.sim import cache as sim_cache
from repro.sim.kernels import kernels_available
from repro.sim.runner import (
    ENGINE_VERSION,
    ENV_ENGINE_BACKEND,
    SimulationConfig,
    simulate,
)
from repro.users.families import LinearUtility
from repro.users.profiles import lemma5_profile

RATES8 = np.linspace(0.02, 0.09, 8)
FS = FairShareAllocation()
FIFO = ProportionalAllocation()

#: The event-loop matrix: the four disciplines with a compiled kernel
#: crossed with light, heavy, and near-saturation load.
LOOP_POLICIES = ("fifo", "fair-share", "fair-queueing", "round-robin")
LOOP_RHOS = (0.5, 0.9, 0.97)


def loop_config(policy: str, rho: float,
                horizon: float = 20000.0) -> SimulationConfig:
    """A 4-user event-loop benchmark config at utilization ``rho``.

    The rates keep the paper's heterogeneous 1:2:3:4 profile (distinct
    rates matter: an equal-rate profile makes the Fair Share ladder
    degenerate to a single class, i.e. to FIFO).
    """
    base = np.array([0.08, 0.16, 0.24, 0.32]) * (rho / 0.8)
    return SimulationConfig(rates=tuple(float(r) for r in base),
                            policy=policy, horizon=horizon,
                            warmup=horizon * 0.05, seed=0)


def test_fs_congestion_eval(benchmark):
    """Fair Share allocation evaluation, 8 users."""
    result = benchmark(FS.congestion, RATES8)
    assert np.all(np.isfinite(result))


def test_fifo_congestion_eval(benchmark):
    """Proportional allocation evaluation, 8 users."""
    result = benchmark(FIFO.congestion, RATES8)
    assert np.all(np.isfinite(result))


def test_fs_analytic_jacobian(benchmark):
    """Analytic dC_i/dr_j matrix for Fair Share, 8 users."""
    jac = benchmark(FS.jacobian, RATES8)
    assert np.allclose(np.triu(jac, k=1), 0.0)


def test_best_response_fs(benchmark):
    """One golden-section best response under Fair Share."""
    utility = LinearUtility(gamma=0.3)
    rates = np.array([0.0, 0.2, 0.3])
    result = benchmark(best_response, FS, utility, rates, 0)
    assert 0.0 < result.x < 1.0


def test_nash_solve_fs_3users(benchmark):
    """Damped best-response Nash solve, 3 Fair Share users."""
    profile = [LinearUtility(gamma=g) for g in (0.2, 0.4, 0.7)]
    result = benchmark.pedantic(
        lambda: solve_nash(FS, profile), rounds=3, iterations=1)
    assert result.converged


def test_nash_solve_planted_5users(benchmark):
    """Nash solve on a planted 5-user Lemma-5 profile."""
    target = np.linspace(0.05, 0.15, 5)
    profile = lemma5_profile(FS, target)
    result = benchmark.pedantic(
        lambda: solve_nash(FS, profile), rounds=3, iterations=1)
    assert result.converged


@pytest.mark.parametrize("rho", LOOP_RHOS)
@pytest.mark.parametrize("policy", LOOP_POLICIES)
def test_event_loop_throughput(benchmark, policy, rho):
    """Discrete-event loop: 4 heterogeneous users, 5000 time units."""
    config = loop_config(policy, rho, horizon=5000.0)
    result = benchmark.pedantic(lambda: simulate(config), rounds=3,
                                iterations=1)
    events = result.arrivals + result.departures
    print(f"\n{policy} rho={rho}: {events} events processed")
    assert result.departures > 1000


def measure_event_loop(rounds: int = 3):
    """Best-of-``rounds`` event-loop throughput for the full matrix.

    Times every cell once per available engine backend (``scalar``
    always; ``chunked`` when a C toolchain can build the kernels) and
    returns run records (backend, policy, rho, events, seconds,
    events_per_sec) tagged with the engine version — the rows appended
    to ``BENCH_sim.json`` in script mode.
    """
    backends = ["scalar"]
    if kernels_available():
        backends.append("chunked")
    sim_cache.set_enabled(False)
    saved_backend = os.environ.get(ENV_ENGINE_BACKEND)
    runs = []
    try:
        for backend in backends:
            os.environ[ENV_ENGINE_BACKEND] = backend
            for policy in LOOP_POLICIES:
                for rho in LOOP_RHOS:
                    config = loop_config(policy, rho)
                    best = float("inf")
                    events = 0
                    for _ in range(rounds):
                        started = time.perf_counter()
                        result = simulate(config)
                        elapsed = time.perf_counter() - started
                        events = result.arrivals + result.departures
                        best = min(best, elapsed)
                    runs.append({
                        "engine_version": ENGINE_VERSION,
                        "backend": backend,
                        "policy": policy,
                        "rho": rho,
                        "events": events,
                        "seconds": round(best, 6),
                        "events_per_sec": round(events / best, 1),
                    })
    finally:
        if saved_backend is None:
            os.environ.pop(ENV_ENGINE_BACKEND, None)
        else:
            os.environ[ENV_ENGINE_BACKEND] = saved_backend
        sim_cache.set_enabled(None)
    return runs


def ring_config(n_switches: int = 8,
                horizon: float = 200000.0) -> SwitchGraphConfig:
    """The sharded benchmark graph: an 8-switch FIFO ring.

    Each switch sources 4 heterogeneous users (1:2:3:4 rates) routed
    over two hops, so every switch carries 8 flows at utilization 0.9
    — the same per-switch load as the single-switch rho=0.9 cells.
    """
    per_switch = np.array([0.08, 0.16, 0.24, 0.32]) * (0.9 / 0.8 / 2.0)
    rates, routes = [], []
    for alpha in range(n_switches):
        for rate in per_switch:
            rates.append(float(rate))
            routes.append((alpha, (alpha + 1) % n_switches))
    return SwitchGraphConfig(rates=rates, routes=routes,
                             policies=["fifo"] * n_switches,
                             horizon=horizon, warmup=horizon * 0.01,
                             seed=0, window=10000.0,
                             link_delay=10000.0)


def measure_sharded(rounds: int = 2):
    """Aggregate sharded throughput for each jobs count up to cores.

    Worker placement never changes the measurements (that is golden-
    tested), only the wall clock, so the rows differ solely in
    ``jobs``/``seconds``.  ``cpu_count`` is recorded with every row:
    on boxes with fewer cores than workers the extra processes add
    only IPC overhead, and the expected speedup is linear in *cores*,
    not in jobs.
    """
    cores = os.cpu_count() or 1
    config = ring_config()
    runs = []
    for jobs in sorted({1, min(2, cores), min(4, cores)}):
        best = float("inf")
        events = 0
        for _ in range(rounds):
            started = time.perf_counter()
            result = simulate_sharded(config, jobs=jobs)
            elapsed = time.perf_counter() - started
            events = result.events
            best = min(best, elapsed)
        runs.append({
            "engine_version": ENGINE_VERSION,
            "benchmark": "sharded-aggregate",
            "topology": "fifo-ring",
            "n_switches": len(config.policies),
            "n_users": len(config.rates),
            "jobs": jobs,
            "cpu_count": cores,
            "window": config.window,
            "events": events,
            "seconds": round(best, 6),
            "events_per_sec": round(events / best, 1),
        })
    return runs


def append_trajectory(path: str, runs) -> None:
    """Append run records to the ``BENCH_sim.json`` trajectory file."""
    document = {"benchmark": "event-loop-throughput", "runs": []}
    try:
        with open(path) as handle:
            existing = json.load(handle)
        if isinstance(existing.get("runs"), list):
            document["runs"] = existing["runs"]
    except (OSError, ValueError):
        pass
    document["runs"].extend(runs)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    """Script mode: time the event-loop matrix, append the trajectory."""
    parser = argparse.ArgumentParser(
        description="event-loop throughput benchmark")
    parser.add_argument("-o", "--output", default="BENCH_sim.json",
                        help="trajectory file to append to")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell (best is kept)")
    args = parser.parse_args(argv)
    runs = measure_event_loop(rounds=args.rounds)
    header = (f"{'backend':8s} {'policy':14s} {'rho':>5s} "
              f"{'events':>8s} {'seconds':>9s} {'events/s':>12s}")
    print(f"engine {ENGINE_VERSION}")
    print(header)
    for run in runs:
        print(f"{run['backend']:8s} {run['policy']:14s} "
              f"{run['rho']:5.2f} {run['events']:8d} "
              f"{run['seconds']:9.4f} {run['events_per_sec']:12,.0f}")
    sharded_runs = measure_sharded()
    print(f"\n{'sharded ring':23s} {'jobs':>4s} {'events':>9s} "
          f"{'seconds':>9s} {'agg ev/s':>12s}")
    for run in sharded_runs:
        print(f"{run['n_switches']:2d} switches, "
              f"{run['cpu_count']} core(s) {run['jobs']:4d} "
              f"{run['events']:9d} {run['seconds']:9.4f} "
              f"{run['events_per_sec']:12,.0f}")
    runs = runs + sharded_runs
    append_trajectory(args.output, runs)
    print(f"appended {len(runs)} run(s) to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
