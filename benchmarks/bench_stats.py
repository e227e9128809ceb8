"""Events-to-target-CI benchmark for the adaptive-precision layer.

Where ``bench_micro.py`` tracks raw event-loop throughput, this file
tracks *statistical* throughput: how many simulated events each
estimation protocol needs before every user's 95% CI half-width is at
or below a fixed target.  The matrix crosses the three packet
disciplines with two utilizations and four protocols:

``fixed-horizon``
    The pre-adaptive baseline: one run at the reference horizon,
    plain Student-t batch means.  Its achieved half-width *defines*
    the cell's target, so its ratio is 1.0 by construction.

``control-variate``
    Restart protocol with the analytically-known controls regressed
    out (per-user arrival counts and the M/M/1 total-queue law in
    memoryless cells; per-user *arrived work* — the compound-Poisson
    statistic SFQ's virtual time integrates — in sized cells): fresh
    runs walk the geometric horizon ladder from scratch until the
    adjusted CI certifies the target.  Events count every restart.

``crn-paired``
    Common-random-number differencing against the analytic FIFO
    baseline: both legs of each ladder rung share arrival streams, the
    per-batch *difference* carries the noise, and the exactly-known
    M/M/1 FIFO composition supplies the mean.  Events count both legs.

``sequential``
    ``simulate_to_precision`` — control variates plus resumable
    horizon chunks, so the ladder is walked delta-only and total
    events equal the final horizon alone.

Script mode appends one record per cell/protocol to the
``BENCH_sim.json`` trajectory (same file as the throughput matrix,
rows tagged ``"benchmark": "events-to-ci"``)::

    PYTHONPATH=src python benchmarks/bench_stats.py -o BENCH_sim.json

``--resume-gate`` instead exercises the warm-cache contract CI leans
on: a precision rerun with a tighter target must report
``fresh_events`` only for the extension beyond the cached snapshot,
and an identical warm rerun must simulate nothing at all.
"""

import argparse
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np

import repro.obs as obs
from repro.sim import cache as sim_cache
from repro.sim.runner import (
    ENGINE_VERSION,
    SimulationConfig,
    config_sized,
    control_variate_summary,
    paired_configs,
    simulate,
    simulate_to_precision,
)
from repro.sim.stats import t_quantile

POLICIES = ("fifo", "fair-share", "fair-queueing")
RHOS = (0.5, 0.9)

#: Geometric ladder shared by every protocol: the restart protocols
#: walk it from scratch, ``simulate_to_precision`` walks it delta-only.
INITIAL_HORIZON = 8000.0
WARMUP = 1000.0
GROWTH = 2.0
LADDER_RUNGS = 5
#: Batch layout fixed across horizons — the resumability precondition.
BATCH_QUOTA = (INITIAL_HORIZON - WARMUP) / 20.0

REFERENCE_HORIZON = WARMUP + (INITIAL_HORIZON - WARMUP) * GROWTH ** (
    LADDER_RUNGS - 1)


def cell_config(policy: str, rho: float,
                horizon: float = INITIAL_HORIZON) -> SimulationConfig:
    """The 4-user 1:2:3:4 heterogeneous profile at utilization rho."""
    base = np.array([0.08, 0.16, 0.24, 0.32]) * (rho / 0.8)
    return SimulationConfig(rates=tuple(float(r) for r in base),
                            policy=policy, horizon=horizon,
                            warmup=WARMUP, seed=0,
                            batch_quota=BATCH_QUOTA)


def ladder(config: SimulationConfig):
    """The deterministic horizon schedule up to the reference horizon."""
    horizons = []
    horizon = config.horizon
    for _ in range(LADDER_RUNGS):
        horizons.append(horizon)
        horizon = config.warmup + (horizon - config.warmup) * GROWTH
    return horizons


def raw_halfwidth(result) -> float:
    """Max per-user plain Student-t batch-means half-width."""
    summary = control_variate_summary(result,
                                      use_control_variates=False)
    return float(np.max(summary.half_widths))


def measure_fixed(config: SimulationConfig):
    """Baseline: one reference-horizon run, raw batch means."""
    result = simulate(replace(config, horizon=REFERENCE_HORIZON))
    return result.events, raw_halfwidth(result)


def measure_plain_sequential(config: SimulationConfig, target: float):
    """Fallback for sized CRN cells: delta-only ladder, raw batch CIs.

    Sized mode (SFQ) admits no CRN pairing against the FIFO baseline
    (the size draws desynchronize the legs), so that protocol's honest
    fallback is plain sequential stopping — resumable chunks,
    Student-t batch means, nothing regressed out.  (The
    control-variate protocol no longer falls back here: sized cells
    regress on the exactly-known per-user arrived work.)
    """
    precision = simulate_to_precision(
        config, target_halfwidth=target, growth=GROWTH,
        max_horizon=REFERENCE_HORIZON, use_control_variates=False)
    return (precision.events,
            float(np.max(precision.summary.half_widths)))


def measure_control_variate(config: SimulationConfig, target: float):
    """Restart ladder with control-variate-adjusted CIs.

    Applies to every cell: memoryless cells regress on arrival counts
    plus the total-queue law, sized (SFQ) cells on arrived work.
    """
    events = 0
    for horizon in ladder(config):
        result = simulate(replace(config, horizon=horizon))
        events += result.events
        summary = control_variate_summary(result)
        half = float(np.max(summary.half_widths))
        if math.isfinite(half) and half <= target:
            break
    return events, half


def fifo_analytic_means(config: SimulationConfig) -> np.ndarray:
    """Exact per-user M/M/1 FIFO mean queues (PASTA composition)."""
    rates = np.asarray(config.rates, dtype=float)
    rho = float(rates.sum()) / config.service_rate
    return rates / rates.sum() * rho / (1.0 - rho)


def measure_crn_paired(config: SimulationConfig, target: float):
    """CRN differencing against the analytic FIFO baseline.

    Estimates the cell's per-user mean queues as ``analytic FIFO mean
    + (policy - fifo)`` where the difference is taken batch-by-batch
    over paired streams, so the CI covers only the paired gap.
    Events count both legs at every restart.  Sized cells fall back
    to plain sequential stopping — see ``measure_plain_sequential``.
    """
    if config_sized(config):
        return measure_plain_sequential(config, target)
    events = 0
    for horizon in ladder(config):
        rung = replace(config, horizon=horizon)
        fifo_leg, policy_leg = paired_configs(
            rung, ("fifo", rung.policy))
        a = simulate(fifo_leg)
        b = simulate(policy_leg)
        events += a.events + b.events
        diff = b.batch.per_batch - a.batch.per_batch
        n = diff.shape[0]
        half = float(np.max(
            t_quantile(0.95, n - 1) * diff.std(axis=0, ddof=1)
            / math.sqrt(n)))
        if math.isfinite(half) and half <= target:
            break
    return events, half


def measure_sequential(config: SimulationConfig, target: float):
    """Resumable sequential stopping: delta-only ladder walk."""
    precision = simulate_to_precision(
        config, target_halfwidth=target, growth=GROWTH,
        max_horizon=REFERENCE_HORIZON)
    return (precision.events,
            float(np.max(precision.summary.half_widths)),
            precision.achieved)


def measure_matrix():
    """The full events-to-CI matrix as BENCH_sim.json run records."""
    sim_cache.set_enabled(False)
    runs = []
    try:
        for policy in POLICIES:
            for rho in RHOS:
                config = cell_config(policy, rho)
                fixed_events, target = measure_fixed(config)

                def record(method, events, half, achieved=True):
                    runs.append({
                        "engine_version": ENGINE_VERSION,
                        "benchmark": "events-to-ci",
                        "policy": policy,
                        "rho": rho,
                        "method": method,
                        "target_halfwidth": round(target, 6),
                        "events": int(events),
                        "halfwidth": round(half, 6),
                        "ratio_vs_fixed": round(fixed_events
                                                / max(events, 1), 2),
                        "achieved": bool(achieved),
                    })

                record("fixed-horizon", fixed_events, target)
                record("control-variate",
                       *measure_control_variate(config, target))
                record("crn-paired",
                       *measure_crn_paired(config, target))
                record("sequential", *measure_sequential(config, target))
    finally:
        sim_cache.set_enabled(None)
    return runs


def append_trajectory(path: str, runs) -> None:
    """Append run records to the shared trajectory file."""
    document = {"benchmark": "event-loop-throughput", "runs": []}
    try:
        with open(path) as handle:
            existing = json.load(handle)
        if isinstance(existing.get("benchmark"), str):
            document["benchmark"] = existing["benchmark"]
        if isinstance(existing.get("runs"), list):
            document["runs"] = existing["runs"]
    except (OSError, ValueError):
        pass
    document["runs"].extend(runs)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def resume_gate() -> int:
    """CI gate: warm-cache precision reruns are delta-only.

    With a scratch persistent cache: (1) tightening the target must
    cost ``fresh_events`` equal to exactly the extension beyond the
    loose run's snapshot, and (2) an identical warm rerun must report
    zero fresh events while reproducing the cold schedule and numbers.
    """
    config = cell_config("fair-share", 0.9, horizon=6000.0)
    with tempfile.TemporaryDirectory() as scratch:
        os.environ[sim_cache.ENV_DIR] = scratch
        sim_cache.set_enabled(True)
        try:
            loose = simulate_to_precision(config, target_halfwidth=0.2)
            with obs.Scope() as counted:
                tight = simulate_to_precision(config,
                                              target_halfwidth=0.05)
            delta = counted.get("sim.cache.fresh_events")
            expected = tight.result.events - loose.result.events
            print(f"resume-gate: tighter target fresh_events={delta} "
                  f"expected-delta={expected}")
            if delta != expected:
                print("resume-gate: FAIL (extension was not delta-only)")
                return 1
            with obs.Scope() as counted:
                warm = simulate_to_precision(config,
                                             target_halfwidth=0.05)
            warm_fresh = counted.get("sim.cache.fresh_events")
            print(f"resume-gate: warm rerun fresh_events={warm_fresh}")
            if warm_fresh != 0:
                print("resume-gate: FAIL (warm rerun re-simulated)")
                return 1
            if (warm.horizons != tight.horizons
                    or not np.array_equal(warm.summary.means,
                                          tight.summary.means)):
                print("resume-gate: FAIL (warm rerun diverged)")
                return 1
        finally:
            sim_cache.set_enabled(None)
            os.environ.pop(sim_cache.ENV_DIR, None)
    print("resume-gate: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="events-to-target-CI benchmark matrix")
    parser.add_argument("-o", "--output", default="BENCH_sim.json",
                        help="trajectory file to append to")
    parser.add_argument("--resume-gate", action="store_true",
                        help="check the warm-cache delta-only "
                             "contract instead of timing the matrix")
    args = parser.parse_args(argv)
    if args.resume_gate:
        return resume_gate()
    runs = measure_matrix()
    print(f"engine {ENGINE_VERSION}")
    print(f"{'policy':14s} {'rho':>4s} {'method':16s} {'events':>9s} "
          f"{'halfwidth':>10s} {'target':>8s} {'x-fixed':>8s}")
    for run in runs:
        print(f"{run['policy']:14s} {run['rho']:4.2f} "
              f"{run['method']:16s} {run['events']:9d} "
              f"{run['halfwidth']:10.4f} {run['target_halfwidth']:8.4f} "
              f"{run['ratio_vs_fixed']:8.2f}")
    append_trajectory(args.output, runs)
    print(f"appended {len(runs)} run(s) to {args.output}")
    best = {}
    for run in runs:
        if run["method"] == "sequential" and run["achieved"]:
            best[(run["policy"], run["rho"])] = run["ratio_vs_fixed"]
    strong = sum(1 for ratio in best.values() if ratio >= 3.0)
    print(f"sequential protocol beats the fixed-horizon baseline "
          f"by >=3x on {strong} of {len(best)} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
