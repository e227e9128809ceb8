"""Sweep-orchestrator benchmark: scheduler overhead, dedup, resume.

The scenario-sweep scheduler (`repro.sweep`) is the harness's load
front door; this file measures the three properties the acceptance
gates lean on, against the ~200-cell built-in ``paper`` catalog:

``cold``
    Everything simulates.  Worker *utilization* (busy seconds over
    ``wall x jobs``) is the dispatch-efficiency headline; its
    complement is the scheduler overhead (queueing, pickling, journal
    writes, warm-probe misses).
``warm``
    An identical re-run against the now-populated sim cache must
    resolve every cell in the parent — ``fresh_events=0``, no worker
    round-trips — and the wall-time ratio against the cold run is the
    dedup-before-dispatch payoff.
``resume``
    A journal with records dropped (the kill-at-halfway scenario)
    must restart delta-only: journal cells replay for free, only the
    missing cells touch the cache/workers.
``startup-warm``
    ``repro sweep run`` as a user runs it, a fresh process against the
    warm cache (best of five, journal in a directory of its own): the
    in-process ``warm`` phase plus start-up.  It must report
    ``fresh_events=0``.

Script mode appends one row per phase to the ``BENCH_sweep.json``
trajectory (each stamped with ``cpu_count`` and ``git_rev`` by
``provenance.py``) and writes the cold run's Pareto report artifact
(JSON + ASCII frontier)::

    PYTHONPATH=src python benchmarks/bench_sweep.py -o BENCH_sweep.json

``--smoke`` swaps in the <=20-cell ``smoke`` catalog and is the CI
gate: warm ``fresh_events`` must be zero and the resume must be
delta-only and simulate (``fresh_events > 0``: its cache starts
empty), with the utilization/speedup thresholds relaxed (a tiny
catalog on a loaded CI box cannot prove a throughput claim, only a
correctness one).
"""

import argparse
import json
import os
import re
import tempfile

from provenance import provenance, time_repro
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim.runner import ENGINE_VERSION
from repro.sweep import builtin_catalog, render_report, report_document
from repro.sweep import journal as sweep_journal
from repro.sweep.journal import read_journal
from repro.sweep.scheduler import run_sweep

#: Cold-run gates for the full catalog (acceptance criteria).
MIN_UTILIZATION = 0.8
MIN_WARM_SPEEDUP = 50.0
#: Runs of the warm command-line sweep; the best is kept.
STARTUP_ROUNDS = 5


def result_row(phase, jobs, result):
    """One JSON trajectory row for a finished sweep phase."""
    return {
        "benchmark": "sweep-orchestrator",
        "engine": ENGINE_VERSION,
        "catalog": result.catalog_name,
        "digest": result.digest,
        "phase": phase,
        "jobs": jobs,
        **provenance(),
        "cells": len(result.outcomes),
        "failed": len(result.failures),
        "events": result.events,
        "fresh_events": result.fresh_events,
        "wall_s": round(result.wall_s, 4),
        "busy_s": round(result.busy_s, 4),
        "utilization": round(result.utilization, 4),
        "scheduler_overhead": round(1.0 - result.utilization, 4),
        "sources": result.source_counts(),
    }


def _prewarm(pool):
    """Fork the workers before timing starts.

    The orchestrator's whole point is a *persistent* pool: spin-up is
    paid once per session, not per sweep, so the cold-run utilization
    gate measures dispatch efficiency rather than fork latency.
    """
    for future in [pool.submit(abs, -1) for _ in range(pool.jobs)]:
        future.result()


def _drop_cell_records(journal_file, keep):
    """Truncate a journal to its first ``keep`` cell records."""
    with open(journal_file, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    kept, cells = [], 0
    for line in lines:
        if json.loads(line).get("kind") == "cell":
            cells += 1
            if cells > keep:
                continue
        kept.append(line)
    with open(journal_file, "w", encoding="utf-8") as handle:
        handle.write("\n".join(kept) + "\n")
    return cells - keep


def measure(catalog_name, jobs, report_out, smoke):
    """Run the three phases; return (rows, failures)."""
    catalog = builtin_catalog(catalog_name)
    rows, failures = [], []
    scratch_ctx = tempfile.TemporaryDirectory()
    with scratch_ctx as scratch:
        os.environ[sim_cache.ENV_DIR] = os.path.join(scratch, "sim")
        os.environ[sweep_journal.ENV_DIR] = os.path.join(scratch,
                                                         "sweeps")
        sim_cache.set_enabled(True)
        pool = WorkerPool(jobs) if jobs > 1 else None
        try:
            if pool is not None:
                _prewarm(pool)

            cold = run_sweep(catalog, jobs=jobs, pool=pool,
                             cache_enabled=True)
            rows.append(result_row("cold", jobs, cold))
            print(f"cold: {len(cold.outcomes)} cells in "
                  f"{cold.wall_s:.2f}s at jobs={jobs} "
                  f"(utilization {cold.utilization:.2f}, "
                  f"fresh_events={cold.fresh_events})")
            if cold.failures:
                failures.append(
                    f"cold run had {len(cold.failures)} crashed "
                    f"cell(s)")
            if not smoke and jobs > 1 \
                    and cold.utilization < MIN_UTILIZATION:
                failures.append(
                    f"cold utilization {cold.utilization:.2f} < "
                    f"{MIN_UTILIZATION} (scheduler overhead "
                    f"{1.0 - cold.utilization:.2f})")

            warm = run_sweep(catalog, jobs=jobs, pool=pool,
                             cache_enabled=True)
            speedup = (cold.wall_s / warm.wall_s
                       if warm.wall_s > 0.0 else float("inf"))
            warm_row = result_row("warm", jobs, warm)
            warm_row["speedup_vs_cold"] = round(min(speedup, 1e6), 1)
            rows.append(warm_row)
            print(f"warm: {warm.wall_s:.4f}s, "
                  f"fresh_events={warm.fresh_events}, "
                  f"speedup {speedup:.0f}x, sources "
                  f"{warm.source_counts()}")
            if warm.fresh_events != 0:
                failures.append(
                    f"warm re-run simulated fresh_events="
                    f"{warm.fresh_events} (expected 0)")
            if warm.source_counts()["fresh"] != 0:
                failures.append("warm re-run dispatched cells to "
                                "workers")
            if not smoke and speedup < MIN_WARM_SPEEDUP:
                failures.append(
                    f"warm speedup {speedup:.0f}x < "
                    f"{MIN_WARM_SPEEDUP:.0f}x")

            argv = ["sweep", "run", "--builtin", catalog_name, "--quiet"]
            seconds, proc = time_repro(
                argv, STARTUP_ROUNDS, scratch,
                env={sweep_journal.ENV_DIR: os.path.join(scratch,
                                                          "sweeps-cli")})
            match = re.search(r"fresh_events=(\d+)", proc.stderr)
            fresh = int(match.group(1)) if match else None
            rows.append({
                "benchmark": "sweep-orchestrator",
                "engine": ENGINE_VERSION, "catalog": catalog_name,
                "phase": "startup-warm",
                "command": " ".join(["repro", *argv]),
                "rounds": STARTUP_ROUNDS, "exit": proc.returncode,
                **provenance(), "fresh_events": fresh,
                "wall_s": round(seconds, 4)})
            print(f"startup-warm: {seconds:.4f}s (best of "
                  f"{STARTUP_ROUNDS} `repro sweep run` processes), "
                  f"exit {proc.returncode}, fresh_events={fresh}")
            if proc.returncode != 0 or fresh != 0:
                failures.append(
                    f"warm `repro sweep run` exited {proc.returncode} "
                    f"with fresh_events={fresh} (expected 0 and 0)")

            # Kill-at-halfway resume: drop the tail of the journal,
            # point the sim cache somewhere cold, and resume — only
            # the dropped cells may run.
            kept = len(catalog) // 2
            dropped = _drop_cell_records(cold.journal_path, kept)
            os.environ[sim_cache.ENV_DIR] = os.path.join(scratch,
                                                         "sim-resume")
            resumed = run_sweep(catalog, jobs=jobs, pool=pool,
                                resume=True, cache_enabled=True)
            counts = resumed.source_counts()
            resume_row = result_row("resume", jobs, resumed)
            resume_row["journal_cells_dropped"] = dropped
            resume_row["delta_only"] = (counts["journal"] == kept
                                        and counts["fresh"] == dropped)
            rows.append(resume_row)
            print(f"resume: dropped {dropped} of {len(catalog)} "
                  f"journal records; replayed {counts['journal']}, "
                  f"re-ran {counts['fresh']} "
                  f"(fresh_events={resumed.fresh_events})")
            if not resume_row["delta_only"]:
                failures.append(
                    f"resume was not delta-only: sources {counts} "
                    f"(wanted journal={kept}, fresh={dropped})")
            # Its cache directory starts empty, so the re-run cells
            # must simulate; none means workers used another cache.
            if resumed.fresh_events <= 0:
                failures.append(
                    f"resume re-ran {counts['fresh']} cell(s) from an "
                    f"empty cache with fresh_events="
                    f"{resumed.fresh_events} (expected > 0)")
            if len(read_journal(resumed.journal_path)) \
                    != len(catalog):
                failures.append("resumed journal is not whole again")

            if report_out:
                with open(report_out, "w", encoding="utf-8") as handle:
                    json.dump(report_document(cold), handle, indent=2)
                print(f"Pareto report artifact: {report_out}")
            print()
            print(render_report(cold, max_groups=4))
        finally:
            if pool is not None:
                pool.shutdown()
            sim_cache.set_enabled(None)
            os.environ.pop(sim_cache.ENV_DIR, None)
            os.environ.pop(sweep_journal.ENV_DIR, None)
    return rows, failures


def append_trajectory(path, runs):
    """Append run records to the shared trajectory file."""
    document = {"benchmark": "sweep-orchestrator", "runs": []}
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sweep-orchestrator benchmark "
                    "(cold/warm/resume phases)")
    parser.add_argument("-o", "--output", default="BENCH_sweep.json",
                        help="trajectory file to append to")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny catalog, correctness "
                             "gates only")
    parser.add_argument("--report-out", default="sweep_report.json",
                        help="Pareto report artifact path "
                             "('' disables)")
    args = parser.parse_args(argv)
    catalog_name = "smoke" if args.smoke else "paper"
    print(f"engine {ENGINE_VERSION}; catalog {catalog_name}; "
          f"jobs {args.jobs}")
    rows, failures = measure(catalog_name, args.jobs,
                             args.report_out, args.smoke)
    append_trajectory(args.output, rows)
    print(f"appended {len(rows)} row(s) to {args.output}")
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
