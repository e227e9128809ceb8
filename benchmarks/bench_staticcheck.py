"""Benchmarks of the ``greedwork check`` engine.

The suite's usefulness depends on it being cheap enough to run on
every edit: a cold run re-analyzes the whole tree, and a warm run must
come entirely from the content-hash cache (``analyzed=0`` — CI gates
on this).  These benchmarks time both so the engine's wall-time
trajectory is tracked per commit, not just asserted once.

Running this file as a script times the matrix without pytest and
appends the rows to ``BENCH_staticcheck.json``::

    PYTHONPATH=src python benchmarks/bench_staticcheck.py \\
        -o BENCH_staticcheck.json

Each row carries the file/finding counters next to the wall time so a
slowdown can be attributed (more files analyzed vs. slower rules), and
where it ran: ``cpu_count`` and the git revision of the measured
checkout (``git_rev``; ``-dirty`` marks uncommitted changes, ``null``
outside a git tree), so rows from different hosts or commits are never
compared by accident.

Those two rows time ``run_checks`` in process.  The ``startup-*`` rows
time whole commands as a user runs them, each a fresh ``python -m
repro`` process (best of :data:`STARTUP_ROUNDS`): ``--help``, a cold
check (``--no-cache``) and a warm one, so that what a command imports
before it starts work shows in a row.
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

from provenance import provenance, time_repro
from repro.staticcheck import run_checks

#: The paths the repo's own CI gates run the suite over.
CHECK_PATHS = ("src", "tests", "benchmarks", "examples")
#: Runs per start-up row; the best is kept.
STARTUP_ROUNDS = 5


def measure_staticcheck(rounds: int = 3):
    """Best-of-``rounds`` timings for a cold and a warm check.

    Uses a throwaway cache directory so the run never perturbs the
    repository's real ``.greedwork_cache``.  Returns one row per kind
    with the wall time and the run counters.
    """
    root = Path(__file__).resolve().parent.parent
    paths = [root / p for p in CHECK_PATHS]
    runs = []
    with tempfile.TemporaryDirectory(prefix="gwbench-") as cache_dir:
        for kind, fresh_cache in (("check-cold", True),
                                  ("check-warm", False)):
            best = float("inf")
            counters = {}
            for _ in range(rounds):
                if fresh_cache:
                    for entry in Path(cache_dir).glob("*"):
                        entry.unlink()
                started = time.perf_counter()
                result = run_checks(paths, project_root=root, cache=True,
                                    cache_dir=Path(cache_dir))
                elapsed = time.perf_counter() - started
                if elapsed < best:
                    best = elapsed
                    counters = {
                        "files": result.files_checked,
                        "analyzed": result.files_analyzed,
                        "cached": result.files_from_cache,
                        "project_analyzed": result.project_analyzed,
                        "findings": len(result.findings),
                    }
                if fresh_cache:
                    break               # cold timing is one-shot by nature
            row = {"kind": kind, "seconds": round(best, 6)}
            row.update(counters)
            row.update(provenance())
            runs.append(row)
    return runs


def measure_startup(rounds: int = STARTUP_ROUNDS):
    """Best-of-``rounds`` end-to-end times of ``repro --help`` and of a
    cold and a warm ``repro check`` over :data:`CHECK_PATHS`.

    The warm check reads a throwaway cache directory that one untimed
    run fills first.  Each row records the command and its exit code.
    """
    root = Path(__file__).resolve().parent.parent
    check = ["check", *CHECK_PATHS]
    runs = []
    with tempfile.TemporaryDirectory(prefix="gwbench-") as cache_dir:
        warm = check + ["--cache-dir", cache_dir]
        time_repro(warm, 1, root)
        for kind, argv in (("startup-help", ["--help"]),
                           ("startup-check-cold", check + ["--no-cache"]),
                           ("startup-check-warm", warm)):
            seconds, proc = time_repro(argv, rounds, root)
            command = " ".join(["repro", *argv]).replace(cache_dir,
                                                         "<tmp>")
            runs.append({"kind": kind, "seconds": round(seconds, 6),
                         "command": command,
                         "rounds": rounds, "exit": proc.returncode,
                         **provenance()})
    return runs


def test_check_warm_fully_cached():
    """A warm run over the repo tree analyzes zero files and serves the
    whole-program rules from the cache."""
    rows = {row["kind"]: row for row in measure_staticcheck(rounds=1)}
    assert rows["check-warm"]["analyzed"] == 0
    assert rows["check-warm"]["project_analyzed"] is False


def append_trajectory(path: str, runs) -> None:
    """Append run records to the ``BENCH_staticcheck.json`` trajectory."""
    document = {"benchmark": "staticcheck", "runs": []}
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
    """Script mode: time the engine matrix, append the trajectory."""
    parser = argparse.ArgumentParser(
        description="greedwork check engine benchmark")
    parser.add_argument("-o", "--output",
                        default="BENCH_staticcheck.json",
                        help="trajectory file to append to")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell (best is kept)")
    args = parser.parse_args(argv)
    runs = measure_staticcheck(rounds=args.rounds)
    print(f"{'kind':12s} {'seconds':>9s} {'files':>6s} {'analyzed':>9s} "
          f"{'findings':>9s}")
    for run in runs:
        print(f"{run['kind']:12s} {run['seconds']:9.4f} "
              f"{run['files']:6d} {run['analyzed']:9d} "
              f"{run['findings']:9d}")
    startup = measure_startup()
    for run in startup:
        print(f"{run['kind']:20s} {run['seconds']:9.4f}  "
              f"exit {run['exit']}  {run['command']}")
    runs += startup
    append_trajectory(args.output, runs)
    print(f"appended {len(runs)} run(s) to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
