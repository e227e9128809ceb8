"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets the workload up (several times; the median is
``setup_s``), runs timed passes for ``--seconds`` seconds, checks the
outputs and prints the end-to-end metrics.  Times are reported in
host-calibrated seconds (see ``hostspeed.py``); the raw medians are
printed alongside.  ``--trace 1`` runs the
same workload untraced and traced at the same seed, checks that both
produce identical outputs, prints the per-layer metrics and writes the
spans as trace-event JSON under ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any correctness check failed and 2 when the benchmark cannot
run here (no ``src/repro`` or ``BENCHMARK.json`` under the working
directory).  The sweep uses ``min(2, nproc)`` workers, so it never runs
more workers than the cores this process may use.  See README.md for
the workloads and the layer-to-metric map.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import tracing
from workloads import WORKLOADS, canonical, peak_rss_mb


def metric_units(spec_path):
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def available_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # pragma: no cover
        return os.cpu_count() or 1


def source_digest(src):
    """SHA-256 over the package sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(root, args, jobs, nproc, passes):
    """The row identifying what was measured, where, and how."""
    from repro.sim import kernels
    from repro.sim.runner import ENGINE_VERSION

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "git_rev": git_rev(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "engine_version": ENGINE_VERSION,
        "nproc": nproc, "cpu_count": os.cpu_count(), "jobs": jobs,
        "jobs_verified": jobs <= nproc,
        "kernels_available": kernels.kernels_available(),
        "python": platform.python_version(),
    }


#: Seconds of repeated set-ups per run.  Set-up writes files and
#: compiles, and the host's file-system and process-creation speed
#: wanders over seconds; a longer window averages more of it.
SETUP_SECONDS = 2.0
#: Set-ups per run at least.
SETUP_REPEATS = 5
#: Host-speed probes taken before each set-up.
SETUP_PROBES = 3


def timed_setup(workload):
    """``setup_s``: median of the repeated set-ups, calibrated; raw.

    No set-up is interrupted: just before each one, outside its timer,
    garbage is collected and the host is probed, so that neither a
    collection owed by earlier work nor a probe lands in a set-up of a
    few tens of milliseconds.
    """
    times, samples = [], []
    begun = time.perf_counter()
    while (len(times) < SETUP_REPEATS
           or time.perf_counter() - begun < SETUP_SECONDS):
        workload.discard()
        gc.collect()
        samples.extend(hostspeed.sample() for _ in range(SETUP_PROBES))
        started = time.perf_counter()
        workload.setup(len(times))
        times.append(time.perf_counter() - started)
    raw = statistics.median(times)
    return raw * hostspeed.calibration(samples), raw


def identity_failures(passes):
    """Passes whose output differs from the first pass's."""
    first = canonical(passes[0]["output"])
    return sum(canonical(p["output"]) != first for p in passes[1:])


def measure(workload, seconds):
    """Timed passes for ``seconds``; the end-to-end metrics."""
    passes = []
    started = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - started < seconds):
        passes.append(workload.run_pass(len(passes)))
    print(f"raw wall_s = "
          f"{statistics.median(p['raw_wall_s'] for p in passes)!r} s")
    attempted, failed = workload.check(passes)
    if workload.repeats_inputs:
        attempted += len(passes) - 1
        failed += identity_failures(passes)
    metrics = workload.end_to_end(passes)
    metrics["peak_rss_mb"] = peak_rss_mb(workload.pool)
    return metrics, attempted, failed, len(passes)


def measure_traced(workload):
    """Untraced and traced passes; the per-layer metrics and tracer."""
    tracer = tracing.Tracer()
    untraced, traced, extra = workload.trace_run(tracer)
    if tracer.installed:
        raise RuntimeError("tracing wrappers were left installed")
    passes = untraced + traced
    attempted, failed = workload.check(passes)
    attempted += len(passes) - 1
    failed += identity_failures(passes)
    extra["failed_frac"] = failed / attempted
    metrics = tracing.layer_metrics(tracer.spans, extra)
    return metrics, attempted, failed, len(passes), tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isdir(os.path.join(src, "repro"))
            and os.path.isfile(spec_path)):
        print("perfbench: no src/repro or BENCHMARK.json under the working "
              "directory; run from the repository root", file=sys.stderr)
        return 2
    units = metric_units(spec_path)
    nproc = available_cores()
    jobs = min(2, nproc)
    sys.path.insert(0, src)
    from repro.sim import kernels

    scratch = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(scratch, "tmp"))
    # Keep the C compiler's and tempfile's scratch inside the checkout.
    os.environ["TMPDIR"] = os.path.join(scratch, "tmp")
    os.environ[kernels.ENV_KERNEL_DIR] = os.path.join(scratch, "kernels")
    workload = WORKLOADS[args.workload](args.seed, scratch, jobs, nproc)
    try:
        setup_s, raw_setup_s = timed_setup(workload)
        print(f"raw setup_s = {raw_setup_s!r} s")
        if args.trace:
            metrics, attempted, failed, passes, tracer = measure_traced(
                workload)
        else:
            metrics, attempted, failed, passes = measure(workload,
                                                         args.seconds)
            metrics["setup_s"] = setup_s
        row = provenance(root, args, jobs, nproc, passes)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        trace_path = os.path.join(root, ".perfbench", "traces",
                                  f"{args.workload}-seed{args.seed}.json")
        tracer.export(trace_path, row)
        print(f"trace: {len(tracer.spans)} spans written to {trace_path}")
    print("row " + json.dumps(row, sort_keys=True))
    report = {}
    for name in sorted(metrics):
        value = metrics[name]
        report[name] = {"value": value, "unit": units[name]}
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
