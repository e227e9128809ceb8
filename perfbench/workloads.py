"""The benchmark workloads: set-up, one timed pass, and checks.

Every workload builds its inputs from the seed alone and exposes the
same protocol to ``run.py``:

``setup(k)``
    One timed set-up (repeated; ``discard()`` undoes the previous one
    outside the timer).
``run_pass(index, ...)``
    One timed pass; returns a dict with ``wall_s`` (host-calibrated,
    see ``hostspeed.py``), ``raw_wall_s`` and a JSON-able ``output``
    that must be identical for identical inputs.
``check(passes)``
    ``(attempted, failed)`` for the correctness checks.
``end_to_end(passes)``
    The workload's view of each end-to-end metric.
``trace_run(tracer)``
    Untraced and traced passes at the same seed plus the per-layer
    numbers that come from results rather than spans.

See README.md for why each workload is in the benchmark.
"""

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import replace

import numpy as np

import corpus
import tracing
from hostspeed import HostSpeed

#: |mean_total_queue - rho/(1-rho)| must stay within this many raw
#: batch-means half-widths of the total queue.  Batch means under-cover
#: at rho=0.9 (observed worst 3.8 half-widths over 288 cells), so the
#: multiple is loose enough to never fire on a correct engine and tight
#: enough to catch a discipline that is not work-conserving.
CONSERVATION_MULTIPLE = 6.0
CONSERVATION_POLICIES = ("fifo", "fair-share", "round-robin")

#: Certification tolerances on ``max_gain`` (and ``spot_gain``).
GAIN_TOL = {"per-user": 1e-8, "class-space": 1e-8, "mean-field": 1e-6}

#: Per-user solves: disciplines and population sizes.  Priority is left
#: out: its damped best-response iteration can cycle at a tie block and
#: hit max_iter, so a priority solve is not an operation that reliably
#: succeeds.
NASH_DISCIPLINES = ("fair-share", "fifo", "separable")
NASH_SIZES = (4, 5, 6, 7, 8)
#: Large-population solves: N = 10^4 users in K = 4 classes.
LARGE_DISCIPLINES = ("fair-share", "fifo")
LARGE_N = 10_000
LARGE_K = 4
#: Enough solves per run that at least ten lie beyond the p90.
MIN_SOLVE_SAMPLES = 100


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pool):
    """Peak RSS of this process plus each live pool worker, in MB.

    Every worker process of the executor is read once, by pid, whether
    or not it ran a task.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool is not None and pool.started:
        for pid in list(pool.executor._processes):
            total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid):
    """Peak resident set (``VmHWM``) of a live process, in KB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for worker {pid}")


def canonical(output):
    """Byte-stable form for identity checks (NaN-safe)."""
    return json.dumps(output, sort_keys=True)


def overhead(untraced, traced):
    """Traced wall over untraced wall, minus 1 (medians of passes)."""
    return (median([p["wall_s"] for p in traced])
            / median([p["wall_s"] for p in untraced]) - 1.0)


def _latency_ms(passes):
    return [p["wall_s"] * 1e3 for p in passes]


class Workload:
    """Shared bookkeeping; subclasses fill in the protocol."""

    name = ""
    min_passes = 1
    #: Whether every pass sees the same inputs (outputs must match).
    repeats_inputs = True

    def __init__(self, seed, scratch, jobs, nproc):
        self.seed = seed
        self.scratch = scratch
        self.jobs = jobs
        self.nproc = nproc
        self.pool = None

    def discard(self):
        """Undo the previous ``setup`` (untimed)."""

    def close(self):
        self.discard()


# -- sweeps ----------------------------------------------------------------


class SweepCold(Workload):
    """The paper catalog at ``seeds=[seed]``, simulated from an empty
    cache and journal over a pool forked in set-up."""

    name = "sweep-cold"
    #: A pass takes 4-8 s raw, and passes of one run differ by up to 10%
    #: after calibration; the median of two or more evens some of it.
    min_passes = 2

    def __init__(self, seed, scratch, jobs, nproc):
        super().__init__(seed, scratch, jobs, nproc)
        from repro.sim import cache as sim_cache
        from repro.sweep import builtin_catalog
        from repro.sweep import journal
        from repro.sweep.catalog import Catalog

        paper = builtin_catalog("paper")
        self.catalog = Catalog(
            name=paper.name,
            cells=[replace(cell, seed=seed) for cell in paper.cells])
        self.cache_dir = os.path.join(scratch, "sim")
        self.journal_dir = os.path.join(scratch, "sweeps")
        os.environ[sim_cache.ENV_DIR] = self.cache_dir
        os.environ[journal.ENV_DIR] = self.journal_dir
        sim_cache.set_enabled(True)

    def setup(self, k):
        """Compile the kernels into a fresh directory, fork the pool."""
        from repro.parallel import WorkerPool
        from repro.sim import kernels

        os.environ[kernels.ENV_KERNEL_DIR] = os.path.join(
            self.scratch, f"kernels-{k}")
        # Forget the per-process memo so every set-up really compiles.
        kernels._lib = None
        kernels._load_failed = False
        kernels.load_kernels()
        if self.jobs > 1:
            self.pool = WorkerPool(self.jobs)
            for future in [self.pool.submit(abs, -1)
                           for _ in range(self.jobs)]:
                future.result()

    def discard(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def reset_cache(self):
        for folder in (self.cache_dir, self.journal_dir):
            shutil.rmtree(folder, ignore_errors=True)

    def sweep(self, jobs):
        """One timed ``run_sweep``; returns (wall seconds, result)."""
        from repro.sweep.scheduler import run_sweep

        pool = self.pool if jobs > 1 else None
        started = time.perf_counter()
        result = run_sweep(self.catalog, jobs=jobs, pool=pool,
                           cache_enabled=True)
        return time.perf_counter() - started, result

    @staticmethod
    def rows(result):
        """Outcomes field by field, without the ``source`` field."""
        rows = []
        for outcome in result.outcomes:
            row = outcome.as_dict()
            row.pop("source")
            rows.append(row)
        return rows

    def final_results(self, result):
        """``(cell, outcome, SimulationResult)`` of each final rung."""
        from repro.sim import cache as sim_cache
        from repro.sim.runner import ENGINE_VERSION

        for cell, outcome in zip(self.catalog.cells, result.outcomes):
            if not outcome.ok:
                continue
            key = sim_cache.config_key(
                replace(cell.config(), horizon=outcome.horizon),
                ENGINE_VERSION)
            yield cell, outcome, sim_cache.peek(key)

    def conservation(self, result):
        """(checked, failed) for the conservation law on M/M/1 cells.

        Size-blind work-conserving disciplines leave the total number
        in system equal to M/M/1's ``rho/(1-rho)``; the raw batch-means
        half-width of the total queue comes from the cached final rung.
        """
        from repro.sim.stats import t_quantile

        checked = failed = 0
        for cell, outcome, final in self.final_results(result):
            if (cell.arrival_process != "poisson"
                    or cell.service_process != "exponential"
                    or cell.policy not in CONSERVATION_POLICIES):
                continue
            checked += 1
            if final is None:
                failed += 1
                continue
            totals = final.batch.per_batch.sum(axis=1)
            n = totals.size
            half = (t_quantile(0.95, n - 1) * float(np.std(totals, ddof=1))
                    / math.sqrt(n))
            exact = cell.rho / (1.0 - cell.rho)
            if abs(outcome.mean_total_queue - exact) \
                    > CONSERVATION_MULTIPLE * half:
                failed += 1
        return checked, failed

    def arrival_draws(self, result):
        """Arrival variates behind every cell's final rung."""
        return sum(sum(final.variate_draws[:-1])
                   for _cell, _outcome, final in self.final_results(result)
                   if final is not None and final.variate_draws)

    def end_to_end(self, passes):
        results = [p["result"] for p in passes]
        return {
            "wall_s": median([p["wall_s"] for p in passes]),
            "events_to_target": median([r.fresh_events for r in results]),
            "achieved_frac": median(
                [sum(o.achieved for o in r.outcomes) / len(r.outcomes)
                 for r in results]),
            "solve_p50_ms": tracing.percentile(_latency_ms(passes), 0.5),
            "solve_p90_ms": tracing.percentile(_latency_ms(passes), 0.9),
        }

    def run_pass(self, index, jobs=None):
        """One cold sweep, timed.

        The first pass of a run is also checked against the conservation
        law and replayed warm (untimed).  Later passes must produce the
        same outcomes, which carries both checks over to them and leaves
        more of the run for timed passes.
        """
        jobs = jobs or self.jobs
        self.reset_cache()
        with HostSpeed() as host:
            wall, result = self.sweep(jobs)
        rows = self.rows(result)
        out = {"wall_s": wall * host.factor, "raw_wall_s": wall,
               "result": result, "output": rows}
        if index == 0:
            out["conservation"] = self.conservation(result)
            # Every cell must come back from the cache equal to the cold
            # outcome, field by field.
            _wall, warm = self.sweep(jobs)
            out["warm_ok"] = (canonical(self.rows(warm)) == canonical(rows)
                              and warm.fresh_events == 0
                              and warm.source_counts()["cache"]
                              == len(rows))
        return out

    def check(self, passes):
        attempted = failed = 0
        for p in passes:
            attempted += len(p["result"].outcomes)
            failed += len(p["result"].failures)
            if "warm_ok" in p:
                checked, broken = p["conservation"]
                attempted += checked + 1
                failed += broken + (not p["warm_ok"])
        return attempted, failed

    def trace_run(self, tracer):
        dispatch = self.run_pass(0)
        untraced = self.run_pass(0, jobs=1)
        tracing.install_sim_layers(tracer)
        try:
            traced = self.run_pass(0, jobs=1)
        finally:
            tracer.uninstall()
        result = dispatch["result"]
        dispatch_overhead = 0.0
        if 1 < self.jobs <= self.nproc and result.wall_s > 0:
            dispatch_overhead = 1.0 - result.busy_s / (result.wall_s
                                                       * self.jobs)
        outcomes = traced["result"].outcomes
        extra = {
            "sim.stop.rungs_per_cell":
                sum(o.n_rungs for o in outcomes) / len(outcomes),
            "sim.arrivals.draws": self.arrival_draws(traced["result"]),
            "sweep.dispatch_overhead": dispatch_overhead,
            "trace.overhead_frac": overhead([untraced], [traced]),
        }
        return [dispatch, untraced], [traced], extra


# -- equilibrium solves ------------------------------------------------------


class Nash(Workload):
    """Seeded per-user, class-space and mean-field equilibrium solves."""

    name = "nash"
    repeats_inputs = False
    solves_per_pass = (len(NASH_DISCIPLINES) * len(NASH_SIZES)
                       + 2 * len(LARGE_DISCIPLINES))
    min_passes = math.ceil(MIN_SOLVE_SAMPLES / solves_per_pass)

    def inputs(self, index):
        """The pass's solves: ``(kind, discipline, utilities)``."""
        from repro.users.families import LinearUtility, PowerUtility

        rng = np.random.default_rng([self.seed, index])
        solves = []
        for name in NASH_DISCIPLINES:
            for n in NASH_SIZES:
                # Tastes spread over [0.2, 0.8] with a seeded jitter of a
                # quarter step.  Independent uniform draws can bunch users
                # so that FIFO's damped iteration stalls at a corner
                # equilibrium and hits max_iter.
                step = 0.6 / (n - 1)
                gammas = (np.linspace(0.2, 0.8, n)
                          + rng.uniform(-0.25 * step, 0.25 * step, n))
                solves.append(("per-user", name,
                               [LinearUtility(gamma=float(g))
                                for g in gammas]))
        for name in LARGE_DISCIPLINES:
            weights = np.sort(rng.uniform(1.0, 2.0, LARGE_K))
            classes = [PowerUtility(gamma=1.0, a=float(w) / math.sqrt(LARGE_N),
                                    p=0.5, q=1.0) for w in weights]
            solves.append(("class-space", name, classes))
            solves.append(("mean-field", name, classes))
        return solves

    def setup(self, k):
        """Build the disciplines and inputs; warm each solver path."""
        from repro.disciplines.registry import make_discipline
        from repro.game.nash import solve_nash
        from repro.users.families import LinearUtility

        self.allocations = {name: make_discipline(name)
                            for name in NASH_DISCIPLINES}
        self.first_inputs = self.inputs(0)
        for allocation in self.allocations.values():
            solve_nash(allocation, [LinearUtility(gamma=0.5)] * 2)

    def solve(self, kind, name, utilities):
        from repro.game.classes import (solve_nash_classes,
                                        solve_nash_classes_fdc)
        from repro.game.meanfield import solve_nash_meanfield
        from repro.game.nash import solve_nash

        allocation = self.allocations[name]
        if kind == "per-user":
            return solve_nash(allocation, utilities)
        counts = [LARGE_N // LARGE_K] * LARGE_K
        if kind == "mean-field":
            return solve_nash_meanfield(allocation, utilities,
                                        counts=counts)
        seeded = solve_nash_classes(allocation, utilities, counts=counts,
                                    tol=1e-9, max_iter=300)
        return solve_nash_classes_fdc(allocation, utilities, counts=counts,
                                      r0=seeded.class_rates)

    def run_pass(self, index, tracer=None):
        from repro.numerics.instrumentation import track_solver

        solves = self.first_inputs if index == 0 else self.inputs(index)
        rows, latencies = [], []
        counters = {"objective_evals": 0, "congestion_evals": 0,
                    "grid_calls": 0}
        with HostSpeed() as host:
            started = time.perf_counter()
            for kind, name, utilities in solves:
                scope = tracer.trace() if tracer else contextlib.nullcontext()
                with scope, track_solver() as stats:
                    begun = time.perf_counter()
                    result = self.solve(kind, name, utilities)
                    latencies.append(time.perf_counter() - begun)
                for key in counters:
                    counters[key] += getattr(stats, key)
                rates = getattr(result, "class_rates", None)
                if rates is None:
                    rates = result.rates
                rows.append({
                    "kind": kind, "discipline": name,
                    "n": len(utilities), "converged": bool(result.converged),
                    "iterations": int(result.iterations),
                    "max_gain": float(result.max_gain),
                    "spot_gain": float(getattr(result, "spot_gain", 0.0)),
                    "rates": [float(r) for r in rates]})
            wall = time.perf_counter() - started
        return {"wall_s": wall * host.factor, "raw_wall_s": wall,
                "output": rows,
                "latencies": [t * host.factor for t in latencies],
                "counters": counters}

    @staticmethod
    def certified(row):
        """Converged and certified within the kind's tolerance."""
        tol = GAIN_TOL[row["kind"]]
        return (row["converged"] and row["max_gain"] <= tol
                and row["spot_gain"] <= tol)

    def check(self, passes):
        rows = [row for p in passes for row in p["output"]]
        return len(rows), sum(not self.certified(row) for row in rows)

    def end_to_end(self, passes):
        latencies = [s * 1e3 for p in passes for s in p["latencies"]]
        rows = [row for p in passes for row in p["output"]]
        print(f"nash: {len(latencies)} solves sampled for solve_p50_ms "
              f"and solve_p90_ms")
        return {
            "wall_s": median([p["wall_s"] for p in passes]),
            # Over the first passes only, whose inputs every run has, so
            # the count repeats exactly for a seed.
            "events_to_target": sum(
                p["counters"]["objective_evals"]
                for p in passes[:self.min_passes]) / self.min_passes,
            "achieved_frac": sum(map(self.certified, rows)) / len(rows),
            "solve_p50_ms": tracing.percentile(latencies, 0.5),
            "solve_p90_ms": tracing.percentile(latencies, 0.9),
        }

    def trace_run(self, tracer):
        untraced = self.run_pass(0)
        tracing.install_game_layers(tracer, self.allocations.values())
        try:
            traced = self.run_pass(0, tracer=tracer)
        finally:
            tracer.uninstall()
        extra = {f"solver.{key}": value
                 for key, value in traced["counters"].items()}
        extra["game.nash.iterations"] = sum(
            row["iterations"] for row in traced["output"])
        extra["trace.overhead_frac"] = overhead([untraced], [traced])
        return [untraced], [traced], extra


# -- static analysis -----------------------------------------------------------


class CheckCold(Workload):
    """Cold ``run_checks`` over the frozen corpus with planted bugs."""

    name = "check-cold"
    #: A pass takes 7-16 s, and CPU speed on a shared host drifts over
    #: tens of seconds; the median of two passes averages some of it.
    min_passes = 2

    def setup(self, k):
        """Write the corpus and plant the seed's violations.

        The first set-up of a run creates the tree and the later ones,
        whose median is ``setup_s``, rewrite it in place: creating 240
        files takes 30-170 ms on a shared ext4 disk, depending on the
        disk more than on this code.
        """
        self.root = os.path.join(self.scratch, "corpus")
        self.expected, self.lines = corpus.materialize(self.root, self.seed)
        self.cache_dir = os.path.join(self.scratch, "check-cache")

    def close(self):
        for folder in (getattr(self, "root", None),
                       getattr(self, "cache_dir", None)):
            if folder is not None:
                shutil.rmtree(folder, ignore_errors=True)

    def run_pass(self, index, tracer=None):
        from pathlib import Path

        from repro.staticcheck import run_checks

        shutil.rmtree(self.cache_dir, ignore_errors=True)
        root = Path(self.root)
        scope = tracer.trace() if tracer else contextlib.nullcontext()
        with scope, HostSpeed() as host:
            started = time.perf_counter()
            result = run_checks([root / name for name in corpus.ROOTS],
                                project_root=root, jobs=1, cache=True,
                                cache_dir=Path(self.cache_dir))
            wall = time.perf_counter() - started
        rows = sorted([f.rule_id, f.path, f.line, f.message]
                      for f in result.findings)
        return {"wall_s": wall * host.factor, "raw_wall_s": wall,
                "output": rows, "result": result}

    @staticmethod
    def found(p):
        return {(rule, path, line) for rule, path, line, _msg in p["output"]}

    def check(self, passes):
        """Exactly the planted set: a miss, an extra finding or a file
        the analyzer errored on (GW000) each count as a failure."""
        attempted = failed = 0
        for p in passes:
            found = self.found(p)
            attempted += len(self.expected) + p["result"].files_checked
            failed += len(self.expected ^ found)
        return attempted, failed

    def end_to_end(self, passes):
        detected = [len(self.expected & self.found(p)) / len(self.expected)
                    for p in passes]
        return {
            "wall_s": median([p["wall_s"] for p in passes]),
            "events_to_target": self.lines,
            "achieved_frac": median(detected),
            "solve_p50_ms": tracing.percentile(_latency_ms(passes), 0.5),
            "solve_p90_ms": tracing.percentile(_latency_ms(passes), 0.9),
        }

    def trace_run(self, tracer):
        untraced = self.run_pass(0)
        tracing.install_staticcheck_layers(tracer)
        try:
            traced = self.run_pass(0, tracer=tracer)
        finally:
            tracer.uninstall()
        result = traced["result"]
        extra = {"staticcheck.files": result.files_checked,
                 "staticcheck.findings": len(result.findings),
                 "trace.overhead_frac": overhead([untraced], [traced])}
        return [untraced], [traced], extra


WORKLOADS = {cls.name: cls for cls in (SweepCold, Nash, CheckCold)}
