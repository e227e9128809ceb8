"""In-memory span tracer for the traced (per-layer) benchmark run.

The tracer wraps public entry points of each layer — module
functions, class methods and the compiled-kernel handle — with timing
shims that append one span per call to an in-memory list.  Nothing
under ``src/`` is edited: every replacement is recorded and undone by
:meth:`Tracer.uninstall`, so code that runs after a traced pass is the
original code again.

A span is ``[name, group, start, end, parent, trace_id, value]``:
``parent`` is the index of the enclosing span (-1 at top level),
``trace_id`` groups the spans of one cell, solve or check pass, and
``value`` is an optional number taken from the call's result (events
simulated, bytes written, a cache hit).  :func:`layer_metrics` reduces
the spans to the per-layer metrics named in ``BENCHMARK.json`` and
:meth:`Tracer.export` writes them as trace-event JSON.
"""

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

NAME, GROUP, START, END, PARENT, TRACE, VALUE = range(7)

#: Rule families timed separately in the check-cold traced pass.
RULE_FAMILIES = ("GW0xx", "GW1xx", "GW2xx", "GW3xx", "GW4xx", "GW5xx",
                 "GW6xx")


class Tracer:
    """Collects spans from installed wrappers; undoes them on demand."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = 0
        self._traces = 0
        self._undo = []

    # -- trace ids ---------------------------------------------------------

    @contextmanager
    def trace(self):
        """Give every span opened inside the block a fresh trace id."""
        previous = self._trace
        self._traces += 1
        self._trace = self._traces
        try:
            yield self._trace
        finally:
            self._trace = previous

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, group, value=None, root=False,
             consume=False, wrap_result=None):
        """A timing shim around ``fn``.

        ``value(result, args)`` stores a number on the span; ``root``
        opens a new trace id (one per cell); ``consume`` drains a
        generator result inside the span so lazy work is timed;
        ``wrap_result=(name, group)`` wraps a returned callable too.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            previous = tracer._trace
            if root:
                tracer._traces += 1
                tracer._trace = tracer._traces
            record = [name, group, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer._trace, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
                if value is not None:
                    record[VALUE] = value(result, args)
                if wrap_result is not None and callable(result):
                    result = tracer.wrap(result, *wrap_result)
                return result
            finally:
                record[END] = clock()
                stack.pop()
                tracer._trace = previous

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr, **options):
        """Wrap ``module.attr`` and every ``repro`` alias of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, **options)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            names = [key for key, held in vars(mod).items()
                     if held is original]
            for key in names:
                setattr(mod, key, wrapper)
                self._undo.append((setattr, mod, key, original))

    def patch_method(self, cls, attr, **options):
        """Wrap ``cls.attr`` (inherited or own) on ``cls`` itself."""
        own = cls.__dict__.get(attr)
        setattr(cls, attr, self.wrap(getattr(cls, attr), **options))
        if own is None:
            self._undo.append((delattr, cls, attr))
        else:
            self._undo.append((setattr, cls, attr, own))

    def patch_attr(self, obj, attr, **options):
        """Wrap an attribute of an instance (the kernel handle)."""
        original = getattr(obj, attr)
        setattr(obj, attr, self.wrap(original, **options))
        self._undo.append((setattr, obj, attr, original))

    def uninstall(self):
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            action, *args = self._undo.pop()
            action(*args)

    @property
    def installed(self):
        """Whether any wrapper is still in place."""
        return bool(self._undo)

    # -- export ------------------------------------------------------------

    def export(self, path, metadata):
        """Write the spans as trace-event JSON (complete ``X`` events)."""
        origin = min((span[START] for span in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for index, span in enumerate(self.spans):
            start_us = (span[START] - origin) * 1e6
            end_us = (span[END] - origin) * 1e6
            events.append({
                "name": span[NAME], "cat": span[GROUP], "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(end_us - start_us, 3),
                "pid": pid, "tid": 0,
                "args": {"span": index, "parent": span[PARENT],
                         "trace_id": span[TRACE],
                         "end": round(end_us, 3)}})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)


# -- layer installers --------------------------------------------------------


def _modules(package, *names):
    """Submodules by name (package attributes may shadow them)."""
    return [importlib.import_module(f"{package}.{name}") for name in names]


def _events(result, _args):
    return int(result)


def _hit(result, _args):
    return 0 if result is None else 1


def _batch_busy(result, _args):
    return float(result[2])


def install_sim_layers(tracer):
    """Wrap the simulator, sim cache, sweep scheduler and journal."""
    arrivals, cache, chunked, kernels, measurements, runner = _modules(
        "repro.sim", "arrivals", "cache", "chunked", "kernels",
        "measurements", "runner")
    journal, scheduler = _modules("repro.sweep", "journal", "scheduler")

    tracer.patch_method(chunked.ChunkedSimulationEngine, "run_to",
                        name="sim.chunked.run_to", group="sim.chunked",
                        value=_events)
    tracer.patch_method(runner.SimulationEngine, "run_to",
                        name="sim.scalar.run_to", group="sim.scalar",
                        value=_events)
    lib = kernels.load_kernels()
    if lib is not None:
        for symbol in ("gw_fifo_kernel", "gw_ladder_kernel",
                       "gw_sfq_kernel"):
            tracer.patch_attr(lib, symbol, name=f"sim.kernel.{symbol}",
                              group="sim.kernel")
    for method in ("_refill", "buffered", "peek_block"):
        tracer.patch_method(arrivals.VariateStream, method,
                            name=f"sim.arrivals.{method}",
                            group="sim.arrivals")
    tracer.patch_method(runner.SimulationEngine, "result",
                        name="sim.result", group="sim.result")
    tracer.patch_method(runner.SimulationEngine, "snapshot",
                        name="sim.snapshot", group="sim.snapshot")
    tracer.patch_function(runner, "simulate_to_precision",
                          name="sim.precision", group="sim.precision",
                          root=True)
    for method in ("batch_means", "mean_queues", "throughputs",
                   "mean_delays", "_close_segment"):
        tracer.patch_method(measurements.QueueTracker, method,
                            name=f"sim.measure.{method}",
                            group="sim.measure")
    tracer.patch_method(chunked._TrackerArrays, "into_tracker",
                        name="sim.measure.into_tracker",
                        group="sim.measure")
    tracer.patch_function(runner, "control_variate_summary",
                          name="sim.stop.summary", group="sim.stop")

    def written(_result, args):
        try:
            return os.path.getsize(cache._entry_path(args[0]))
        except OSError:
            return 0

    tracer.patch_function(cache, "store", name="sim.cache.store",
                          group="sim.cache.write", value=written)
    tracer.patch_function(cache, "store_meta", name="sim.cache.store_meta",
                          group="sim.cache.write", value=written)
    tracer.patch_function(cache, "store_state",
                          name="sim.cache.store_state",
                          group="sim.cache.write")
    for reader in ("load", "load_state", "peek"):
        tracer.patch_function(cache, reader, name=f"sim.cache.{reader}",
                              group="sim.cache.read", value=_hit)
    tracer.patch_function(scheduler, "_run_cell_batch",
                          name="sweep.batch", group="sweep.batch",
                          value=_batch_busy)
    tracer.patch_function(scheduler, "warm_outcome",
                          name="sweep.warm_probe", group="sweep.warm_probe",
                          value=_hit, root=True)
    for method in ("write_header", "write_cell"):
        tracer.patch_method(journal.SweepJournal, method,
                            name=f"sweep.journal.{method}",
                            group="sweep.journal")


def install_game_layers(tracer, allocations):
    """Wrap the game solvers and the disciplines' evaluation paths."""
    best_response, classes, meanfield, nash = _modules(
        "repro.game", "best_response", "classes", "meanfield", "nash")

    tracer.patch_function(best_response, "best_response",
                          name="game.best_response",
                          group="game.best_response")
    tracer.patch_function(classes, "class_best_response",
                          name="game.class_best_response",
                          group="game.best_response")
    for solver in ("solve_nash_classes", "solve_nash_classes_fdc"):
        tracer.patch_function(classes, solver, name=f"game.{solver}",
                              group="game.classes")
    tracer.patch_function(meanfield, "solve_nash_meanfield",
                          name="game.solve_nash_meanfield",
                          group="game.meanfield")
    tracer.patch_function(nash, "_certify", name="game.certify",
                          group="game.certify")
    for certifier in ("_class_gains", "certify_expansion"):
        tracer.patch_function(classes, certifier,
                              name=f"game.{certifier.strip('_')}",
                              group="game.certify")
    for cls in sorted({type(a) for a in allocations},
                      key=lambda c: c.__name__):
        for method in ("congestion_grid", "congestion_many",
                       "class_congestion_many"):
            if hasattr(cls, method):
                tracer.patch_method(cls, method,
                                    name=f"disciplines.{method}",
                                    group="disciplines.grid")
        for factory in ("grid_evaluator", "class_deviation_evaluator"):
            if hasattr(cls, factory):
                tracer.patch_method(
                    cls, factory, name=f"disciplines.{factory}",
                    group="disciplines.grid",
                    wrap_result=("disciplines.evaluate",
                                 "disciplines.grid"))
        for method in ("congestion", "congestion_i"):
            tracer.patch_method(cls, method, name=f"disciplines.{method}",
                                group="disciplines.scalar")


def install_staticcheck_layers(tracer):
    """Wrap parsing, project building, rules and the check cache."""
    cache, core, project, runner = _modules(
        "repro.staticcheck", "cache", "core", "project", "runner")

    tracer.patch_method(core.FileContext, "__init__",
                        name="staticcheck.parse", group="staticcheck.parse")
    tracer.patch_method(project.ProjectContext, "__init__",
                        name="staticcheck.project",
                        group="staticcheck.project")
    tracer.patch_function(runner, "_run_file_rules",
                          name="staticcheck.file_rules",
                          group="staticcheck.file_rules")
    for method in ("__init__", "get_file", "put_file", "get_project",
                   "put_project", "save"):
        tracer.patch_method(cache.CheckCache, method,
                            name=f"staticcheck.cache.{method}",
                            group="staticcheck.cache")
    for rule in core.all_rules():
        cls = type(rule)
        family = rule.rule_id[:3] + "xx"
        if isinstance(rule, core.ProjectRule):
            tracer.patch_method(cls, "check_project",
                                name=f"staticcheck.project_rule."
                                     f"{rule.rule_id}",
                                group=f"staticcheck.rules.{family}",
                                consume=True)
        else:
            tracer.patch_method(cls, "check",
                                name=f"staticcheck.rule.{rule.rule_id}",
                                group=f"staticcheck.rules.{family}",
                                consume=True)


# -- reduction to per-layer metrics ------------------------------------------


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (0 for an empty sample)."""
    data = sorted(values)
    if not data:
        return 0.0
    position = (len(data) - 1) * q
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


class _SpanIndex:
    """Group/parent lookups over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.by_group = {}
        for index, span in enumerate(spans):
            self.by_group.setdefault(span[GROUP], []).append(index)
        self.children = {}
        for index, span in enumerate(spans):
            self.children.setdefault(span[PARENT], []).append(index)

    def ancestors(self, index):
        parent = self.spans[index][PARENT]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][PARENT]

    def outermost(self, group):
        """Spans of ``group`` with no ancestor in the same group."""
        return [i for i in self.by_group.get(group, ())
                if all(self.spans[a][GROUP] != group
                       for a in self.ancestors(i))]

    def duration(self, index):
        span = self.spans[index]
        return span[END] - span[START]

    def busy(self, group):
        return sum(self.duration(i) for i in self.outermost(group))

    def count(self, group):
        return len(self.outermost(group))


def layer_metrics(spans, extra):
    """Every per-layer metric from the spans plus workload-side counts.

    ``extra`` carries the numbers that come from results rather than
    spans (solver counters, rung counts, variate draws, file and
    finding counts, dispatch overhead, tracing overhead, failures).
    """
    idx = _SpanIndex(spans)
    out = {}

    # -- repro.sim.chunked / repro.sim.kernels ---------------------------
    chunked = [i for i in idx.by_group.get("sim.chunked", ())
               if not any(spans[c][GROUP] == "sim.scalar"
                          for c in idx.children.get(i, ()))]
    chunked_set = set(chunked)
    chunked_events = sum(spans[i][VALUE] or 0 for i in chunked)
    inner = 0.0
    for group in ("sim.kernel", "sim.arrivals"):
        for i in idx.outermost(group):
            if any(a in chunked_set for a in idx.ancestors(i)):
                inner += idx.duration(i)
    out["sim.chunked.calls"] = len(chunked)
    out["sim.chunked.events"] = chunked_events
    out["sim.chunked.self_s"] = max(
        0.0, sum(idx.duration(i) for i in chunked) - inner)
    kernel_busy = idx.busy("sim.kernel")
    out["sim.kernel.calls"] = idx.count("sim.kernel")
    out["sim.kernel.busy_s"] = kernel_busy
    out["sim.kernel.events_per_s"] = (chunked_events / kernel_busy
                                      if kernel_busy > 0 else 0.0)

    # -- repro.sim.runner ------------------------------------------------
    scalar = idx.outermost("sim.scalar")
    scalar_events = sum(spans[i][VALUE] or 0 for i in scalar)
    all_events = scalar_events + chunked_events
    out["sim.scalar.events"] = scalar_events
    out["sim.scalar.busy_s"] = sum(idx.duration(i) for i in scalar)
    out["sim.fallback_frac"] = (scalar_events / all_events
                                if all_events else 0.0)
    out["sim.result.busy_s"] = idx.busy("sim.result")
    out["sim.snapshot.busy_s"] = idx.busy("sim.snapshot")
    precision_ms = [idx.duration(i) * 1e3
                    for i in idx.outermost("sim.precision")]
    out["sim.precision.p50_ms"] = percentile(precision_ms, 0.5)
    out["sim.precision.p90_ms"] = percentile(precision_ms, 0.9)

    # -- repro.sim.arrivals / measurements / stats ----------------------
    out["sim.arrivals.draws"] = extra.get("sim.arrivals.draws", 0)
    out["sim.arrivals.busy_s"] = idx.busy("sim.arrivals")
    out["sim.measure.busy_s"] = idx.busy("sim.measure")
    out["sim.stop.checks"] = idx.count("sim.stop")
    out["sim.stop.busy_s"] = idx.busy("sim.stop")
    out["sim.stop.rungs_per_cell"] = extra.get("sim.stop.rungs_per_cell",
                                               0.0)

    # -- repro.sim.cache -------------------------------------------------
    writes = idx.outermost("sim.cache.write")
    reads = idx.outermost("sim.cache.read")
    out["sim.cache.writes"] = len(writes)
    out["sim.cache.write_s"] = sum(idx.duration(i) for i in writes)
    out["sim.cache.bytes_written"] = sum(
        spans[i][VALUE] or 0 for i in idx.by_group.get("sim.cache.write",
                                                      ()))
    out["sim.cache.reads"] = len(reads)
    out["sim.cache.read_s"] = sum(idx.duration(i) for i in reads)
    out["sim.cache.hit_ratio"] = (sum(spans[i][VALUE] or 0 for i in reads)
                                  / len(reads) if reads else 0.0)

    # -- repro.sweep.scheduler / repro.parallel / repro.sweep.journal ---
    batches = idx.outermost("sweep.batch")
    out["sweep.batches"] = len(batches)
    out["sweep.worker_busy_s"] = sum(spans[i][VALUE] or 0.0
                                     for i in batches)
    out["sweep.dispatch_overhead"] = extra.get("sweep.dispatch_overhead",
                                               0.0)
    probes = idx.outermost("sweep.warm_probe")
    probe_us = [idx.duration(i) * 1e6 for i in probes]
    out["sweep.warm_probe.calls"] = len(probes)
    out["sweep.warm_probe.busy_s"] = sum(probe_us) / 1e6
    out["sweep.warm_probe.p50_us"] = percentile(probe_us, 0.5)
    out["sweep.warm_probe.p90_us"] = percentile(probe_us, 0.9)
    out["sweep.warm_probe.hit_ratio"] = (
        sum(spans[i][VALUE] or 0 for i in probes) / len(probes)
        if probes else 0.0)
    out["sweep.journal.writes"] = idx.count("sweep.journal")
    out["sweep.journal.busy_s"] = idx.busy("sweep.journal")

    # -- repro.numerics / repro.game / repro.disciplines ----------------
    for key in ("solver.objective_evals", "solver.congestion_evals",
                "solver.grid_calls", "game.nash.iterations"):
        out[key] = extra.get(key, 0)
    out["game.best_response.calls"] = idx.count("game.best_response")
    out["game.best_response.busy_s"] = idx.busy("game.best_response")
    out["game.classes.busy_s"] = idx.busy("game.classes")
    out["game.meanfield.busy_s"] = idx.busy("game.meanfield")
    out["game.certify.busy_s"] = idx.busy("game.certify")
    out["disciplines.grid.calls"] = idx.count("disciplines.grid")
    out["disciplines.grid.busy_s"] = idx.busy("disciplines.grid")
    out["disciplines.scalar.calls"] = idx.count("disciplines.scalar")

    # -- repro.staticcheck -----------------------------------------------
    out["staticcheck.files"] = extra.get("staticcheck.files", 0)
    out["staticcheck.findings"] = extra.get("staticcheck.findings", 0)
    for part in ("parse", "project", "file_rules", "cache"):
        out[f"staticcheck.{part}.busy_s"] = idx.busy(f"staticcheck.{part}")
    rule_groups = [f"staticcheck.rules.{family}"
                   for family in RULE_FAMILIES]
    out["staticcheck.project_rules.busy_s"] = sum(
        idx.duration(i) for i, span in enumerate(spans)
        if span[NAME].startswith("staticcheck.project_rule."))
    for family, group in zip(RULE_FAMILIES, rule_groups):
        out[f"staticcheck.rules.{family}.busy_s"] = idx.busy(group)

    out["trace.overhead_frac"] = extra.get("trace.overhead_frac", 0.0)
    out["failed_frac"] = extra.get("failed_frac", 0.0)
    return out

