"""GW6xx — parallel-safety rules for process-pool fan-out.

``run_experiments``/``replicate``-style fan-out forks worker
processes; anything a worker-reachable function does to module-level
mutable state happens in a *copy* the parent never sees (and differs
between fork and spawn start methods).  Likewise, a lambda or nested
function handed to ``Pool.map`` pickles on spawn-based platforms with
an error the fork-based CI never surfaces.  Both classes are found by
walking the call graph from the pool dispatch sites.
"""

from __future__ import annotations

import ast
from itertools import chain
from typing import Dict, Iterable, List, Optional, Set

from repro.staticcheck.core import FileContext, Finding, ProjectRule, \
    Rule, dotted_name, register_rule
from repro.staticcheck.project import (
    _POOL_DISPATCH_METHODS,
    ProjectContext,
    _builds_pool,
)
from repro.staticcheck.rules.determinism import _in_scope


@register_rule
class WorkerSharedStateRule(ProjectRule):
    """Worker-reachable code must not touch module state (GW601).

    Rationale:
        A function reachable from a process-pool entry point runs in a
        forked/spawned child.  Module-level mutable state it writes is
        lost when the worker exits; state it reads may differ from the
        parent's (spawn re-imports modules fresh).  Either way the
        parallel run silently diverges from the serial one — the exact
        property ``run_experiments(jobs=n)`` promises not to break.

    Example::

        _CALLS = 0                    # module-level counter

        def simulate_once(config):    # shipped via pool.map
            global _CALLS
            _CALLS += 1               # lost in the child

    Fix:
        Return the value and merge in the parent, or pass state
        explicitly through the worker payload.  Counts go to the
        :mod:`repro.obs` registry, the sanctioned pattern: a task
        dispatched through :class:`repro.parallel.WorkerPool` hands its
        counts back with its result and the pool folds them into the
        parent.  State that is deliberately per-process (and re-merged
        or re-derived) may suppress with a reason:
        ``# greedwork: ignore[GW601] -- <why>``.
    """

    rule_id = "GW601"
    name = "worker-shared-state"
    description = ("module-level mutable state read or written by "
                   "functions reachable from process-pool worker "
                   "entry points diverges between parent and workers")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        reachable = project.reachable_from_workers()
        summaries = project.function_summaries
        for key in sorted(reachable):
            summary = summaries.get(key)
            if summary is None:
                continue
            info = project.modules.get(summary.module)
            if info is None or not project.is_analyzed(
                    info.ctx.display_path):
                continue
            mutable = project.module_mutable_globals(summary.module)
            entry = reachable[key]
            qual = key.partition(":")[2]
            for name in sorted(set(summary.global_writes)
                               | (set(summary.global_reads)
                                  & mutable)):
                node = summary.global_writes.get(
                    name, summary.global_reads.get(name))
                verb = ("writes" if name in summary.global_writes
                        else "reads")
                yield self.finding(
                    info.ctx, node,
                    f"{qual} is reachable from worker entry "
                    f"{entry.partition(':')[2]} and {verb} "
                    f"module-level mutable state {name!r}; workers "
                    f"get a private copy that diverges from the "
                    f"parent")


@register_rule
class UnpicklableWorkerRule(Rule):
    """Pool callables must be picklable top-level functions (GW602).

    Rationale:
        ``multiprocessing`` pickles the callable it ships to workers.
        Lambdas and functions defined inside another function cannot
        be pickled — the code works under the fork start method (the
        child inherits memory) and then crashes on spawn-based
        platforms (macOS, Windows) or under any future switch to
        ``forkserver``.  Closure capture is also a correctness trap:
        captured state is frozen at fork time.

    Example::

        def run_all(configs):
            scale = 2.0
            with Pool() as pool:
                return pool.map(lambda c: simulate(c, scale), configs)

    Fix:
        Dispatch a module-level function and pass extra state through
        the payload (tuples, or ``functools.partial`` over a top-level
        function).  There is no sanctioned suppression: this is a
        latent crash, not a judgment call.
    """

    rule_id = "GW602"
    name = "unpicklable-worker"
    description = ("lambdas and nested functions passed to process-"
                   "pool dispatch methods cannot be pickled under "
                   "the spawn start method")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        nodes = ctx.nodes
        # Most files never build a pool: then no function has a
        # receiver, and there is nothing to walk.
        if not any(_pool_bindings(node) for node in chain(
                nodes.of(ast.Assign), nodes.of(ast.withitem))):
            return
        for func in nodes.of(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterable[Finding]:
        pool_names = self._pool_receivers(func)
        if not pool_names:
            return
        nested = {
            node.name for body_item in ast.walk(func)
            for node in ast.iter_child_nodes(body_item)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func}
        lambda_names = self._lambda_bindings(func)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute) \
                    or node.func.attr not in _POOL_DISPATCH_METHODS:
                continue
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name)
                    and receiver.id in pool_names):
                continue
            if not node.args:
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    ctx, target,
                    f"lambda passed to pool.{node.func.attr}: "
                    f"lambdas cannot be pickled under the spawn "
                    f"start method")
            elif isinstance(target, ast.Name):
                if target.id in nested:
                    yield self.finding(
                        ctx, target,
                        f"nested function {target.id!r} passed to "
                        f"pool.{node.func.attr}: inner functions "
                        f"cannot be pickled and capture enclosing "
                        f"state at fork time")
                elif target.id in lambda_names:
                    yield self.finding(
                        ctx, target,
                        f"{target.id!r} is bound to a lambda and "
                        f"passed to pool.{node.func.attr}: lambdas "
                        f"cannot be pickled under the spawn start "
                        f"method")

    @staticmethod
    def _pool_receivers(func: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(func):
            out.update(_pool_bindings(node))
        return out

    @staticmethod
    def _lambda_bindings(func: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Lambda):
                out.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
        return out


def _pool_bindings(node: ast.AST) -> List[str]:
    """Names an assignment or ``with`` item binds to a new process pool."""
    value: Optional[ast.AST] = None
    names: List[str] = []
    if isinstance(node, ast.Assign):
        value = node.value
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.withitem):
        value = node.context_expr
        if isinstance(node.optional_vars, ast.Name):
            names = [node.optional_vars.id]
    if value is not None and names and _builds_pool(value):
        return names
    return []


#: Scheduler/orchestrator modules whose async code GW604 audits.
_EVENT_LOOP_PREFIXES = ("repro.sweep.",)

#: Synchronous simulation entry points that must never run on the
#: event loop thread — each one simulates for seconds to minutes.
_BLOCKING_SIM_CALLS = frozenset({
    "simulate", "simulate_to_precision", "replicate",
    "replicate_to_precision", "run_experiments",
})


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Walk ``func``'s body without descending into nested defs.

    Nested ``async def``s are visited by the caller's outer walk and
    audited on their own; nested *sync* defs get audited too (they are
    closures the async function calls inline), but as part of their
    enclosing async scope exactly once.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class BlockingEventLoopRule(Rule):
    """Async scheduler code must never block the event loop (GW604).

    Rationale:
        The sweep scheduler's dispatch loop is a single-threaded
        asyncio loop multiplexing worker completions, journal writes,
        and progress ticks.  One synchronous call stalls all of it:
        ``Future.result()`` parks the loop thread until a worker
        finishes (starving every other completion), an un-timeout'd
        ``concurrent.futures.as_completed`` iterator blocks in C code
        the loop cannot interrupt, and calling ``simulate(...)`` /
        ``simulate_to_precision(...)`` inline runs a whole simulation
        on the loop thread — the scheduler degrades to serial while
        claiming ``jobs=N``.  None of these deadlock loudly; they
        silently destroy the worker utilization the bench gates on.

    Example::

        async def _dispatch(self, batches):
            for batch in batches:
                future = loop.run_in_executor(pool, run, batch)
                outcome = future.result()      # blocks the loop

    Fix:
        ``await`` the future (``outcome = await future``), wait on
        completion sets with ``asyncio.wait(...)``, and route every
        simulation through ``loop.run_in_executor``.  Code that is
        deliberately synchronous (e.g. a sequential fallback path)
        belongs in a plain ``def``; if a blocking call inside an
        ``async def`` is truly intended, suppress with a reason:
        ``# greedwork: ignore[GW604] -- <why>``.
    """

    rule_id = "GW604"
    name = "blocking-event-loop"
    description = ("blocking calls (Future.result(), un-timeout'd "
                   "as_completed, synchronous simulate/replicate) "
                   "inside async scheduler code stall the event loop")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None \
                or not _in_scope(ctx.module, _EVENT_LOOP_PREFIXES):
            return
        for func in ctx.nodes.of(ast.AsyncFunctionDef):
            yield from self._check_async(ctx, func)

    def _check_async(self, ctx: FileContext,
                     func: ast.AsyncFunctionDef) -> Iterable[Finding]:
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            tail = dotted.rsplit(".", 1)[-1] if dotted else ""
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "result":
                yield self.finding(
                    ctx, node,
                    f"{dotted or 'future'}() blocks the event loop "
                    f"in async {func.name!r}; await the future "
                    f"instead")
            elif tail == "as_completed" \
                    and not any(kw.arg == "timeout"
                                for kw in node.keywords):
                yield self.finding(
                    ctx, node,
                    f"{dotted}(...) without a timeout blocks the "
                    f"event loop in async {func.name!r}; use "
                    f"asyncio.wait(...) or pass timeout=")
            elif tail in _BLOCKING_SIM_CALLS:
                yield self.finding(
                    ctx, node,
                    f"synchronous {dotted}(...) runs a whole "
                    f"simulation on the event loop thread in async "
                    f"{func.name!r}; dispatch it through "
                    f"loop.run_in_executor")
