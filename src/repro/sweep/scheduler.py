"""Async cell scheduler: the sweep's throughput-oriented dispatch core.

Given an expanded :class:`~repro.sweep.catalog.Catalog`, the scheduler
turns "run this grid" into the cheapest event stream that still
answers every cell:

1. **Journal replay** — cells already recorded in the sweep journal
   (same content key, same engine version) are returned as-is; an
   interrupted sweep restarts delta-only.
2. **In-catalog dedup** — cells with identical content keys run once;
   later occurrences share the outcome.
3. **Dedup-before-dispatch** — each remaining cell's precision
   schedule is replayed from the on-disk sim cache by the runner's
   cache-only :func:`repro.sim.runner.cached_precision` (peeks only,
   no counters touched).  A cell whose whole schedule is cached
   resolves in the parent with zero worker round-trips and zero
   fresh events.
4. **Priority-aware batched dispatch** — cold cells are grouped by
   CRN key (identical traffic, different discipline) so siblings land
   on the same worker back-to-back, and batches are dispatched
   cheapest-first (early signal) over a persistent
   :class:`~repro.parallel.WorkerPool` via an asyncio loop that never
   blocks: completions are awaited, not polled.

A batch returns ``(outcomes, counts, busy_seconds)``.  Its counts
reach the parent's :mod:`repro.obs` registry exactly once (the pool
folds pooled batches; serial ones count in place), where the sweep's
:class:`~repro.obs.Scope` reads them; busy seconds feed the worker
utilization the bench gates on.  A crashing cell is isolated into an
error outcome carrying its traceback instead of killing the sweep.
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

import repro.obs as obs
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim.runner import (
    PrecisionResult,
    cached_precision,
    simulate_to_precision,
)
from repro.sweep import journal as journal_mod
from repro.sweep.catalog import Catalog, SweepCell, dedupe_cells
from repro.sweep.pareto import verdict_confidence

#: Outcome sources, cheapest first: ``journal`` (resumed), ``cache``
#: (warm ladder, resolved in the parent), ``dedup`` (shared with an
#: identical cell), ``fresh`` (simulated by a worker).
SOURCES = ("journal", "cache", "dedup", "fresh")


@dataclass
class CellOutcome:
    """Everything the journal and reports need about one cell."""

    key: str
    label: str
    policy: str
    profile: str
    arrival_process: str
    service_process: str
    rho: float
    n_users: int
    seed: int
    target_halfwidth: float
    #: Events behind the final (longest-horizon) run of the cell.
    events: int
    horizon: float
    n_rungs: int
    achieved: bool
    #: Worst per-user CI half-width at stop.
    halfwidth: float
    #: Verdict confidence implied by the achieved half-width.
    confidence: float
    mean_total_queue: float
    source: str = "fresh"
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able form (journal currency)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellOutcome":
        """Rebuild from a journal record, ignoring unknown keys."""
        known = {spec: payload[spec] for spec in cls.__dataclass_fields__
                 if spec in payload}
        return cls(**known)

    @property
    def ok(self) -> bool:
        """Whether the cell produced a usable estimate."""
        return self.error is None


@dataclass
class SweepProgress:
    """Streamed scheduler state (one tick per batch completion)."""

    done: int
    running: int
    queued: int
    total: int
    events: int
    fresh_events: int
    cache_hits: int
    cache_misses: int
    busy_s: float
    wall_s: float
    jobs: int

    @property
    def hit_rate(self) -> float:
        """Sim-cache hit rate over the sweep so far."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def utilization(self) -> float:
        """Worker busy time over available pool time so far."""
        if self.wall_s <= 0.0 or self.jobs < 1:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.jobs))

    def line(self) -> str:
        """One-line progress summary for the CLI stream."""
        return (f"[sweep] done={self.done}/{self.total} "
                f"running={self.running} queued={self.queued} "
                f"events={self.events} fresh={self.fresh_events} "
                f"hit-rate={self.hit_rate:.2f} "
                f"util={self.utilization:.2f}")


@dataclass
class SweepResult:
    """Final outcome of a sweep run."""

    catalog_name: str
    digest: str
    outcomes: List[CellOutcome]
    wall_s: float
    busy_s: float
    jobs: int
    fresh_events: int
    stats_delta: Dict[str, int] = field(default_factory=dict)
    journal_path: Optional[str] = None

    @property
    def utilization(self) -> float:
        """Worker busy time over available pool time."""
        if self.wall_s <= 0.0 or self.jobs < 1:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.jobs))

    @property
    def events(self) -> int:
        """Total events behind every outcome (cached or fresh)."""
        return sum(o.events for o in self.outcomes if o.ok)

    def source_counts(self) -> Dict[str, int]:
        """How many outcomes each source supplied."""
        counts = {source: 0 for source in SOURCES}
        for outcome in self.outcomes:
            counts[outcome.source] = counts.get(outcome.source, 0) + 1
        return counts

    @property
    def failures(self) -> List[CellOutcome]:
        """Outcomes that carry an error traceback."""
        return [o for o in self.outcomes if not o.ok]


def _cell_outcome(cell: SweepCell, precision: PrecisionResult,
                  source: str) -> CellOutcome:
    """Fold a finished precision run into the outcome record."""
    halfwidth = float(np.max(precision.summary.half_widths)) \
        if precision.summary.half_widths.size else float("nan")
    dof = max(1, precision.summary.n_batches - 1
              - precision.summary.n_controls)
    return CellOutcome(
        key=cell.key(), label=cell.label(), policy=cell.policy,
        profile=cell.profile, arrival_process=cell.arrival_process,
        service_process=cell.service_process, rho=cell.rho,
        n_users=cell.n_users, seed=cell.seed,
        target_halfwidth=cell.target_halfwidth,
        events=int(precision.result.events),
        horizon=float(precision.horizons[-1]),
        n_rungs=len(precision.horizons),
        achieved=bool(precision.achieved),
        halfwidth=halfwidth,
        confidence=verdict_confidence(
            halfwidth, cell.target_halfwidth, dof,
            precision.summary.confidence),
        mean_total_queue=float(precision.result.total_mean_queue),
        source=source)


def _error_outcome(cell: SweepCell, trace: str) -> CellOutcome:
    """A FAIL outcome standing in for a cell that crashed."""
    return CellOutcome(
        key=cell.key(), label=cell.label(), policy=cell.policy,
        profile=cell.profile, arrival_process=cell.arrival_process,
        service_process=cell.service_process, rho=cell.rho,
        n_users=cell.n_users, seed=cell.seed,
        target_halfwidth=cell.target_halfwidth,
        events=0, horizon=float(cell.horizon), n_rungs=0,
        achieved=False, halfwidth=float("nan"), confidence=0.0,
        mean_total_queue=float("nan"), source="fresh",
        error=trace.rstrip())


def _run_cell(cell: SweepCell) -> CellOutcome:
    """Simulate one cell to its CI target (worker unit of work)."""
    precision = simulate_to_precision(
        cell.config(), target_halfwidth=cell.target_halfwidth,
        max_horizon=cell.max_horizon())
    return _cell_outcome(cell, precision, source="fresh")


def _run_cell_batch(cells: Sequence[SweepCell],
                    cache_enabled: Optional[bool], cache_dir: str,
                    ) -> Tuple[List[Dict[str, Any]], Dict[str, int],
                               float]:
    """Run a batch of CRN-sibling cells in one worker.

    ``cache_enabled`` and ``cache_dir`` are the parent's sim-cache
    flag and resolved directory: a pooled worker forked before the
    parent changed either would otherwise keep its own copy.

    Returns ``(outcome_dicts, counts, busy_seconds)``: ``counts`` is
    what the batch added to :mod:`repro.obs`; busy seconds feed the
    utilization estimate.  A crashing cell yields an error outcome;
    its siblings still run.
    """
    if cache_enabled is not None:
        sim_cache.set_enabled(cache_enabled)
    # Never true in-process, so a serial sweep leaves the parent's
    # environment alone.
    if sim_cache.cache_dir() != cache_dir:
        os.environ[sim_cache.ENV_DIR] = cache_dir
    started = time.perf_counter()
    outcomes: List[Dict[str, Any]] = []
    with obs.Scope() as counted:
        for cell in cells:
            try:
                outcome = _run_cell(cell)
            except Exception:
                outcome = _error_outcome(cell, traceback.format_exc())
            outcomes.append(outcome.as_dict())
    busy = time.perf_counter() - started
    return outcomes, counted.delta, busy


def warm_outcome(cell: SweepCell) -> Optional[CellOutcome]:
    """Resolve a cell purely from the persistent sim cache, or None.

    :func:`repro.sim.runner.cached_precision` replays the schedule
    ``simulate_to_precision`` would walk, reading only through
    :func:`repro.sim.cache.peek`.  A cell whose schedule is fully
    cached gets an outcome byte-identical to what a worker would have
    produced, at no dispatch, no pickle round-trip and no fresh
    events.  Any missing rung sends the cell to a worker, which will
    itself reuse every cached rung below the miss.
    """
    precision = cached_precision(
        cell.config(), target_halfwidth=cell.target_halfwidth,
        max_horizon=cell.max_horizon())
    if precision is None:
        return None
    return _cell_outcome(cell, precision, source="cache")


class SweepScheduler:
    """Schedules a catalog's cells across a persistent worker pool.

    Parameters
    ----------
    catalog:
        The expanded scenario grid.
    jobs:
        Worker processes; 1 runs everything in-process (no pool).
    journal_path:
        Override for the journal location (default: derived from the
        catalog digest under ``.greedwork_cache/sweeps/``); ``None``
        with ``journal=False`` disables journaling entirely (tests).
    resume:
        Replay an existing journal before scheduling (``sweep
        resume``); ``False`` truncates and starts fresh (``sweep
        run``).
    progress:
        Callback receiving :class:`SweepProgress` ticks.
    pool:
        An existing :class:`~repro.parallel.WorkerPool` to reuse; the
        scheduler then never shuts it down (callers owning a pool can
        run many sweeps without re-paying spin-up).
    cache_enabled:
        Pinned sim-cache flag shipped to workers (parent overrides are
        in-memory and would otherwise be lost under spawn).
    """

    def __init__(self, catalog: Catalog, jobs: int = 1,
                 journal_path: Optional[str] = None,
                 journal: bool = True,
                 resume: bool = False,
                 progress: Optional[Callable[[SweepProgress],
                                             None]] = None,
                 pool: Optional[WorkerPool] = None,
                 cache_enabled: Optional[bool] = None) -> None:
        self.catalog = catalog
        self.jobs = max(1, jobs)
        self.digest = catalog.digest()
        self._journal_enabled = journal
        self._journal_path = journal_path or (
            journal_mod.journal_path(self.digest) if journal else None)
        self._resume = resume
        self._progress = progress
        self._pool = pool
        self._cache_enabled = cache_enabled
        # Live accounting, read by the progress callback.
        self._done = 0
        self._running = 0
        self._queued = 0
        self._events = 0
        self._busy_s = 0.0
        self._started = 0.0
        self._counted = obs.Scope()

    # -- public entry points -------------------------------------------

    def run(self) -> SweepResult:
        """Execute the sweep and return outcomes in catalog order."""
        self._started = time.perf_counter()
        unique, _duplicates = dedupe_cells(self.catalog.cells)
        by_key: Dict[str, CellOutcome] = {}

        replayed = self._replay_journal(unique, by_key)
        journal = self._open_journal()
        try:
            if journal is not None:
                journal.write_header(self.digest, self.catalog.name,
                                     len(self.catalog))
                # Re-record replayed outcomes: `run` truncated the
                # file, and resumed journals stay self-contained.
                for outcome in replayed:
                    journal.write_cell(outcome.key, outcome.as_dict())
            pending: List[SweepCell] = []
            for cell in unique:
                if cell.key() in by_key:
                    continue
                warm = warm_outcome(cell)
                if warm is not None:
                    by_key[warm.key] = warm
                    self._done += 1
                    self._events += warm.events
                    if journal is not None:
                        journal.write_cell(warm.key, warm.as_dict())
                else:
                    pending.append(cell)
            self._queued = len(pending)
            self._tick()
            batches = self._batches(pending)
            if batches:
                with self._counted:
                    self._execute(batches, journal, by_key)
        finally:
            if journal is not None:
                journal.close()
        outcomes = self._ordered_outcomes(by_key)
        wall = time.perf_counter() - self._started
        counts = self._cache_counts()
        return SweepResult(
            catalog_name=self.catalog.name, digest=self.digest,
            outcomes=outcomes, wall_s=wall, busy_s=self._busy_s,
            jobs=self.jobs, fresh_events=counts["fresh_events"],
            stats_delta=counts, journal_path=self._journal_path)

    # -- phases ---------------------------------------------------------

    def _replay_journal(self, unique: Sequence[SweepCell],
                        by_key: Dict[str, CellOutcome],
                        ) -> List[CellOutcome]:
        """Fill ``by_key`` from the journal (resume only)."""
        if not (self._resume and self._journal_path):
            return []
        recorded = journal_mod.read_journal(self._journal_path)
        replayed: List[CellOutcome] = []
        for cell in unique:
            payload = recorded.get(cell.key())
            if payload is None:
                continue
            outcome = CellOutcome.from_dict(payload)
            if not outcome.ok:
                continue            # crashed cells are retried
            outcome.source = "journal"
            by_key[outcome.key] = outcome
            replayed.append(outcome)
            self._done += 1
            self._events += outcome.events
        return replayed

    def _open_journal(self) -> Optional[journal_mod.SweepJournal]:
        if not (self._journal_enabled and self._journal_path):
            return None
        return journal_mod.SweepJournal(self._journal_path,
                                        fresh=not self._resume)

    def _batches(self, pending: Sequence[SweepCell]
                 ) -> List[List[SweepCell]]:
        """CRN-sibling batches, cheapest batch first.

        Cells sharing a CRN key (identical traffic, different
        discipline) go to the same worker back-to-back: their ladder
        rungs land in that worker's page cache and snapshot store
        together, and their outcomes become comparable as a paired
        block as soon as the batch completes.  Within a batch and
        across batches, cheap cells run first for early signal.
        """
        groups: Dict[str, List[SweepCell]] = {}
        order: List[str] = []
        for cell in pending:
            group_key = cell.crn_key()
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(cell)
        batches = []
        for group_key in order:
            batch = sorted(groups[group_key],
                           key=lambda c: (c.cost_estimate(), c.key()))
            batches.append(batch)
        batches.sort(key=lambda batch: (batch[0].cost_estimate(),
                                        batch[0].key()))
        return batches

    def _execute(self, batches: List[List[SweepCell]],
                 journal: Optional[journal_mod.SweepJournal],
                 by_key: Dict[str, CellOutcome]) -> None:
        if self.jobs == 1:
            for batch in batches:
                self._running = len(batch)
                self._queued -= len(batch)
                self._absorb(_run_cell_batch(batch,
                                             self._cache_enabled,
                                             sim_cache.cache_dir()),
                             journal, by_key)
            self._running = 0
            return
        asyncio.run(self._dispatch(batches, journal, by_key))

    async def _dispatch(self, batches: List[List[SweepCell]],
                        journal: Optional[journal_mod.SweepJournal],
                        by_key: Dict[str, CellOutcome]) -> None:
        """Dispatch batches over the pool without ever blocking.

        The loop keeps at most ``jobs`` batches in flight, waits on
        *completion events* (``asyncio.wait`` with FIRST_COMPLETED —
        awaiting a finished future never blocks the loop), and
        absorbs results as they land so journal writes and progress
        ticks stream during the sweep rather than after it.
        """
        pool = self._pool or WorkerPool(self.jobs)
        own_pool = self._pool is None
        queue = deque(batches)
        in_flight: Dict[Any, List[SweepCell]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < pool.jobs:
                    batch = queue.popleft()
                    future = asyncio.wrap_future(pool.submit(
                        _run_cell_batch, batch, self._cache_enabled,
                        sim_cache.cache_dir()))
                    in_flight[future] = batch
                    self._running += len(batch)
                    self._queued -= len(batch)
                done, _pending = await asyncio.wait(
                    set(in_flight), return_when=asyncio.FIRST_COMPLETED)
                for future in done:
                    batch = in_flight.pop(future)
                    self._running -= len(batch)
                    self._absorb(await future, journal, by_key)
        finally:
            if own_pool:
                pool.shutdown()

    def _absorb(self, payload: Tuple[List[Dict[str, Any]],
                                     Dict[str, int], float],
                journal: Optional[journal_mod.SweepJournal],
                by_key: Dict[str, CellOutcome]) -> None:
        """Fold one batch result into parent-side accounting."""
        outcome_dicts, _counts, busy = payload
        self._busy_s += busy
        for outcome_dict in outcome_dicts:
            outcome = CellOutcome.from_dict(outcome_dict)
            by_key[outcome.key] = outcome
            self._done += 1
            if outcome.ok:
                self._events += outcome.events
            if journal is not None:
                journal.write_cell(outcome.key, outcome.as_dict())
        self._tick()

    def _ordered_outcomes(self, by_key: Dict[str, CellOutcome]
                          ) -> List[CellOutcome]:
        """Catalog-order outcomes; duplicates marked ``dedup``."""
        outcomes: List[CellOutcome] = []
        seen: Dict[str, int] = {}
        for cell in self.catalog.cells:
            cell_key = cell.key()
            outcome = by_key[cell_key]
            if cell_key in seen:
                outcome = replace(outcome, source="dedup")
            seen[cell_key] = seen.get(cell_key, 0) + 1
            outcomes.append(outcome)
        return outcomes

    def _cache_counts(self) -> Dict[str, int]:
        """The sim-cache counts the sweep has added so far."""
        return obs.group("sim.cache", sim_cache.COUNTERS,
                         self._counted.delta)

    def _tick(self) -> None:
        if self._progress is None:
            return
        counts = self._cache_counts()
        self._progress(SweepProgress(
            done=self._done, running=self._running,
            queued=max(0, self._queued),
            total=len(self.catalog),
            events=self._events,
            fresh_events=counts["fresh_events"],
            cache_hits=counts["hits"],
            cache_misses=counts["misses"],
            busy_s=self._busy_s,
            wall_s=time.perf_counter() - self._started,
            jobs=self.jobs))


def run_sweep(catalog: Catalog, jobs: int = 1,
              journal: bool = True, resume: bool = False,
              journal_path: Optional[str] = None,
              progress: Optional[Callable[[SweepProgress],
                                          None]] = None,
              pool: Optional[WorkerPool] = None,
              cache_enabled: Optional[bool] = None) -> SweepResult:
    """One-call front door: schedule a catalog and collect outcomes."""
    scheduler = SweepScheduler(
        catalog, jobs=jobs, journal=journal, resume=resume,
        journal_path=journal_path, progress=progress, pool=pool,
        cache_enabled=cache_enabled)
    return scheduler.run()
