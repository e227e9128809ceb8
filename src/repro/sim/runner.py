"""The discrete-event engine and high-level ``simulate`` entry point.

Model: ``N`` independent Poisson sources (rates ``r_i``) feed a
unit-rate exponential server run by a :class:`QueuePolicy`.  The engine
is a jump chain over arrival/completion events:

* per-user next-arrival times live in a heap;
* one tentative completion time exists whenever the system is
  nonempty; it is *redrawn* ``Exp(mu)`` at every event, which is
  distributionally exact because exponential service is memoryless —
  this uniformly handles preemption, resumption, and processor
  sharing without tracking attained service.

The engine integrates per-user queue lengths over time; the mean per
user is the paper's congestion ``c_i``.

RNG draw-order contract
-----------------------
All randomness derives from ``SimulationConfig.seed`` through
``numpy.random.SeedSequence(seed).spawn(n_users + 2)`` (see
:func:`repro.numerics.rng.spawn_generators`).  Child streams, in spawn
order:

* child ``i`` (``0 <= i < n_users``) — user ``i``'s interarrival
  :class:`~repro.sim.arrivals.VariateStream`;
* child ``n_users`` — the service stream: one ``Exp(mu)`` redraw per
  state change in memoryless mode, or one packet size per arrival in
  sized mode (non-exponential service, or a sized policy such as Fair
  Queueing);
* child ``n_users + 1`` — the policy stream (ladder thinning choices,
  processor-sharing completion picks), passed to
  ``QueuePolicy.push``/``complete``.

Because the arrival streams are children ``0..n_users-1`` of the seed
alone, two configs that share a seed and rates — and differ only in
``policy`` — consume *identical* arrival sequences (and, in sized
mode, identical packet sizes): common random numbers for discipline
comparisons fall out of the contract.  :func:`paired_configs` builds
such families; a contract test pins the per-stream draw counts.

Streams pre-draw variates in blocks of
:data:`~repro.sim.arrivals.DEFAULT_BLOCK_SIZE`; exponential and
deterministic streams are block-size invariant, the hyperexponential
block layout is guaranteed bit-identical only at the default size (see
:class:`~repro.sim.arrivals.VariateStream`).
``SimulationConfig.variate_mode`` selects the inversion-based variate
modes that make antithetic replication pairs possible; the default
mode's sequences are unchanged.  Golden-seed regression tests pin the
realized sequences; any change to this contract or to the event core
must bump :data:`ENGINE_VERSION`, which also invalidates the
persistent simulation cache (:mod:`repro.sim.cache`).

Resumable horizons and sequential stopping
------------------------------------------
:class:`SimulationEngine` factors the event core into an object whose
``run_to(horizon)`` can be called repeatedly with growing horizons;
between calls the full state (policy backlog, tracker, variate
streams, pending events) can be snapshotted, pickled into the
persistent cache, and restored — extending a cached run from ``H`` to
``H'`` simulates only the delta.  Bit-identity of resumed runs with
fresh runs requires a horizon-independent batch layout, so resumable
configs must set ``batch_quota`` (an explicit batch duration) instead
of deriving batches from the horizon.  :func:`simulate_to_precision`
builds sequential stopping on top: simulate in geometrically growing
horizon chunks, assess the (control-variate-adjusted, Student-t) CI
after each, stop at the target half-width.  :func:`cached_precision`
replays the same schedule from the cache alone, without simulating.

The scalar :class:`SimulationEngine` has two reasons to exist: it is
the bit-identity oracle the chunked kernels are tested against, and
it runs the policies no kernel covers.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

import repro.obs as obs
from repro.exceptions import SimulationError
from repro.numerics.rng import spawn_generators, spawn_seeds
from repro.sim import cache as sim_cache
from repro.sim.arrivals import VariateStream
from repro.sim.measurements import BatchMeans, QueueTracker
from repro.sim.packet import (Packet, ensure_sequence_at_least,
                              sequence_watermark)
from repro.sim.queues import QueuePolicy, make_policy
from repro.sim.stats import (ControlVariateSummary, control_specs_for,
                             control_variate_adjust, t_quantile)

#: Version tag of the event core *and* of the RNG draw-order contract.
#: Bump it whenever either changes: golden-sequence tests must be
#: re-pinned and every persistent cache entry becomes stale (the tag
#: is part of the cache key).  The ``-chunked-3`` bump marks the
#: per-batch arrived-work measurement channel and the chunked backend;
#: the realized RNG sequences themselves are unchanged, but snapshots
#: and cached results now carry the extra channel.
ENGINE_VERSION = "2026.08-chunked-3"

#: Two-sided level of every confidence interval this module reports.
_CONFIDENCE = 0.95

#: Ratio of consecutive post-warmup horizons on a precision ladder.
_GROWTH = 2.0


@dataclass
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes
    ----------
    rates:
        Per-user Poisson arrival rates.
    policy:
        A :class:`QueuePolicy` instance or a policy name understood by
        :func:`repro.sim.queues.make_policy`.  Only name-configured
        runs hit the persistent cache (an instance carries state the
        cache key cannot see).
    horizon:
        Simulated time to run.
    warmup:
        Initial time excluded from statistics.
    service_rate:
        Exponential service rate ``mu`` (the paper fixes 1).
    seed:
        RNG seed; runs are reproducible given the seed.
    n_batches:
        Batches for the batch-means confidence intervals (ignored when
        ``batch_quota`` is set).
    arrival_process:
        Interarrival distribution: ``"poisson"`` (the paper's model),
        ``"deterministic"``, or ``"hyperexponential"`` (cv 2) — see
        :mod:`repro.sim.arrivals`.
    service_process:
        Service-time distribution: ``"exponential"`` (the paper's
        model), ``"deterministic"`` (M/D/1), or ``"hyperexponential"``
        (cv 2).  Non-exponential service forces sized mode and is only
        valid with nonpreemptive policies (FIFO, HOL, round robin,
        fair queueing) — the memoryless redraw would be wrong.
    batch_quota:
        Explicit batch duration in simulated time.  When set, batch
        boundaries lie at ``warmup + k * batch_quota`` independently
        of the horizon, which makes the run *resumable*: extending the
        horizon appends batches without moving earlier boundaries, so
        a resumed run is bit-identical to a fresh longer one and the
        engine state becomes cacheable (see :mod:`repro.sim.cache`).
    variate_mode:
        ``"default"`` (numpy's native samplers), or the
        inversion-based ``"inverse"`` / ``"antithetic"`` pair used by
        antithetic replication — see
        :class:`~repro.sim.arrivals.VariateStream`.
    """

    rates: Sequence[float]
    policy: Union[str, QueuePolicy] = "fifo"
    horizon: float = 20000.0
    warmup: float = 1000.0
    service_rate: float = 1.0
    seed: int = 0
    n_batches: int = 20
    arrival_process: str = "poisson"
    service_process: str = "exponential"
    batch_quota: Optional[float] = None
    variate_mode: str = "default"


@dataclass
class SimulationResult:
    """Measured outcome of a simulation run.

    Attributes
    ----------
    mean_queues:
        Per-user time-average number in system (the paper's ``c_i``).
    batch:
        Batch-means summary (means + CI half-widths, plus the raw
        per-batch matrices used by control variates).
    throughputs:
        Per-user measured departure rates.
    mean_delays:
        Per-user mean sojourn times (post-warmup departures).
    losses:
        Per-user dropped-packet counts (all zeros for infinite-buffer
        policies).
    arrivals, departures:
        Event counts (diagnostics).
    policy_name:
        Which policy ran.
    config:
        The configuration used.
    variate_draws:
        Variates served per stream — one count per user's arrival
        stream, then the service stream.  Policy-independent for the
        arrival entries (the common-random-numbers contract).
    """

    mean_queues: np.ndarray
    batch: BatchMeans
    throughputs: np.ndarray
    mean_delays: np.ndarray
    losses: np.ndarray
    arrivals: int
    departures: int
    policy_name: str
    config: SimulationConfig = field(repr=False)
    variate_draws: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        # One string object for the name and a name-configured policy,
        # whether the config was built here or unpickled in a worker,
        # so a cached result pickles to the same bytes at any job count.
        if self.config.policy == self.policy_name:
            self.policy_name = self.config.policy

    @property
    def total_mean_queue(self) -> float:
        """Aggregate mean number in system."""
        return float(self.mean_queues.sum())

    @property
    def events(self) -> int:
        """Total simulated events behind this result."""
        return self.arrivals + self.departures


def _resolve_policy(config: SimulationConfig) -> QueuePolicy:
    if isinstance(config.policy, QueuePolicy):
        return config.policy
    return make_policy(config.policy, rates=config.rates,
                       n_users=len(list(config.rates)))


def _validate(config: SimulationConfig) -> np.ndarray:
    rates = np.asarray(config.rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise SimulationError("rates must be a non-empty vector")
    if np.any(rates <= 0.0):
        raise SimulationError(f"rates must be positive, got {rates}")
    if config.service_rate <= 0.0:
        raise SimulationError(
            f"service rate must be positive, got {config.service_rate}")
    if config.horizon <= config.warmup:
        raise SimulationError(
            f"horizon {config.horizon} must exceed warmup {config.warmup}")
    if config.batch_quota is not None and config.batch_quota <= 0.0:
        raise SimulationError(
            f"batch quota must be positive, got {config.batch_quota}")
    return rates


@dataclass
class EngineState:
    """A picklable snapshot of a :class:`SimulationEngine` mid-run.

    Everything a resumed engine needs to continue bit-identically:
    the policy with its backlog, the measurement tracker, the variate
    streams (buffer positions included), pending events, and the
    packet sequence watermark that keeps new sequence numbers above
    every in-flight packet's after a process boundary.
    """

    horizon: float
    policy: QueuePolicy
    tracker: QueueTracker
    arrival_streams: List[VariateStream]
    service_stream: VariateStream
    policy_rng: np.random.Generator
    arrivals_heap: List[Tuple[float, int]]
    next_completion: float
    serving_seq: int
    now: float
    n_arrivals: int
    n_departures: int
    sized: bool
    seq_watermark: int
    engine_version: str = ENGINE_VERSION


class SimulationEngine:
    """The resumable scalar event core.

    ``run_to(horizon)`` advances the jump chain to a horizon and may
    be called again with a larger one; because the loop leaves every
    pending event (heaped arrivals, the tentative completion) intact
    at the break, the continued run replays exactly the event sequence
    a fresh, longer run would have produced — *provided* the batch
    layout is horizon-independent (``batch_quota``).  ``snapshot()``
    captures the full state for the persistent cache;
    :meth:`SimulationEngine.resume` restores it, possibly in another
    process.  :func:`simulate` runs the
    :class:`~repro.sim.chunked.ChunkedSimulationEngine` subclass, which
    takes this loop whenever no compiled kernel covers the config.
    """

    #: Injected arrivals sorted by ``(time, user)`` and the index of the
    #: first pending one: none here; sharded switch engines
    #: (:mod:`repro.network.sharded`) deliver handoffs into them.
    _inj_times = np.empty(0)
    _inj_users = np.empty(0, dtype=np.int64)
    _inj_pos = 0
    #: Departure log, a list of ``(times, users)`` arrays; sharded
    #: switch engines set it to capture departures for handoff.
    _dep_log: Optional[list] = None

    def __init__(self, config: SimulationConfig,
                 rates: Optional[np.ndarray] = None) -> None:
        if rates is None:
            rates = _validate(config)
        self.config = config
        self.rates = rates
        n = rates.size
        policy = _resolve_policy(config)
        service_key = config.service_process.strip().lower()
        if service_key != "exponential" and getattr(policy, "preemptive",
                                                    False):
            raise SimulationError(
                f"service process {config.service_process!r} requires "
                f"a nonpreemptive policy; {policy.name!r} preempts")
        self.policy = policy
        self.tracker = QueueTracker(n, warmup=config.warmup)
        if config.batch_quota is not None:
            self.tracker.configure_batches(config.horizon,
                                           quota=config.batch_quota)
        else:
            self.tracker.configure_batches(config.horizon,
                                           n_batches=config.n_batches)
        # Independent substreams per the draw-order contract: users
        # 0..n-1, then service, then policy randomness.
        generators = spawn_generators(config.seed, n + 2)
        self.arrival_streams = [
            VariateStream(config.arrival_process, float(rates[i]),
                          generators[i], mode=config.variate_mode)
            for i in range(n)
        ]
        self.service_stream = VariateStream(service_key,
                                            config.service_rate,
                                            generators[n],
                                            mode=config.variate_mode)
        self.policy_rng = generators[n + 1]
        # Sized policies (Fair Queueing variants) schedule by explicit
        # packet sizes: a packet's service time is fixed when it
        # enters service.  Memoryless policies get the jump-chain
        # redraw instead.  Non-exponential service invalidates the
        # redraw, so it forces sized mode (nonpreemptive policies
        # only, checked above).
        self.sized = bool(getattr(policy, "sized", False)) or (
            service_key != "exponential")
        # Heap of (next_arrival_time, user).
        self.arrivals_heap = [(self.arrival_streams[i].draw(), i)
                              for i in range(n)]
        heapq.heapify(self.arrivals_heap)
        self.next_completion = math.inf
        self.serving_seq = -1
        self.now = 0.0
        self.n_arrivals = 0
        self.n_departures = 0
        self.horizon_reached = 0.0

    @classmethod
    # greedwork: ignore[GW401] -- _inj_pos is the handoff cursor; only
    # a sharded switch engine moves it, and that engine is never
    # snapshotted.
    def resume(cls, state: EngineState,
               config: SimulationConfig) -> "SimulationEngine":
        """Rebuild an engine from a snapshot taken at a lower horizon."""
        if state.engine_version != ENGINE_VERSION:
            raise SimulationError(
                f"snapshot from engine {state.engine_version!r} cannot "
                f"resume under {ENGINE_VERSION!r}")
        if config.batch_quota is None:
            raise SimulationError(
                "resuming requires an explicit batch_quota (the batch "
                "layout must not depend on the horizon)")
        rates = _validate(config)
        engine = cls.__new__(cls)
        engine.config = config
        engine.rates = rates
        engine.policy = state.policy
        engine.tracker = state.tracker
        engine.arrival_streams = state.arrival_streams
        engine.service_stream = state.service_stream
        engine.policy_rng = state.policy_rng
        engine.sized = state.sized
        engine.arrivals_heap = state.arrivals_heap
        engine.next_completion = state.next_completion
        engine.serving_seq = state.serving_seq
        engine.now = state.now
        engine.n_arrivals = state.n_arrivals
        engine.n_departures = state.n_departures
        engine.horizon_reached = state.horizon
        # New packets must sort after every in-flight one (heap
        # tiebreaks); only relative order matters, so jumping the
        # global counter forward preserves bit-identity.
        ensure_sequence_at_least(state.seq_watermark + 1)
        return engine

    # greedwork: ignore[GW401] -- _inj_pos: see resume().
    def snapshot(self) -> EngineState:
        """Capture the current state (see :class:`EngineState`).

        The policy goes through its
        :meth:`~repro.sim.queues.QueuePolicy.state_snapshot` hook; the
        other members are referenced as-is, which is safe because a
        snapshot is taken after a ``run_to`` completes and pickled
        before the engine runs again.
        """
        # greedwork: ignore[GW402] -- _inj_pos: see resume().
        return EngineState(
            horizon=self.horizon_reached,
            policy=self.policy.state_snapshot(),
            tracker=self.tracker,
            arrival_streams=self.arrival_streams,
            service_stream=self.service_stream,
            policy_rng=self.policy_rng,
            arrivals_heap=self.arrivals_heap,
            next_completion=self.next_completion,
            serving_seq=self.serving_seq,
            now=self.now,
            n_arrivals=self.n_arrivals,
            n_departures=self.n_departures,
            sized=self.sized,
            seq_watermark=sequence_watermark())

    def run_to(self, horizon: float) -> int:
        """Advance the jump chain to ``horizon``.

        Returns the number of events (arrivals + departures)
        simulated by *this call* — the extension delta when resuming.
        Injected handoffs merge into the arrivals by ``(time, user)``,
        and departures are logged while ``_dep_log`` is set (sharded
        switch engines).  See the module docstring for the RNG
        draw-order contract; bump ``ENGINE_VERSION`` on any change to
        this loop.
        """
        if horizon <= self.horizon_reached:
            return 0
        # Local bindings for the hot loop (attribute lookups add up at
        # millions of events per run).
        arrivals_heap = self.arrivals_heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        advance = self.tracker.advance
        on_arrival = self.tracker.on_arrival
        on_departure = self.tracker.on_departure
        on_drop = self.tracker.on_drop
        push = self.policy.push
        complete = self.policy.complete
        serving_of = self.policy.serving
        service_next = self.service_stream.draw
        arrival_next = [stream.draw for stream in self.arrival_streams]
        policy_rng = self.policy_rng
        sized = self.sized
        inf = math.inf
        # Injected handoffs as plain floats and ints; once none is left
        # the next one's key sorts after every heap entry.
        inj_times = self._inj_times.tolist()
        inj_users = self._inj_users.tolist()
        inj_pos = self._inj_pos
        n_inj = len(inj_times)
        no_handoff = (inf, self.rates.size)
        inj_time, inj_user = ((inj_times[inj_pos], inj_users[inj_pos])
                              if inj_pos < n_inj else no_handoff)
        dep_log = self._dep_log
        dep_times: List[float] = []
        dep_users: List[int] = []

        next_completion = self.next_completion
        serving_seq = self.serving_seq
        now = self.now
        n_arrivals = self.n_arrivals
        n_departures = self.n_departures
        events_before = n_arrivals + n_departures

        # greedwork: ignore[GW503] -- the scalar reference backend:
        # this loop *defines* the event order and draw order that the
        # chunked kernels are golden-tested against, so it stays in
        # per-event form on purpose.
        while True:
            next_arrival, user = arrivals_heap[0]
            # A handoff goes first only if its (time, user) sorts
            # strictly before the heap's: a source arrival wins a tie.
            injected = inj_time <= next_arrival and (
                inj_time < next_arrival or inj_user < user)
            if injected:
                next_arrival = inj_time
                user = inj_user
            if next_arrival >= horizon and next_completion >= horizon:
                advance(horizon)
                break
            if next_arrival <= next_completion:
                advance(next_arrival)
                now = next_arrival
                if injected:
                    inj_pos += 1
                    inj_time, inj_user = (
                        (inj_times[inj_pos], inj_users[inj_pos])
                        if inj_pos < n_inj else no_handoff)
                else:
                    heappop(arrivals_heap)
                    heappush(arrivals_heap,
                             (now + arrival_next[user](), user))
                packet = Packet(
                    user=user, arrival_time=now,
                    size=service_next() if sized else 0.0)
                outcome = push(packet, rng=policy_rng)
                n_arrivals += 1
                if outcome is None:
                    on_arrival(user, packet.size)
                elif outcome.get("admitted", True):
                    on_arrival(user, packet.size)
                    evicted = outcome.get("evicted_user")
                    if evicted is not None:
                        on_drop(evicted)
            else:
                advance(next_completion)
                now = next_completion
                done = complete(policy_rng)
                done.departure_time = now
                on_departure(done.user, sojourn=now - done.arrival_time)
                n_departures += 1
                if dep_log is not None:
                    dep_times.append(now)
                    dep_users.append(done.user)
            serving = serving_of()
            if serving is None:
                next_completion = inf
                serving_seq = -1
            elif sized:
                # Fixed service requirement; timer set once per packet.
                if serving.seq != serving_seq:
                    next_completion = now + serving.size
                    serving_seq = serving.seq
            else:
                # Redraw the tentative completion for whoever is
                # served now (exact under exponential service).
                next_completion = now + service_next()

        self.next_completion = next_completion
        self.serving_seq = serving_seq
        self.now = now
        self.n_arrivals = n_arrivals
        self.n_departures = n_departures
        self.horizon_reached = horizon
        self._inj_pos = inj_pos
        if dep_times:
            dep_log.append((np.asarray(dep_times, dtype=float),
                            np.asarray(dep_users, dtype=np.int64)))
        return n_arrivals + n_departures - events_before

    def result(self, config: Optional[SimulationConfig] = None
               ) -> SimulationResult:
        """Assemble the measured outcome at the current horizon."""
        if config is None:
            config = replace(self.config, horizon=self.horizon_reached)
        n = self.rates.size
        policy = self.policy
        losses = (policy.loss_counts(n)
                  if hasattr(policy, "loss_counts")
                  else np.zeros(n, dtype=int))
        draws = tuple(stream.draws for stream in self.arrival_streams
                      ) + (self.service_stream.draws,)
        tracker = self.tracker
        return SimulationResult(mean_queues=tracker.mean_queues(),
                                batch=tracker.batch_means(),
                                throughputs=tracker.throughputs(),
                                mean_delays=tracker.mean_delays(),
                                losses=losses,
                                arrivals=self.n_arrivals,
                                departures=self.n_departures,
                                policy_name=policy.name,
                                config=config,
                                variate_draws=draws)


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run one discrete-event simulation to its horizon.

    Consults the persistent simulation cache first (see
    :mod:`repro.sim.cache`): a hit returns the stored result without
    touching the event core.  On a miss, configs with an explicit
    ``batch_quota`` additionally look for a cached *engine snapshot*
    at a lower horizon of the same run and simulate only the
    extension delta (``fresh_events`` counts just that delta).
    Disable via ``--no-sim-cache`` or ``GREEDWORK_SIM_CACHE=off``.
    The event core is :class:`~repro.sim.chunked.ChunkedSimulationEngine`:
    a compiled kernel where one covers the config and a C compiler
    exists, the scalar loop otherwise, with byte-identical results.
    """
    carry = _Carry()
    result = _chunk_simulate(config, carry)
    carry.save_state(config.horizon)
    return result


def paired_configs(config: SimulationConfig,
                   policies: Sequence[Union[str, QueuePolicy]],
                   ) -> List[SimulationConfig]:
    """Common-random-numbers configs: one per policy, same streams.

    Arrival streams (and sized-mode packet sizes) are children of the
    seed alone, so sharing the seed across policies pairs the runs on
    identical traffic: the difference of two paired estimates cancels
    arrival noise instead of compounding it.  The discipline
    comparisons (``fq_vs_ladder``, ``sim_validation``,
    ``finite_buffers``, ``ablation_arrivals``) lean on this.
    """
    return [replace(config, policy=policy) for policy in policies]


def config_sized(config: SimulationConfig) -> bool:
    """Whether ``config`` runs the engine in sized mode.

    Sized mode — a size-aware policy (Fair Queueing) or any
    non-exponential service law — draws a service size per arrival, so
    the variance-reduction applicability gates treat the run as
    incompatible with the analytically-known controls (see
    :func:`repro.sim.stats.control_specs_for`).  Benchmarks and
    callers choosing an estimation protocol should consult this
    instead of re-deriving the policy attribute.
    """
    policy = config.policy
    if isinstance(policy, QueuePolicy):
        sized = bool(getattr(policy, "sized", False))
    else:
        sized = bool(getattr(_resolve_policy(config), "sized", False))
    return sized or config.service_process.strip().lower() != "exponential"


def control_variate_summary(result: SimulationResult,
                            use_control_variates: bool = True,
                            ) -> ControlVariateSummary:
    """Control-variate-adjusted per-user 95% CI for a finished run.

    Builds the exactly-known controls valid for the run's model (see
    :func:`repro.sim.stats.control_specs_for`) and regresses them out
    of the per-batch means.  Works on cached results — the adjustment
    needs only the batch matrices, never the event core.  Falls back
    to the raw Student-t batch summary when no control applies.
    """
    batch = result.batch
    if batch.per_batch is None or batch.n_batches < 2:
        raise SimulationError(
            "control-variate adjustment needs per-batch matrices; "
            "run with at least two completed batches")
    specs = []
    if use_control_variates:
        sized = config_sized(result.config)
        specs = control_specs_for(
            per_batch=batch.per_batch,
            per_batch_arrivals=batch.per_batch_arrivals,
            quota=batch.quota,
            rates=np.asarray(result.config.rates, dtype=float),
            service_rate=result.config.service_rate,
            arrival_process=result.config.arrival_process.strip().lower(),
            service_process=result.config.service_process.strip().lower(),
            sized=sized,
            lossless=int(np.sum(result.losses)) == 0,
            per_batch_sizes=batch.per_batch_sizes)
    return control_variate_adjust(batch.per_batch, specs,
                                  confidence=_CONFIDENCE)


@dataclass
class PrecisionResult:
    """Outcome of a sequential-stopping simulation.

    ``result`` is the final (longest-horizon) run; ``summary`` holds
    the control-variate-adjusted means and half-widths that met (or
    failed to meet, when ``achieved`` is False) the target.
    ``horizons`` is the deterministic chunk schedule actually visited
    — deterministic so that warm-cache reruns replay the same chunk
    results and produce byte-identical reports.
    """

    result: SimulationResult
    summary: ControlVariateSummary
    target_halfwidth: float
    horizons: List[float]
    achieved: bool

    @property
    def events(self) -> int:
        """Events behind the final result (delta-only when resumed)."""
        return self.result.events


class _Carry:
    """What one rung of a schedule hands the next.

    ``engine`` is the live engine, so consecutive rungs are delta-only
    even when the persistent cache is disabled (tests) or the config
    is uncacheable (policy instances).  ``unsaved`` is the state key
    of a resumable engine that ran past its last stored snapshot:
    :meth:`save_state` stores one snapshot when the schedule ends,
    rather than one per rung.
    """

    def __init__(self) -> None:
        self.engine: Optional[SimulationEngine] = None
        self.unsaved: Optional[str] = None

    def save_state(self, horizon: float) -> None:
        """Store the engine's snapshot if it ran to ``horizon`` and
        past its last stored one."""
        engine = self.engine
        # Exact identity intended: run_to records the horizon it was
        # given.
        if self.unsaved is not None and engine is not None \
                and engine.horizon_reached == horizon:
            sim_cache.store_state(self.unsaved, engine.snapshot())
            self.unsaved = None


def _chunk_simulate(chunk: SimulationConfig,
                    carry: _Carry) -> SimulationResult:
    """Run one config to its horizon through the persistent cache.

    The one fixed-horizon path: :func:`simulate` and every rung of
    :func:`simulate_to_precision` come through here.  Result-cache
    hit first, then the carried engine or an engine-snapshot resume,
    then the event core; the result is stored afterwards, and the
    caller stores the snapshot (:meth:`_Carry.save_state`).
    """
    # Local import: repro.sim.chunked imports this module.
    from repro.sim.chunked import ChunkedSimulationEngine

    rates = _validate(chunk)
    key = None
    skey = None
    if sim_cache.enabled():
        key = sim_cache.config_key(chunk, ENGINE_VERSION)
        if key is None:
            obs.add("sim.cache.uncacheable")
        else:
            cached = sim_cache.load(key)
            if cached is not None:
                return cached
            skey = sim_cache.state_key(chunk, ENGINE_VERSION)
    engine = carry.engine
    if engine is not None and engine.horizon_reached > chunk.horizon:
        engine = None        # pragma: no cover - defensive, cannot rewind
    resumed_from = engine.horizon_reached if engine is not None else None
    if engine is None and skey is not None:
        state = sim_cache.load_state(skey)
        if (state is not None
                and getattr(state, "horizon", math.inf) <= chunk.horizon
                and getattr(state, "engine_version", "") == ENGINE_VERSION):
            engine = ChunkedSimulationEngine.resume(state, chunk)
            resumed_from = state.horizon
    if engine is None:
        engine = ChunkedSimulationEngine(chunk, rates)
    fresh = engine.run_to(chunk.horizon)
    obs.add("sim.cache.fresh_events", fresh)
    result = engine.result(chunk)
    if key is not None:
        sim_cache.store(key, result)
    if carry.engine is not engine:
        carry.engine, carry.unsaved = engine, None
    if skey is not None and (resumed_from is None
                             or chunk.horizon > resumed_from):
        carry.unsaved = skey
    return result


def _peek_rung(chunk: SimulationConfig) -> Optional[SimulationResult]:
    """One rung's cached result, read without moving a counter."""
    key = sim_cache.config_key(chunk, ENGINE_VERSION)
    return sim_cache.peek(key) if key is not None else None


def _meets_target(half_widths: np.ndarray, target_halfwidth: float) -> bool:
    """The stopping rule: every half-width finite and at most the target."""
    return bool(np.all(np.isfinite(half_widths))
                and np.max(half_widths) <= target_halfwidth)


@dataclass
class _Schedule:
    """One sequential-stopping schedule: horizon ladder and stop rule.

    Built from the caller's config and arguments alone, never from
    cache contents, so :func:`simulate_to_precision` and the
    cache-only :func:`cached_precision` visit identical rungs.
    """

    base: SimulationConfig
    target_halfwidth: float
    max_horizon: float
    use_control_variates: bool

    @classmethod
    def plan(cls, config: SimulationConfig, target_halfwidth: float,
             max_horizon: Optional[float],
             use_control_variates: bool) -> "_Schedule":
        """Validate the arguments and normalize the config.

        An explicit ``batch_quota`` (derived once from the *initial*
        horizon when absent) keeps the batch layout fixed across
        rungs, which is what makes each rung resumable from the
        previous one.
        """
        if target_halfwidth <= 0.0:
            raise SimulationError(
                f"target half-width must be positive, got "
                f"{target_halfwidth}")
        base = config
        if base.batch_quota is None:
            base = replace(base, batch_quota=(base.horizon - base.warmup)
                           / base.n_batches)
        if isinstance(base.policy, QueuePolicy):
            # The engine mutates the policy as it runs; keep the
            # caller's instance pristine.
            base = replace(base, policy=copy.deepcopy(base.policy))
        if max_horizon is None:
            max_horizon = base.warmup + 32.0 * (base.horizon - base.warmup)
        return cls(base, target_halfwidth, max_horizon,
                   use_control_variates)

    def horizons(self) -> Iterator[float]:
        """The rungs of the geometric ladder, in order.

        ``h_0`` is the config's horizon and
        ``h_{k+1} = min(max_horizon, warmup + (h_k - warmup) * 2)``;
        the ladder ends with the first rung at or past ``max_horizon``.
        """
        horizon = self.base.horizon
        warmup = self.base.warmup
        while True:
            yield horizon
            if horizon >= self.max_horizon:
                return
            horizon = min(self.max_horizon,
                          warmup + (horizon - warmup) * _GROWTH)

    def assess(self, result: SimulationResult,
               horizons: List[float]) -> PrecisionResult:
        """Apply the stopping rule to the result of the last rung."""
        summary = control_variate_summary(
            result, use_control_variates=self.use_control_variates)
        return PrecisionResult(
            result=result, summary=summary,
            target_halfwidth=self.target_halfwidth, horizons=horizons,
            achieved=_meets_target(summary.half_widths,
                                   self.target_halfwidth))

    def walk(self, run_rung: Callable[[SimulationConfig],
                                      Optional[SimulationResult]],
             ) -> Optional[PrecisionResult]:
        """Climb the ladder until the target is met or the cap is hit.

        Returns None as soon as ``run_rung`` answers a rung with None.
        """
        horizons: List[float] = []
        for horizon in self.horizons():
            result = run_rung(replace(self.base, horizon=horizon))
            if result is None:
                return None
            horizons.append(horizon)
            precision = self.assess(result, horizons)
            if precision.achieved:
                break
        return precision

    def _index_key(self) -> Optional[str]:
        return sim_cache.precision_key(
            self.base, ENGINE_VERSION, self.target_halfwidth,
            _CONFIDENCE, _GROWTH, self.max_horizon,
            self.use_control_variates)

    def store_index(self, horizons: List[float]) -> None:
        """Record how far the finished schedule climbed."""
        key = self._index_key()
        if key is not None:
            sim_cache.store_meta(key, {"final_horizon": horizons[-1],
                                       "n_rungs": len(horizons)})

    def indexed_horizons(self) -> Optional[List[float]]:
        """The rungs the indexed schedule visited, or None.

        The entry must match the ladder itself (rung count and final
        horizon); one that does not is ignored, and the replay walks
        rung by rung.
        """
        key = self._index_key()
        entry = sim_cache.peek(key) if key is not None else None
        if not isinstance(entry, dict):
            return None
        rungs = entry.get("n_rungs")
        if not isinstance(rungs, int) or rungs < 1:
            return None
        horizons = list(itertools.islice(self.horizons(), rungs))
        # Exact identity intended: both sides come from the same
        # recurrence on the same floats.
        if len(horizons) != rungs \
                or horizons[-1] != entry.get("final_horizon"):
            return None
        return horizons


def simulate_to_precision(config: SimulationConfig,
                          target_halfwidth: float,
                          max_horizon: Optional[float] = None,
                          use_control_variates: bool = True,
                          ) -> PrecisionResult:
    """Simulate just long enough for the per-user CI to meet a target.

    Runs the engine in geometrically growing horizon chunks
    (``h_k = warmup + (h_0 - warmup) * 2**k``, ``h_0`` the config's
    horizon), assessing the control-variate-adjusted 95% Student-t
    half-widths after each chunk and stopping as soon as every user's
    half-width is at or below ``target_halfwidth``.  One engine is
    carried across chunks, so the *total* simulated events equal those
    of the final horizon alone; with the persistent cache on, a warm
    rerun replays the whole schedule without simulating at all, and a
    re-run with a tighter target resumes the cached engine snapshot
    and simulates only the extension.

    The chunk schedule is a pure function of the config and the
    arguments — never of cache contents — so cold and warm runs visit
    identical chunk configs and render byte-identical reports.

    ``max_horizon`` (default ``32x`` the initial post-warmup window)
    bounds the schedule; if the target is still unmet there, the
    returned ``achieved`` flag is False and the summary reports the
    half-widths actually reached.
    """
    schedule = _Schedule.plan(config, target_halfwidth, max_horizon,
                              use_control_variates)
    carry = _Carry()
    precision = schedule.walk(lambda chunk: _chunk_simulate(chunk, carry))
    carry.save_state(precision.horizons[-1])
    if sim_cache.enabled():
        # Index the finished schedule so a warm replay can jump
        # straight to the final rung (see cached_precision).
        schedule.store_index(precision.horizons)
    return precision


def cached_precision(config: SimulationConfig,
                     target_halfwidth: float,
                     max_horizon: Optional[float] = None,
                     use_control_variates: bool = True,
                     ) -> Optional[PrecisionResult]:
    """The cached outcome of :func:`simulate_to_precision`, or None.

    Takes the same arguments, never simulates, and reads only through
    :func:`repro.sim.cache.peek`, so no cache counter moves: the sweep
    scheduler resolves warm cells with it before dispatching anything.
    The precision index that :func:`simulate_to_precision` writes lets
    the replay jump straight to the final rung (two reads); without
    the index, or when the final rung's entry is gone, it walks the
    ladder rung by rung.  The first missing rung returns None.  The
    stopping verdict is always recomputed from the cached result.
    """
    if not sim_cache.enabled():
        return None
    schedule = _Schedule.plan(config, target_halfwidth, max_horizon,
                              use_control_variates)
    horizons = schedule.indexed_horizons()
    if horizons is not None:
        result = _peek_rung(replace(schedule.base, horizon=horizons[-1]))
        if result is not None:
            return schedule.assess(result, horizons)
    return schedule.walk(_peek_rung)


def replication_configs(config: SimulationConfig,
                        n_replications: int) -> List[SimulationConfig]:
    """Per-replication configs with independent spawned seeds.

    ``dataclasses.replace`` keeps every field of ``config`` (including
    ``service_process`` and anything added later); only the seed
    varies, derived via :func:`repro.numerics.rng.spawn_seeds` so the
    replication plan is a pure function of ``config.seed``.
    """
    seeds = spawn_seeds(config.seed, n_replications)
    return [replace(config, seed=seed) for seed in seeds]


def antithetic_configs(config: SimulationConfig,
                       n_replications: int) -> List[SimulationConfig]:
    """Antithetic replication pairs (``n_replications`` must be even).

    Replications ``2k`` and ``2k+1`` share spawned seed ``k``; the
    even member draws every variate by inversion (``-ln(1-U)/rate``),
    the odd member by the mirrored inversion (``-ln(U)/rate``) from
    the same uniform stream — busy periods in one member line up with
    idle periods in the other, so pair averages have lower variance
    than two independent runs.
    """
    if n_replications % 2 != 0:
        raise SimulationError(
            f"antithetic replication needs an even count, "
            f"got {n_replications}")
    if config.variate_mode != "default":
        raise SimulationError(
            "antithetic replication manages variate modes itself; "
            f"config already sets {config.variate_mode!r}")
    seeds = spawn_seeds(config.seed, n_replications // 2)
    out: List[SimulationConfig] = []
    for k in range(n_replications):
        out.append(replace(
            config, seed=seeds[k // 2],
            variate_mode="inverse" if k % 2 == 0 else "antithetic"))
    return out


def replicate(config: SimulationConfig, n_replications: int = 5,
              antithetic: bool = False) -> "ReplicationSummary":
    """Run independent replications (different seeds) and pool them.

    Half-widths are 95% Student-t intervals at the replication count's
    degrees of freedom — at ``n=3`` the correct multiplier is 4.30,
    more than twice the normal 1.96 the naive formula would use.
    With ``antithetic=True`` replications come in mirrored pairs
    (see :func:`antithetic_configs`) and the CI is computed over the
    *pair averages*, which are genuinely independent.

    The replications run one after another in this process.  A config
    carrying a ``QueuePolicy`` *instance* gives each replication a
    deep copy of the instance, so one run's leftover backlog cannot
    contaminate the next.
    """
    if n_replications < 1:
        raise SimulationError("need at least one replication")
    if antithetic:
        configs = antithetic_configs(config, n_replications)
    else:
        configs = replication_configs(config, n_replications)
    if isinstance(config.policy, str):
        runs = [simulate(cfg) for cfg in configs]
    else:
        runs = [simulate(replace(cfg,
                                 policy=copy.deepcopy(config.policy)))
                for cfg in configs]
    queues = np.vstack([r.mean_queues for r in runs])
    if antithetic:
        # CI over independent pair averages (members of a pair are
        # negatively correlated by construction).
        queues = queues.reshape(n_replications // 2, 2, -1).mean(axis=1)
    means = queues.mean(axis=0)
    n_points = queues.shape[0]
    if n_points >= 2:
        half = (t_quantile(_CONFIDENCE, n_points - 1)
                * queues.std(axis=0, ddof=1) / math.sqrt(n_points))
    else:
        half = np.full(means.shape, math.nan)
    return ReplicationSummary(mean_queues=means, half_widths=half,
                              runs=runs, n_replications=n_replications,
                              antithetic=antithetic)


@dataclass
class ReplicationSummary:
    """Pooled mean queues across independent replications."""

    mean_queues: np.ndarray
    half_widths: np.ndarray
    runs: list
    n_replications: int = 0
    antithetic: bool = False

    def half_width_labels(self) -> List[str]:
        """Half-widths for report output.

        A single replication has no spread to estimate, so its CI is
        rendered ``"n/a"`` rather than the ``nan`` the formula
        produces.
        """
        if self.n_replications <= 1 or self.mean_queues.size == 0:
            return ["n/a"] * int(self.mean_queues.size)
        return [f"{h:.4f}" for h in np.asarray(self.half_widths)]
