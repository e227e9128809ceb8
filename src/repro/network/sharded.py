"""Sharded multi-switch simulation over the chunked event kernels.

The repository's one packet-level network simulator: every user sends
a stream along her :class:`~repro.network.model.Route` of an arbitrary
switch graph, each switch runs its own
:class:`~repro.sim.chunked.ChunkedSimulationEngine` event stream, and
packets finishing service at one switch are handed to the next switch
on the route after a fixed link delay.  :func:`tandem_config` builds
the two-hop line that probes the Poisson-output approximation.

Determinism and sharding
------------------------
Switch engines are coupled only through packet handoffs, which makes a
*conservative time-window* synchronization exact: with
``link_delay >= window``, every departure inside window ``k`` arrives
at its next hop no earlier than the start of window ``k + 1``, so each
window can be simulated for all switches independently — in one
process or many — with no possibility of a causality violation and
therefore no rollback.  Between windows the master gathers each
switch's departure log (captured inside the C kernels), maps
departures to next-hop injections, and delivers them before the next
window runs.

Handoff ordering is fully deterministic: injections are delivered in
ascending ``(delivery window, source switch, departure order)`` and
merged into each receiving engine's pending array stably by
``(arrival time, user)``, so two runs with different ``jobs`` produce
byte-identical per-switch engines.  The regression tests assert
exactly this: ``jobs=1``, ``jobs=2`` and ``jobs=4`` runs match
snapshot-for-snapshot.

Randomness follows the single-switch contract one level up:
``spawn_seeds(seed, n_switches)`` gives each switch an independent
seed, and each switch engine spawns its usual per-source arrival
streams, service stream, and policy stream from it.  Worker placement
never touches a generator, which is the other half of the
jobs-independence guarantee.

Scope: memoryless policies (FIFO and the Fair Share ladder) whose
chunked kernels expose the departure-log channel.  Service at every
hop is exponential, i.e. the packet-level analogue of the Kleinrock
independence approximation behind
:class:`~repro.network.model.NetworkAllocation`.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.network.model import Route
from repro.numerics.rng import spawn_seeds
from repro.sim import kernels as kn
from repro.sim.chunked import ChunkedSimulationEngine
from repro.sim.packet import Packet
from repro.sim.runner import (ENGINE_VERSION, EngineState, SimulationConfig,
                              SimulationResult)

#: Policies whose chunked kernels implement the departure-log channel.
SHARDED_POLICIES = ("fifo", "fair-share")

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.int64)


@dataclass
class SwitchGraphConfig:
    """Configuration of one sharded switch-graph simulation.

    Attributes
    ----------
    rates:
        Per-user source rates (each user emits one stream at her
        route's first switch).
    routes:
        One :class:`~repro.network.model.Route` (or switch-index
        sequence) per user.
    policies:
        Per-switch policy *names* drawn from :data:`SHARDED_POLICIES`.
    speeds:
        Per-switch exponential service rates (default 1.0 each).
    horizon, warmup, seed:
        As in the single-switch simulator; the warmup applies at every
        switch.
    window:
        Synchronization window in simulated time: switches exchange
        handoffs only at multiples of ``window``.
    link_delay:
        Propagation delay added to every handoff.  Must be at least
        ``window`` — that inequality is what makes window-parallel
        execution exact (see the module docstring).
    batch_quota, n_batches:
        Batch layout per switch tracker, exactly as in
        :class:`~repro.sim.runner.SimulationConfig`.  Snapshots
        require an explicit ``batch_quota``.
    """

    rates: Sequence[float]
    routes: Sequence
    policies: Sequence[str] = ()
    speeds: Optional[Sequence[float]] = None
    horizon: float = 20000.0
    warmup: float = 1000.0
    seed: int = 0
    window: float = 500.0
    link_delay: float = 500.0
    batch_quota: Optional[float] = None
    n_batches: int = 20


@dataclass
class ShardedResult:
    """Measured outcome of a sharded switch-graph run.

    Attributes
    ----------
    mean_queues:
        Shape ``(n_switches, n_users)``: time-average number of user
        ``i``'s packets at each switch (0.0 where the route does not
        cross).
    total_mean_queues:
        Per-user sums along routes — the network ``c_i`` of
        :class:`~repro.network.model.NetworkAllocation`.
    per_switch:
        One :class:`~repro.sim.runner.SimulationResult` per switch in
        the switch's *local* user indexing.
    members:
        Per switch, the global user indices behind the local columns.
    arrivals:
        Arrivals summed over all switch engines (a packet arrives once
        per hop on its route).
    events:
        Total events (arrivals + departures, handoff re-arrivals
        included) across all switch engines — the numerator of the
        aggregate events/second figure.
    windows:
        Number of synchronization windows executed.
    """

    mean_queues: np.ndarray
    total_mean_queues: np.ndarray
    per_switch: List[SimulationResult]
    members: List[np.ndarray]
    arrivals: int
    events: int
    windows: int


@dataclass
class ShardedState:
    """A picklable snapshot of a sharded run at a window boundary."""

    window_index: int
    engine_states: List[EngineState]
    pending_times: List[np.ndarray]
    pending_users: List[np.ndarray]
    n_switches: int
    events: int = 0
    engine_version: str = ENGINE_VERSION


class ShardSwitchEngine(ChunkedSimulationEngine):
    """One switch's engine: local sources plus injected handoffs.

    The engine is the ordinary chunked engine over the switch's *local*
    user set (the users whose routes cross it), with two extensions:

    * users whose route does not *start* here never draw from their
      arrival stream — their heap entry is pinned at infinity and all
      of their packets arrive through :meth:`inject`;
    * every departure is captured in a log (by the C kernels on the
      chunked path, by the loop itself on the scalar fallback) for the
      master to turn into next-hop injections.

    Injected arrivals are one more sorted input to the kernels'
    arrival merge.  Both backends take arrivals in ``(time, local
    user)`` order; among handoffs with the same key, in delivery order;
    and a source arrival before a handoff with the same key.
    """

    def __init__(self, config: SimulationConfig,
                 source_users: Sequence[int]) -> None:
        super().__init__(config)
        source = set(int(u) for u in source_users)
        # Non-source users keep their streams (the construction draw
        # already happened, identically for every jobs placement) but
        # are never drawn from again.
        self.arrivals_heap = [
            (time if user in source else math.inf, user)
            for time, user in sorted(self.arrivals_heap,
                                     key=lambda entry: entry[1])]
        heapq.heapify(self.arrivals_heap)
        self._init_shard_fields(_EMPTY_F, _EMPTY_I)

    def _init_shard_fields(self, inj_times: np.ndarray,
                           inj_users: np.ndarray) -> None:
        self._dep_log = []
        self._inj_times = _EMPTY_F
        self._inj_users = _EMPTY_I
        self._inj_pos = 0
        self.inject(inj_times, inj_users)

    @classmethod
    def resume_shard(cls, state: EngineState, config: SimulationConfig,
                     inj_times: np.ndarray,
                     inj_users: np.ndarray) -> "ShardSwitchEngine":
        """Rebuild a switch engine from a window-boundary snapshot."""
        engine = cls.resume(state, config)
        engine._init_shard_fields(inj_times, inj_users)
        return engine

    # -- handoff plumbing ---------------------------------------------

    def inject(self, times: np.ndarray, users: np.ndarray) -> None:
        """Queue handoff arrivals (sorted by time) for future windows.

        All delivered times must lie at or beyond the horizon already
        simulated — guaranteed by ``link_delay >= window``.
        """
        times = np.asarray(times, dtype=float)
        users = np.asarray(users, dtype=np.int64)
        if times.size == 0:
            return
        if float(times.min()) < self.horizon_reached - 1e-9:
            raise SimulationError(
                "handoff delivered into the simulated past: "
                f"{times.min()} < {self.horizon_reached}")
        rem_t = self._inj_times[self._inj_pos:]
        rem_u = self._inj_users[self._inj_pos:]
        merged_t = np.concatenate([rem_t, times])
        merged_u = np.concatenate([rem_u, users])
        # Stable by (time, user): earlier-delivered handoffs win exact
        # ties, making the pending order a pure function of delivery
        # order.
        order = np.lexsort((merged_u, merged_t))
        self._inj_times = np.ascontiguousarray(merged_t[order])
        self._inj_users = np.ascontiguousarray(merged_u[order])
        self._inj_pos = 0

    def pending_injections(self) -> Tuple[np.ndarray, np.ndarray]:
        """Handoffs delivered but not yet simulated (for snapshots)."""
        return (self._inj_times[self._inj_pos:].copy(),
                self._inj_users[self._inj_pos:].copy())

    def drain_dep_log(self) -> Tuple[np.ndarray, np.ndarray]:
        """This run's departures (time-ordered), clearing the log."""
        if not self._dep_log:
            return _EMPTY_F, _EMPTY_I
        times = np.concatenate([entry[0] for entry in self._dep_log])
        users = np.concatenate([entry[1] for entry in self._dep_log])
        self._dep_log = []
        return times, users

    # -- execution ----------------------------------------------------

    def run_to(self, horizon: float) -> int:
        if horizon <= self.horizon_reached:
            return 0
        kind = self._kernel_kind()
        if kind is not None and kn.load_kernels() is not None:
            return self._run_chunked(float(horizon), kind)
        return self._run_scalar_injected(float(horizon))

    def _run_scalar_injected(self, horizon: float) -> int:
        """Scalar fallback replaying the base loop with injections.

        Event order matches the chunked path exactly: arrivals by
        ``(time, user)`` with source arrivals beating injected ones at
        identical keys, and arrivals beating completions at ties.
        """
        arrivals_heap = self.arrivals_heap
        tracker = self.tracker
        advance = tracker.advance
        on_arrival = tracker.on_arrival
        on_departure = tracker.on_departure
        push = self.policy.push
        complete = self.policy.complete
        serving_of = self.policy.serving
        service_next = self.service_stream.draw
        arrival_next = [stream.draw for stream in self.arrival_streams]
        policy_rng = self.policy_rng
        inf = math.inf
        inj_t = self._inj_times
        inj_u = self._inj_users
        pos = self._inj_pos
        n_inj = inj_t.size

        next_completion = self.next_completion
        now = self.now
        n_arrivals = self.n_arrivals
        n_departures = self.n_departures
        events_before = n_arrivals + n_departures
        dep_times: List[float] = []
        dep_users: List[int] = []

        # greedwork: ignore[GW503] -- kernel-less fallback of the
        # sharded switch engine; the chunked path is the hot one, and
        # this loop pins the injected-arrival event order it must match.
        while True:
            next_arrival, user = arrivals_heap[0]
            injected = (pos < n_inj
                        and (inj_t[pos], int(inj_u[pos]))
                        < (next_arrival, user))
            if injected:
                next_arrival = inj_t[pos]
                user = int(inj_u[pos])
            if next_arrival >= horizon and next_completion >= horizon:
                advance(horizon)
                break
            if next_arrival <= next_completion:
                advance(next_arrival)
                now = next_arrival
                if injected:
                    pos += 1
                else:
                    heapq.heappop(arrivals_heap)
                    heapq.heappush(arrivals_heap,
                                   (now + arrival_next[user](), user))
                push(Packet(user=user, arrival_time=now), rng=policy_rng)
                on_arrival(user, 0.0)
                n_arrivals += 1
            else:
                advance(next_completion)
                now = next_completion
                done = complete(policy_rng)
                done.departure_time = now
                on_departure(done.user, sojourn=now - done.arrival_time)
                n_departures += 1
                dep_times.append(now)
                dep_users.append(done.user)
            if serving_of() is None:
                next_completion = inf
            else:
                next_completion = now + service_next()

        self.next_completion = next_completion
        self.now = now
        self.n_arrivals = n_arrivals
        self.n_departures = n_departures
        self.horizon_reached = horizon
        self._inj_pos = pos
        if dep_times:
            self._dep_log.append(
                (np.asarray(dep_times, dtype=float),
                 np.asarray(dep_users, dtype=np.int64)))
        return n_arrivals + n_departures - events_before


# -- graph compilation ------------------------------------------------


@dataclass
class _Graph:
    """The validated, index-mapped switch graph."""

    rates: np.ndarray
    routes: List[Route]
    policies: List[str]
    speeds: np.ndarray
    n_switches: int
    members: List[np.ndarray]          # switch -> global user indices
    local_of: List[Dict[int, int]]     # switch -> {global: local}
    sources: List[np.ndarray]          # switch -> local source users
    fwd_switch: List[np.ndarray]       # switch -> local -> next switch
    fwd_local: List[np.ndarray]        # switch -> local -> next local
    windows: List[float] = field(default_factory=list)


def _compile_graph(config: SwitchGraphConfig) -> _Graph:
    rates = np.asarray(config.rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise SimulationError("rates must be a non-empty vector")
    if np.any(rates <= 0.0):
        raise SimulationError(f"rates must be positive, got {rates}")
    routes = [route if isinstance(route, Route) else Route(route)
              for route in config.routes]
    if len(routes) != rates.size:
        raise SimulationError(
            f"{len(routes)} routes for {rates.size} rates")
    n_switches = 1 + max(max(route) for route in routes)
    policies = [str(p) for p in config.policies]
    if not policies:
        policies = ["fifo"] * n_switches
    if len(policies) != n_switches:
        raise SimulationError(
            f"{len(policies)} policies for {n_switches} switches")
    for name in policies:
        if name not in SHARDED_POLICIES:
            raise SimulationError(
                f"sharded simulation supports policies "
                f"{SHARDED_POLICIES}, got {name!r}")
    if config.speeds is None:
        speeds = np.ones(n_switches)
    else:
        speeds = np.asarray(config.speeds, dtype=float)
        if speeds.size != n_switches or np.any(speeds <= 0.0):
            raise SimulationError(
                f"need {n_switches} positive speeds, got {speeds}")
    if config.horizon <= config.warmup:
        raise SimulationError("horizon must exceed warmup")
    if config.window <= 0.0:
        raise SimulationError(
            f"window must be positive, got {config.window}")
    if config.link_delay < config.window:
        raise SimulationError(
            "conservative window synchronization requires "
            f"link_delay >= window, got {config.link_delay} < "
            f"{config.window}")

    members = [np.array([i for i, route in enumerate(routes)
                         if route.crosses(alpha)], dtype=np.int64)
               for alpha in range(n_switches)]
    for alpha in range(n_switches):
        if members[alpha].size == 0:
            raise SimulationError(f"switch {alpha} carries no routes")
    local_of = [{int(g): k for k, g in enumerate(members[alpha])}
                for alpha in range(n_switches)]
    sources = [np.array([local_of[route.switches[0]][i]
                         for i, route in enumerate(routes)
                         if route.switches[0] == alpha], dtype=np.int64)
               if any(route.switches[0] == alpha for route in routes)
               else _EMPTY_I
               for alpha in range(n_switches)]
    fwd_switch = []
    fwd_local = []
    for alpha in range(n_switches):
        fs = np.full(members[alpha].size, -1, dtype=np.int64)
        fl = np.full(members[alpha].size, -1, dtype=np.int64)
        for k, g in enumerate(members[alpha]):
            route = routes[int(g)].switches
            at = route.index(alpha)
            if at + 1 < len(route):
                nxt = route[at + 1]
                fs[k] = nxt
                fl[k] = local_of[nxt][int(g)]
        fwd_switch.append(fs)
        fwd_local.append(fl)

    boundaries = []
    k = 1
    while True:
        edge = k * config.window
        if edge >= config.horizon - 1e-9:
            boundaries.append(float(config.horizon))
            break
        boundaries.append(edge)
        k += 1
    return _Graph(rates=rates, routes=routes, policies=policies,
                  speeds=speeds, n_switches=n_switches, members=members,
                  local_of=local_of, sources=sources,
                  fwd_switch=fwd_switch, fwd_local=fwd_local,
                  windows=boundaries)


def _switch_config(config: SwitchGraphConfig, graph: _Graph,
                   alpha: int, seed: int) -> SimulationConfig:
    return SimulationConfig(
        rates=graph.rates[graph.members[alpha]].tolist(),
        policy=graph.policies[alpha],
        horizon=config.horizon,
        warmup=config.warmup,
        service_rate=float(graph.speeds[alpha]),
        seed=seed,
        n_batches=config.n_batches,
        batch_quota=config.batch_quota)


def _build_engine(config: SwitchGraphConfig, graph: _Graph, alpha: int,
                  seed: int) -> ShardSwitchEngine:
    return ShardSwitchEngine(_switch_config(config, graph, alpha, seed),
                             graph.sources[alpha])


# -- worker protocol --------------------------------------------------
#
# Workers hold their owned engines across windows; the master drives
# them over pipes with ("window", horizon, {switch: (times, users)})
# messages and gathers departure logs, snapshots, and results.


def _worker_main(conn, config: SwitchGraphConfig, owned: List[int],
                 seeds: List[int],
                 resumes: Optional[dict]) -> None:
    graph = _compile_graph(config)
    engines = {}
    for alpha in owned:
        if resumes is not None:
            state, inj_t, inj_u = resumes[alpha]
            engines[alpha] = ShardSwitchEngine.resume_shard(
                state, _switch_config(config, graph, alpha, seeds[alpha]),
                inj_t, inj_u)
        else:
            engines[alpha] = _build_engine(config, graph, alpha,
                                           seeds[alpha])
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "window":
            _, horizon = message
            deps = {}
            events = 0
            for alpha in owned:
                engine = engines[alpha]
                events += engine.run_to(horizon)
                deps[alpha] = engine.drain_dep_log()
            conn.send((deps, events))
        elif kind == "inject":
            for alpha, delivered in message[1].items():
                engines[alpha].inject(*delivered)
        elif kind == "snapshot":
            conn.send({alpha: (engines[alpha].snapshot(),
                               *engines[alpha].pending_injections())
                       for alpha in owned})
        elif kind == "result":
            conn.send({alpha: engines[alpha].result()
                       for alpha in owned})
        elif kind == "stop":
            conn.close()
            return


class ShardedSimulation:
    """Driver of one switch-graph run, serial or multi-process.

    ``jobs=1`` runs every engine in-process; ``jobs>1`` places switch
    ``alpha`` on worker ``alpha % jobs`` (each a
    ``multiprocessing.Process`` holding its engines across windows).
    Both placements produce byte-identical engines — see the module
    docstring.
    """

    def __init__(self, config: SwitchGraphConfig, jobs: int = 1,
                 _resume: Optional[ShardedState] = None) -> None:
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self.config = config
        self.graph = _compile_graph(config)
        self.jobs = min(jobs, self.graph.n_switches)
        self.seeds = spawn_seeds(config.seed, self.graph.n_switches)
        self.window_index = 0
        self.events = 0
        self._engines: Dict[int, ShardSwitchEngine] = {}
        self._workers: List[Tuple[object, object]] = []
        resumes = None
        if _resume is not None:
            if _resume.engine_version != ENGINE_VERSION:
                raise SimulationError(
                    f"sharded snapshot from engine "
                    f"{_resume.engine_version!r} cannot resume under "
                    f"{ENGINE_VERSION!r}")
            if _resume.n_switches != self.graph.n_switches:
                raise SimulationError(
                    f"snapshot has {_resume.n_switches} switches; "
                    f"config compiles to {self.graph.n_switches}")
            self.window_index = _resume.window_index
            self.events = _resume.events
            resumes = {alpha: (_resume.engine_states[alpha],
                               _resume.pending_times[alpha],
                               _resume.pending_users[alpha])
                       for alpha in range(self.graph.n_switches)}
        if self.jobs == 1:
            for alpha in range(self.graph.n_switches):
                if resumes is not None:
                    state, inj_t, inj_u = resumes[alpha]
                    self._engines[alpha] = ShardSwitchEngine.resume_shard(
                        state,
                        _switch_config(self.config, self.graph, alpha,
                                       self.seeds[alpha]),
                        inj_t, inj_u)
                else:
                    self._engines[alpha] = _build_engine(
                        self.config, self.graph, alpha,
                        self.seeds[alpha])
        else:
            context = multiprocessing.get_context()
            for worker in range(self.jobs):
                owned = [alpha
                         for alpha in range(self.graph.n_switches)
                         if alpha % self.jobs == worker]
                owned_resumes = (None if resumes is None else
                                 {alpha: resumes[alpha]
                                  for alpha in owned})
                parent, child = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child, config, owned, self.seeds,
                          owned_resumes),
                    daemon=True)
                process.start()
                child.close()
                self._workers.append((parent, process))

    # -- window loop --------------------------------------------------

    def _owned(self, worker: int) -> List[int]:
        return [alpha for alpha in range(self.graph.n_switches)
                if alpha % self.jobs == worker]

    def _route_handoffs(self, deps: Dict[int, Tuple[np.ndarray,
                                                    np.ndarray]]
                        ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Departure logs -> per-switch next-hop injections.

        Iterates source switches in ascending index with each log in
        departure order, so delivery order — and therefore the stable
        merge inside :meth:`ShardSwitchEngine.inject` — is a pure
        function of the simulated trajectory.
        """
        per_switch_t: Dict[int, List[np.ndarray]] = {}
        per_switch_u: Dict[int, List[np.ndarray]] = {}
        horizon = self.config.horizon
        for alpha in range(self.graph.n_switches):
            times, users = deps.get(alpha, (_EMPTY_F, _EMPTY_I))
            if times.size == 0:
                continue
            fwd_s = self.graph.fwd_switch[alpha][users]
            fwd_l = self.graph.fwd_local[alpha][users]
            arrive = times + self.config.link_delay
            keep = (fwd_s >= 0) & (arrive < horizon)
            if not np.any(keep):
                continue
            fwd_s = fwd_s[keep]
            fwd_l = fwd_l[keep]
            arrive = arrive[keep]
            for nxt in np.unique(fwd_s):
                mask = fwd_s == nxt
                per_switch_t.setdefault(int(nxt), []).append(arrive[mask])
                per_switch_u.setdefault(int(nxt), []).append(fwd_l[mask])
        return {alpha: (np.concatenate(per_switch_t[alpha]),
                        np.concatenate(per_switch_u[alpha]))
                for alpha in per_switch_t}

    def run_windows(self, count: Optional[int] = None) -> int:
        """Advance up to ``count`` windows (all remaining if None).

        Returns the number of windows executed.  Handoffs produced in
        a window are routed and delivered before the next one runs.
        """
        boundaries = self.graph.windows
        executed = 0
        while self.window_index < len(boundaries):
            if count is not None and executed >= count:
                break
            horizon = boundaries[self.window_index]
            deps: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            if self.jobs == 1:
                for alpha in range(self.graph.n_switches):
                    self.events += self._engines[alpha].run_to(horizon)
                    deps[alpha] = self._engines[alpha].drain_dep_log()
            else:
                for parent, _process in self._workers:
                    parent.send(("window", horizon))
                for parent, _process in self._workers:
                    worker_deps, worker_events = parent.recv()
                    deps.update(worker_deps)
                    self.events += worker_events
            # Deliver immediately so engine state (and any snapshot
            # taken at this boundary) carries the in-flight handoffs.
            injections = self._route_handoffs(deps)
            if self.jobs == 1:
                for alpha, delivered in injections.items():
                    self._engines[alpha].inject(*delivered)
            elif injections:
                for worker, (parent, _process) in \
                        enumerate(self._workers):
                    owned_inj = {alpha: injections[alpha]
                                 for alpha in self._owned(worker)
                                 if alpha in injections}
                    if owned_inj:
                        parent.send(("inject", owned_inj))
            self.window_index += 1
            executed += 1
        # Handoffs crossing the final boundary stay in flight; their
        # packets left every tracker before the horizon.
        return executed

    # -- snapshot / results -------------------------------------------

    def snapshot(self) -> ShardedState:
        """Capture all switch engines at the current window boundary."""
        if self.config.batch_quota is None:
            raise SimulationError(
                "sharded snapshots require an explicit batch_quota "
                "(the batch layout must not depend on the horizon)")
        states: List[Optional[EngineState]] = \
            [None] * self.graph.n_switches
        pend_t: List[np.ndarray] = [_EMPTY_F] * self.graph.n_switches
        pend_u: List[np.ndarray] = [_EMPTY_I] * self.graph.n_switches
        if self.jobs == 1:
            for alpha, engine in self._engines.items():
                states[alpha] = engine.snapshot()
                pend_t[alpha], pend_u[alpha] = \
                    engine.pending_injections()
        else:
            for parent, _process in self._workers:
                parent.send(("snapshot",))
            for parent, _process in self._workers:
                for alpha, (state, inj_t, inj_u) in \
                        parent.recv().items():
                    states[alpha] = state
                    pend_t[alpha] = inj_t
                    pend_u[alpha] = inj_u
        # greedwork: ignore[GW402] -- _workers is process plumbing,
        # rebuilt from the config by __init__ on resume.
        return ShardedState(window_index=self.window_index,
                            engine_states=states,
                            pending_times=pend_t,
                            pending_users=pend_u,
                            n_switches=self.graph.n_switches,
                            events=self.events)

    @classmethod
    # greedwork: ignore[GW401] -- restoration is delegated to
    # __init__ via the _resume parameter, which rebuilds the worker
    # processes alongside the restored counters.
    def resume(cls, state: ShardedState, config: SwitchGraphConfig,
               jobs: int = 1) -> "ShardedSimulation":
        """Rebuild a driver from a window-boundary snapshot."""
        return cls(config, jobs=jobs, _resume=state)

    def result(self) -> ShardedResult:
        """Assemble the network-wide outcome at the current horizon."""
        per_switch: List[Optional[SimulationResult]] = \
            [None] * self.graph.n_switches
        if self.jobs == 1:
            for alpha, engine in self._engines.items():
                per_switch[alpha] = engine.result()
        else:
            for parent, _process in self._workers:
                parent.send(("result",))
            for parent, _process in self._workers:
                for alpha, res in parent.recv().items():
                    per_switch[alpha] = res
        n_users = self.graph.rates.size
        mean_queues = np.zeros((self.graph.n_switches, n_users))
        events = 0
        arrivals = 0
        for alpha, res in enumerate(per_switch):
            mean_queues[alpha, self.graph.members[alpha]] = \
                res.mean_queues
            events += res.arrivals + res.departures
            arrivals += res.arrivals
        return ShardedResult(
            mean_queues=mean_queues,
            total_mean_queues=mean_queues.sum(axis=0),
            per_switch=list(per_switch),
            members=[m.copy() for m in self.graph.members],
            arrivals=arrivals,
            events=events,
            windows=self.window_index)

    def close(self) -> None:
        """Stop worker processes (no-op for in-process runs)."""
        for parent, process in self._workers:
            try:
                parent.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            parent.close()
            process.join(timeout=10.0)
        self._workers = []

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def simulate_sharded(config: SwitchGraphConfig,
                     jobs: int = 1) -> ShardedResult:
    """Run one sharded switch-graph simulation to its horizon."""
    with ShardedSimulation(config, jobs=jobs) as sim:
        sim.run_windows()
        return sim.result()


def tandem_config(rates: Sequence[float], policies: Sequence[str],
                  horizon: float, seed: int = 0) -> SwitchGraphConfig:
    """The two-hop line: every user crosses switch 0, then switch 1.

    The warmup is 5% of the horizon.  A fixed link delay shifts hop
    1's input in time but leaves its stationary queues unchanged, so
    window and delay are derived, not chosen:
    ``min(500, warmup / 2)`` keeps hop 1's empty start inside the
    warmup.
    """
    warmup = horizon * 0.05
    delay = min(500.0, warmup / 2.0)
    return SwitchGraphConfig(rates=rates, routes=[(0, 1)] * len(rates),
                             policies=list(policies), horizon=horizon,
                             warmup=warmup, seed=seed, window=delay,
                             link_delay=delay)
