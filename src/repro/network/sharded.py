"""Sharded multi-switch simulation over the chunked event engine.

The repository's one packet-level network simulator: every user sends
a stream along her :class:`~repro.network.model.Route` of an arbitrary
switch graph, each switch runs its own
:class:`~repro.sim.chunked.ChunkedSimulationEngine` event stream, and
packets finishing service at one switch are handed to the next switch
on the route after a fixed link delay.  :func:`tandem_config` builds
the two-hop line that probes the Poisson-output approximation.  Each
switch engine picks its own loop, like every chunked engine: the C
kernel when one is built, the inherited scalar loop otherwise, with
the same handoff order and byte-identical results.

Determinism and sharding
------------------------
Switch engines are coupled only through packet handoffs, which makes a
*conservative time-window* synchronization exact: with
``link_delay >= window``, every departure inside window ``k`` arrives
at its next hop no earlier than the start of window ``k + 1``, so each
window can be simulated for all switches independently — in one
process or many — with no possibility of a causality violation and
therefore no rollback.  Between windows the master gathers each
switch's departure log, maps departures to next-hop injections, and
delivers them before the next window runs.  The switch engines one
process owns form a shard: ``jobs=1`` runs one shard in-process,
``jobs>1`` one per worker process, and the master makes the same
four calls on either.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.network.model import Route
from repro.numerics.rng import spawn_seeds
from repro.sim.chunked import ChunkedSimulationEngine
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
    * every departure is captured in a log (by the C kernels, or by
      the inherited scalar loop when no kernel runs) for the master to
      turn into next-hop injections.

    Injected arrivals are one more sorted input to the arrival merge
    of the kernels and of the scalar loop alike.  Both take arrivals
    in ``(time, local user)`` order; among handoffs with the same key,
    in delivery order; and a source arrival before a handoff with the
    same key.
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


class _Shard:
    """The switch engines one process owns, behind four calls.

    ``window``, ``inject``, ``snapshot`` and ``result`` each answer
    with a dict keyed by switch.  :class:`ShardedSimulation` calls one
    shard in-process for ``jobs=1`` and one per worker process, over a
    pipe, for ``jobs>1`` (see :func:`_serve`).
    """

    def __init__(self, config: SwitchGraphConfig, graph: _Graph,
                 owned: List[int], seeds: List[int],
                 resumes: Optional[dict]) -> None:
        self.engines: Dict[int, ShardSwitchEngine] = {}
        for alpha in owned:
            switch = _switch_config(config, graph, alpha, seeds[alpha])
            if resumes is None:
                self.engines[alpha] = ShardSwitchEngine(
                    switch, graph.sources[alpha])
            else:
                state, inj_t, inj_u = resumes[alpha]
                self.engines[alpha] = ShardSwitchEngine.resume_shard(
                    state, switch, inj_t, inj_u)

    def window(self, horizon: float) -> dict:
        """Run every engine to ``horizon``: events and departure log."""
        return {alpha: (engine.run_to(horizon), *engine.drain_dep_log())
                for alpha, engine in self.engines.items()}

    def inject(self, delivered: dict) -> dict:
        for alpha, (times, users) in delivered.items():
            self.engines[alpha].inject(times, users)
        return {}

    def snapshot(self) -> dict:
        return {alpha: (engine.snapshot(), *engine.pending_injections())
                for alpha, engine in self.engines.items()}

    def result(self) -> dict:
        return {alpha: engine.result()
                for alpha, engine in self.engines.items()}


def _serve(conn, *shard_args) -> None:
    """A worker process: one shard answering ``(method, args)`` calls.

    Every call gets a reply; ``stop`` gets an empty one and ends the
    worker, whose engines live only as long as it does.
    """
    shard = _Shard(*shard_args)
    method = None
    while method != "stop":
        method, args = conn.recv()
        conn.send({} if method == "stop"
                  else getattr(shard, method)(*args))
    conn.close()


class ShardedSimulation:
    """Driver of one switch-graph run, serial or multi-process.

    Switch ``alpha`` belongs to shard ``alpha % jobs`` (a
    :class:`_Shard`).  ``jobs=1`` keeps its one shard in-process;
    ``jobs>1`` runs each shard in a ``multiprocessing.Process`` that
    holds its engines across windows.  Both placements produce
    byte-identical engines — see the module docstring.
    """

    def __init__(self, config: SwitchGraphConfig, jobs: int = 1,
                 _resume: Optional[ShardedState] = None) -> None:
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self.config = config
        self.graph = _compile_graph(config)
        n_switches = self.graph.n_switches
        self.jobs = min(jobs, n_switches)
        self.seeds = spawn_seeds(config.seed, n_switches)
        self.window_index = 0
        self.events = 0
        resumes = None
        if _resume is not None:
            if _resume.engine_version != ENGINE_VERSION:
                raise SimulationError(
                    f"sharded snapshot from engine "
                    f"{_resume.engine_version!r} cannot resume under "
                    f"{ENGINE_VERSION!r}")
            if _resume.n_switches != n_switches:
                raise SimulationError(
                    f"snapshot has {_resume.n_switches} switches; "
                    f"config compiles to {n_switches}")
            self.window_index = _resume.window_index
            self.events = _resume.events
            resumes = {alpha: (_resume.engine_states[alpha],
                               _resume.pending_times[alpha],
                               _resume.pending_users[alpha])
                       for alpha in range(n_switches)}
        self._owned = [list(range(shard, n_switches, self.jobs))
                       for shard in range(self.jobs)]
        shard_args = [
            (config, self.graph, owned, self.seeds,
             None if resumes is None
             else {alpha: resumes[alpha] for alpha in owned})
            for owned in self._owned]
        self._local: Optional[_Shard] = None
        self._workers: List[Tuple[Any, Any]] = []
        if self.jobs == 1:
            self._local = _Shard(*shard_args[0])
            return
        context = multiprocessing.get_context()
        for args in shard_args:
            parent, child = context.Pipe()
            process = context.Process(target=_serve, args=(child, *args),
                                      daemon=True)
            process.start()
            child.close()
            self._workers.append((parent, process))

    def _call(self, method: str,
              args: Optional[List[tuple]] = None) -> Dict[int, Any]:
        """Call ``method`` on every shard; the replies merged by switch.

        ``args`` holds one argument tuple per shard (none by default).
        This is the one place that talks to worker pipes.  A worker
        that has died raises :class:`SimulationError` naming it, its
        switches and its exit code, after the other workers are
        stopped.
        """
        if args is None:
            args = [()] * self.jobs
        if self._local is not None:
            return getattr(self._local, method)(*args[0])
        if self._closed():
            raise SimulationError("the sharded simulation is closed")
        merged: Dict[int, Any] = {}
        worker = 0
        try:
            for worker, (conn, _process) in enumerate(self._workers):
                conn.send((method, args[worker]))
            for worker, (conn, _process) in enumerate(self._workers):
                merged.update(conn.recv())
        except (EOFError, OSError):
            process = self._workers[worker][1]
            process.join(timeout=5.0)
            message = (f"sharded worker {worker} (switches "
                       f"{self._owned[worker]}) died with exit code "
                       f"{process.exitcode} before answering "
                       f"{method!r}")
            self._stop_workers(kill=True)
            raise SimulationError(message) from None
        return merged

    def _closed(self) -> bool:
        return any(conn.closed for conn, _process in self._workers)

    def _stop_workers(self, kill: bool) -> None:
        for conn, process in self._workers:
            if kill:
                process.kill()
            conn.close()
            process.join(timeout=10.0)

    # -- window loop --------------------------------------------------

    def _route_handoffs(self, ran: Dict[int, tuple]
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
            _events, times, users = ran[alpha]
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
            ran = self._call("window", [(horizon,)] * self.jobs)
            self.events += sum(events for events, _, _ in ran.values())
            # Deliver immediately so engine state (and any snapshot
            # taken at this boundary) carries the in-flight handoffs.
            # Each shard is sent only its own switches' handoffs.
            injections = self._route_handoffs(ran)
            if injections:
                self._call("inject", [
                    ({alpha: injections[alpha] for alpha in owned
                      if alpha in injections},)
                    for owned in self._owned])
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
        taken = self._call("snapshot")
        switches = range(self.graph.n_switches)
        return ShardedState(window_index=self.window_index,
                            engine_states=[taken[a][0] for a in switches],
                            pending_times=[taken[a][1] for a in switches],
                            pending_users=[taken[a][2] for a in switches],
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
        results = self._call("result")
        per_switch = [results[alpha]
                      for alpha in range(self.graph.n_switches)]
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
            per_switch=per_switch,
            members=[m.copy() for m in self.graph.members],
            arrivals=arrivals,
            events=events,
            windows=self.window_index)

    def close(self) -> None:
        """Stop the worker processes (no-op for in-process runs)."""
        if not self._workers or self._closed():
            return
        try:
            self._call("stop")
        except SimulationError:
            return          # a worker had died; _call stopped the rest
        self._stop_workers(kill=False)

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
