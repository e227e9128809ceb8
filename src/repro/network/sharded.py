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

Determinism
-----------
Switch engines are coupled only through packet handoffs, which makes a
*conservative time-window* synchronization exact: with
``link_delay >= window``, every departure inside window ``k`` arrives
at its next hop no earlier than the start of window ``k + 1``, so each
window can be simulated for every switch independently, with no
possibility of a causality violation and therefore no rollback.
:func:`simulate_sharded` runs every switch engine to the end of a
window, maps their departure logs to next-hop injections, and
delivers them before the next window runs.

Handoff ordering is fully deterministic: injections are delivered in
ascending ``(delivery window, source switch, departure order)`` and
merged into each receiving engine's pending array stably by
``(arrival time, user)``.  The regression tests pin exact ties
against the scalar loop and the kernel against the scalar loop on
generated graphs.

Randomness follows the single-switch contract one level up:
``spawn_seeds(seed, n_switches)`` gives each switch an independent
seed, and each switch engine spawns its usual per-source arrival
streams, service stream, and policy stream from it.

Scope: memoryless policies (FIFO and the Fair Share ladder) whose
chunked kernels expose the departure-log channel.  Service at every
hop is exponential, i.e. the packet-level analogue of the Kleinrock
independence approximation behind
:class:`~repro.network.model.NetworkAllocation`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.network.model import Route
from repro.numerics.rng import spawn_seeds
from repro.sim.chunked import ChunkedSimulationEngine
from repro.sim.runner import SimulationConfig, SimulationResult

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
        ``window`` — that inequality is what makes the window loop
        exact (see the module docstring).
    n_batches:
        Batches per switch tracker, exactly as in
        :class:`~repro.sim.runner.SimulationConfig`.
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
        Number of synchronization windows run.
    """

    mean_queues: np.ndarray
    total_mean_queues: np.ndarray
    per_switch: List[SimulationResult]
    members: List[np.ndarray]
    arrivals: int
    events: int
    windows: int


class ShardSwitchEngine(ChunkedSimulationEngine):
    """One switch's engine: local sources plus injected handoffs.

    The engine is the ordinary chunked engine over the switch's *local*
    user set (the users whose routes cross it), with two extensions:

    * users whose route does not *start* here never draw from their
      arrival stream — their heap entry is pinned at infinity and all
      of their packets arrive through :meth:`inject`;
    * every departure is captured in a log (by the C kernels, or by
      the inherited scalar loop when no kernel runs) for
      :func:`simulate_sharded` to turn into next-hop injections.

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
        # already happened) but are never drawn from again.
        self.arrivals_heap = [
            (time if user in source else math.inf, user)
            for time, user in sorted(self.arrivals_heap,
                                     key=lambda entry: entry[1])]
        heapq.heapify(self.arrivals_heap)
        self._dep_log = []
        self._inj_times = _EMPTY_F
        self._inj_users = _EMPTY_I
        self._inj_pos = 0

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
    windows: List[float]               # window boundaries, in order


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
        n_batches=config.n_batches)


def _route_handoffs(config: SwitchGraphConfig, graph: _Graph,
                    logs: List[Tuple[np.ndarray, np.ndarray]]
                    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Departure logs -> per-switch next-hop injections.

    Iterates source switches in ascending index with each log in
    departure order, so delivery order — and therefore the stable
    merge inside :meth:`ShardSwitchEngine.inject` — is a pure
    function of the simulated trajectory.
    """
    per_switch_t: Dict[int, List[np.ndarray]] = {}
    per_switch_u: Dict[int, List[np.ndarray]] = {}
    for alpha, (times, users) in enumerate(logs):
        if times.size == 0:
            continue
        fwd_s = graph.fwd_switch[alpha][users]
        fwd_l = graph.fwd_local[alpha][users]
        arrive = times + config.link_delay
        keep = (fwd_s >= 0) & (arrive < config.horizon)
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


def simulate_sharded(config: SwitchGraphConfig) -> ShardedResult:
    """Run one switch-graph simulation to its horizon.

    Every switch engine runs to the end of a window; the handoffs its
    departures produce are routed and delivered before the next window
    runs.  Handoffs crossing the final boundary stay in flight: their
    packets left every tracker before the horizon.
    """
    graph = _compile_graph(config)
    seeds = spawn_seeds(config.seed, graph.n_switches)
    engines = [ShardSwitchEngine(_switch_config(config, graph, alpha,
                                                seeds[alpha]),
                                 graph.sources[alpha])
               for alpha in range(graph.n_switches)]
    for horizon in graph.windows:
        logs = []
        for engine in engines:
            engine.run_to(horizon)
            logs.append(engine.drain_dep_log())
        for alpha, (times, users) in _route_handoffs(config, graph,
                                                     logs).items():
            engines[alpha].inject(times, users)
    per_switch = [engine.result() for engine in engines]
    mean_queues = np.zeros((graph.n_switches, graph.rates.size))
    events = 0
    arrivals = 0
    for alpha, res in enumerate(per_switch):
        mean_queues[alpha, graph.members[alpha]] = res.mean_queues
        events += res.arrivals + res.departures
        arrivals += res.arrivals
    return ShardedResult(
        mean_queues=mean_queues,
        total_mean_queues=mean_queues.sum(axis=0),
        per_switch=per_switch,
        members=graph.members,
        arrivals=arrivals,
        events=events,
        windows=len(graph.windows))


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
