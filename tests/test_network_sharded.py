"""Sharded switch-graph goldens: the kernel against the scalar loop.

The sharded simulator's contract is that the loop each switch engine
runs is unobservable: with the C kernels or with the scalar loop, a
run produces byte-identical per-switch measurements, on a hand-picked
graph and on generated ones, and exact ties between source arrivals
and handoffs resolve the same way in both.  The tests also pin the
Jackson-network sanity check (FIFO tandem hops behave as independent
M/M/1 queues) and the conservative-synchronization validation
(``link_delay >= window``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.chunked as chunked
import repro.sim.kernels as kernels
from repro.exceptions import SimulationError
from repro.network.sharded import (
    SHARDED_POLICIES,
    ShardedResult,
    ShardSwitchEngine,
    SwitchGraphConfig,
    simulate_sharded,
)
from repro.sim.runner import SimulationConfig, SimulationEngine


def graph_config(**overrides):
    """A 3-switch, 3-user graph where every switch both sources and
    relays traffic (the hardest case for handoff ordering)."""
    base = dict(rates=[0.3, 0.25, 0.2],
                routes=[(0, 1), (0, 2), (1, 2)],
                policies=["fifo", "fair-share", "fifo"],
                horizon=6000.0, warmup=400.0, seed=5,
                window=400.0, link_delay=400.0)
    base.update(overrides)
    return SwitchGraphConfig(**base)


def fingerprint(result):
    return (result.mean_queues.tobytes(),
            result.total_mean_queues.tobytes(),
            tuple(res.mean_queues.tobytes()
                  for res in result.per_switch),
            tuple(res.batch.per_batch.tobytes()
                  for res in result.per_switch),
            tuple(res.mean_delays.tobytes()
                  for res in result.per_switch),
            result.arrivals, result.events)


class TestPlacementIndependence:
    """Whether a switch engine runs on a kernel or on the scalar loop
    is unobservable."""

    def test_scalar_fallback_matches_chunked(self, monkeypatch):
        chunked = simulate_sharded(graph_config())
        monkeypatch.setattr(kernels, "load_kernels", lambda: None)
        scalar = simulate_sharded(graph_config())
        assert fingerprint(chunked) == fingerprint(scalar)


@st.composite
def switch_graphs(draw):
    """A random switch graph under the sharded contracts' preconditions.

    2-4 switches and 2-5 users; each route crosses 1-3 distinct
    switches and together they cover every switch; every switch runs
    below load 0.9; ``window == link_delay``.
    """
    n_switches = draw(st.integers(2, 4))
    n_users = draw(st.integers(2, 5))
    cover = draw(st.permutations(range(n_switches)))
    routes = []
    for user in range(n_users):
        must = list(cover[user::n_users])
        extra = draw(st.lists(st.integers(0, n_switches - 1),
                              min_size=0 if must else 1,
                              max_size=3 - len(must), unique=True))
        switches = list(dict.fromkeys(must + extra))
        routes.append(tuple(draw(st.permutations(switches))))
    weights = np.array(draw(st.lists(st.floats(0.2, 1.0),
                                     min_size=n_users,
                                     max_size=n_users)))
    loads = [weights[[alpha in route for route in routes]].sum()
             for alpha in range(n_switches)]
    rates = weights * draw(st.floats(0.3, 0.85)) / max(loads)
    window = draw(st.sampled_from([150.0, 250.0]))
    n_full = draw(st.integers(3, 6))
    horizon = window * n_full + draw(st.sampled_from([0.0, 0.5])) * window
    return SwitchGraphConfig(
        rates=rates.tolist(), routes=routes,
        policies=[draw(st.sampled_from(SHARDED_POLICIES))
                  for _ in range(n_switches)],
        horizon=horizon, warmup=window / 2.0,
        seed=draw(st.integers(0, 2**16)), window=window,
        link_delay=window)


class TestGeneratedGraphs:
    """The kernel and the scalar loop give the same measurements on
    generated switch graphs."""

    @settings(max_examples=20, deadline=None)
    @given(switch_graphs())
    def test_kernel_and_scalar_loop_agree(self, config):
        kernel = fingerprint(simulate_sharded(config))
        with mock.patch.object(kernels, "load_kernels", lambda: None):
            assert fingerprint(simulate_sharded(config)) == kernel


def tie_engine(policy):
    """A switch whose users 0 and 1 source deterministic arrivals at
    exact binary times (gaps 4 and 2: they tie with each other), while
    user 2 arrives only through handoffs."""
    config = SimulationConfig(
        rates=(0.25, 0.5, 0.125), policy=policy, horizon=400.0,
        warmup=20.0, seed=3, batch_quota=30.0,
        arrival_process="deterministic")
    engine = ShardSwitchEngine(config, source_users=[0, 1])
    # Handoffs at exactly source arrival times (4, 8 and 12 are
    # arrivals of users 0 and 1), and same-time handoffs for different
    # users delivered out of user order, over two deliveries.
    engine.inject([4.0, 8.0, 8.0, 12.0, 12.0, 12.0, 40.0],
                  [0, 2, 1, 2, 0, 1, 1])
    engine.inject([8.0, 12.0, 40.0, 40.0], [0, 1, 2, 0])
    return engine


def pending_handoffs(engine):
    """The handoffs delivered to ``engine`` but not yet simulated."""
    return (engine._inj_times[engine._inj_pos:],
            engine._inj_users[engine._inj_pos:])


def test_pending_handoffs_sort_by_time_then_user():
    times, users = pending_handoffs(tie_engine("fifo"))
    np.testing.assert_array_equal(
        times, [4.0, 8.0, 8.0, 8.0, 12.0, 12.0, 12.0, 12.0, 40.0, 40.0,
                40.0])
    np.testing.assert_array_equal(users, [0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 2])


def tie_fingerprint(engine):
    result = engine.result()
    times, users = engine.drain_dep_log()
    return (result.mean_queues.tobytes(), result.mean_delays.tobytes(),
            result.batch.per_batch.tobytes(),
            result.batch.per_batch_arrivals.tobytes(),
            result.arrivals, result.departures, result.variate_draws,
            engine.policy_rng.bit_generator.state["state"]["state"],
            engine.service_stream._rng.bit_generator.state["state"],
            times.tobytes(), users.tobytes(), engine.now,
            tuple(sorted(engine.arrivals_heap)),
            pending_handoffs(engine)[0].tobytes())


@pytest.mark.skipif(not kernels.kernels_available(),
                    reason="no C toolchain: both runs would be scalar")
class TestHandoffTies:
    @pytest.mark.parametrize("policy", SHARDED_POLICIES)
    def test_exact_ties_match_the_scalar_oracle(self, policy,
                                                monkeypatch):
        # A tiny departure log makes the kernel return to have it
        # flushed many times along the way.
        monkeypatch.setattr(chunked, "_DEP_LOG_CAP", 3)
        scalar, fast = tie_engine(policy), tie_engine(policy)
        for horizon in (10.0, 400.0):
            SimulationEngine.run_to(scalar, horizon)
            fast.run_to(horizon)
            if horizon < 400.0:
                # More ties delivered between the two runs, still at
                # source arrival times.
                for engine in (scalar, fast):
                    engine.inject([12.0, 12.0, 16.0], [2, 0, 1])
        assert fast._kernel_kind() is not None
        assert scalar.n_arrivals == fast.n_arrivals > 100
        assert tie_fingerprint(scalar) == tie_fingerprint(fast)


class TestPhysics:
    def test_fifo_tandem_is_jackson(self):
        # Burke's theorem: both hops of a FIFO tandem at rho = 0.5
        # are M/M/1 with mean queue rho/(1-rho) = 1.
        config = SwitchGraphConfig(
            rates=[0.5], routes=[(0, 1)], policies=["fifo", "fifo"],
            horizon=40000.0, warmup=2000.0, seed=1,
            window=500.0, link_delay=500.0)
        result = simulate_sharded(config)
        np.testing.assert_allclose(result.mean_queues.ravel(),
                                   [1.0, 1.0], rtol=0.1)

    def test_different_speeds(self):
        # Hop 1 at double speed: load 0.15 there, so queue ~0.176.
        config = SwitchGraphConfig(
            rates=[0.3], routes=[(0, 1)], policies=["fifo", "fifo"],
            speeds=(1.0, 2.0), horizon=20000.0, warmup=1000.0, seed=5,
            window=500.0, link_delay=500.0)
        result = simulate_sharded(config)
        assert result.mean_queues[0, 0] == pytest.approx(0.3 / 0.7,
                                                         rel=0.15)
        assert result.mean_queues[1, 0] == pytest.approx(0.15 / 0.85,
                                                         rel=0.2)

    def test_totals_sum_along_routes(self):
        result = simulate_sharded(graph_config())
        assert isinstance(result, ShardedResult)
        np.testing.assert_array_equal(result.total_mean_queues,
                                      result.mean_queues.sum(axis=0))

    def test_relayed_traffic_reaches_downstream_switches(self):
        result = simulate_sharded(graph_config())
        # User 0 sources at switch 0 and relays through switch 1.
        assert result.mean_queues[1, 0] > 0.0
        # A structural zero, not a computed float: user 2's route
        # never crosses switch 0, so its tracker column is never
        # touched.
        assert result.mean_queues[0, 2] == 0.0

    def test_flow_conservation_per_hop(self):
        result = simulate_sharded(graph_config(horizon=20000.0))
        for alpha, res in enumerate(result.per_switch):
            members = result.members[alpha]
            rates = np.asarray(graph_config().rates)[members]
            np.testing.assert_allclose(res.throughputs, rates,
                                       rtol=0.15)


class TestValidation:
    def test_link_delay_below_window_rejected(self):
        with pytest.raises(SimulationError):
            simulate_sharded(graph_config(link_delay=100.0))

    def test_unsupported_policy_rejected(self):
        assert "fq" not in SHARDED_POLICIES
        with pytest.raises(SimulationError):
            simulate_sharded(graph_config(
                policies=["fifo", "fq", "fifo"]))

    def test_route_and_rate_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            simulate_sharded(graph_config(rates=[0.3, 0.25]))

    def test_switch_without_routes_rejected(self):
        with pytest.raises(SimulationError):
            simulate_sharded(graph_config(
                routes=[(0, 1), (0, 1), (0, 3)]))
