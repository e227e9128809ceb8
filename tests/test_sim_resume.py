"""Resume-equivalence goldens: extending a run IS the longer run.

The resumable-engine contract: snapshot a run at horizon ``H``,
pickle it, restore it, extend to ``H' > H`` — every measured quantity
(mean queues, per-batch matrices, delays, event counts) must be
*bit-identical* to a fresh run to ``H'``, and the extension must
simulate only the delta.  Verified for the three policy families with
distinct state shapes: fifo (plain deque), the Table-1 ladder
(thinning classifier + per-class queues), and start-time fair
queueing (sized mode, virtual-time heap).
"""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.obs as obs
from repro.sim import cache as sim_cache
from repro.sim.runner import (
    ENGINE_VERSION,
    EngineState,
    SimulationConfig,
    SimulationEngine,
    simulate,
    simulate_to_precision,
)

RATES = (0.1, 0.2, 0.3)
POLICIES = ("fifo", "fair-share", "fair-queueing")


def config_for(policy, horizon=50000.0):
    # An explicit batch_quota makes the batch layout
    # horizon-independent — the precondition for resumability.
    return SimulationConfig(rates=RATES, policy=policy, horizon=horizon,
                            warmup=1000.0, seed=11, batch_quota=2450.0)


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.mean_queues, b.mean_queues)
    np.testing.assert_array_equal(a.mean_delays, b.mean_delays)
    np.testing.assert_array_equal(a.throughputs, b.throughputs)
    np.testing.assert_array_equal(a.batch.per_batch, b.batch.per_batch)
    np.testing.assert_array_equal(a.batch.per_batch_arrivals,
                                  b.batch.per_batch_arrivals)
    np.testing.assert_array_equal(a.batch.half_widths,
                                  b.batch.half_widths)
    assert a.arrivals == b.arrivals
    assert a.departures == b.departures
    assert a.variate_draws == b.variate_draws


class TestResumeEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pickled_snapshot_extension_is_bit_identical(self, policy):
        fresh_cfg = config_for(policy)
        fresh = simulate(fresh_cfg)

        partial_cfg = config_for(policy, horizon=20000.0)
        engine = SimulationEngine(partial_cfg)
        first_events = engine.run_to(20000.0)
        state = pickle.loads(pickle.dumps(engine.snapshot()))
        resumed = SimulationEngine.resume(state, fresh_cfg)
        delta_events = resumed.run_to(50000.0)
        result = resumed.result(fresh_cfg)

        assert_results_identical(result, fresh)
        # Delta-only: the extension simulated strictly fewer events
        # than the whole run, and the two legs add up exactly.
        assert 0 < delta_events < fresh.events
        assert first_events + delta_events == fresh.events

    @pytest.mark.parametrize("policy", POLICIES)
    def test_in_process_run_to_is_incremental(self, policy):
        fresh = simulate(config_for(policy))
        engine = SimulationEngine(config_for(policy))
        total = 0
        for horizon in (10000.0, 20000.0, 35000.0, 50000.0):
            total += engine.run_to(horizon)
        assert_results_identical(engine.result(config_for(policy)),
                                 fresh)
        assert total == fresh.events
        # Rewinding is a no-op, not an error.
        assert engine.run_to(30000.0) == 0

    def test_resume_rejects_other_engine_versions(self):
        engine = SimulationEngine(config_for("fifo", horizon=3000.0))
        engine.run_to(3000.0)
        state = engine.snapshot()
        stale = replace(state, engine_version="someday-3")
        with pytest.raises(Exception, match="cannot resume"):
            SimulationEngine.resume(stale, config_for("fifo"))

    def test_snapshot_has_the_documented_surface(self):
        engine = SimulationEngine(config_for("fifo", horizon=2000.0))
        engine.run_to(2000.0)
        state = engine.snapshot()
        assert isinstance(state, EngineState)
        assert state.engine_version == ENGINE_VERSION
        assert state.horizon == 2000.0
        assert math.isfinite(state.now)


@pytest.fixture
def cache_on(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv(sim_cache.ENV_DIR, str(directory))
    sim_cache.set_enabled(True)
    yield directory
    sim_cache.set_enabled(None)


class TestStateCache:
    def test_extension_through_simulate_is_delta_only(self, cache_on):
        short = config_for("fifo", horizon=20000.0)
        long = config_for("fifo", horizon=50000.0)

        first = simulate(short)
        with obs.Scope() as counted:
            extended = simulate(long)

        # The long run resumed the stored snapshot: only the delta
        # beyond the short horizon was freshly simulated.
        assert counted.get("sim.cache.state_hits") == 1
        delta = counted.get("sim.cache.fresh_events")
        assert 0 < delta < extended.events
        assert delta == extended.events - first.events

        # And the resumed result equals the from-scratch run.
        sim_cache.set_enabled(False)
        fresh = simulate(long)
        assert_results_identical(extended, fresh)

    def test_state_not_stored_without_batch_quota(self, cache_on,
                                                  counted):
        config = replace(config_for("fifo", horizon=5000.0),
                         batch_quota=None)
        simulate(config)
        assert counted.get("sim.cache.state_stores") == 0

    def test_precision_rerun_with_tighter_target_is_delta_only(
            self, cache_on):
        config = config_for("fifo", horizon=6000.0)
        with obs.Scope() as counted:
            loose = simulate_to_precision(config, target_halfwidth=0.2)
        # One snapshot for the whole ladder, taken at its final rung.
        assert len(loose.horizons) >= 2
        assert counted.get("sim.cache.state_stores") == 1
        assert sim_cache.load_state(sim_cache.state_key(
            config, ENGINE_VERSION)).horizon == loose.horizons[-1]
        with obs.Scope() as counted:
            tight = simulate_to_precision(config, target_halfwidth=0.05)
        delta = counted.get("sim.cache.fresh_events")
        # The tighter run replays the loose run's chunks from the
        # result cache and extends the final snapshot: fresh events
        # cover only the extension.
        assert tight.horizons[:len(loose.horizons)] == loose.horizons
        assert tight.result.events > loose.result.events
        assert delta == tight.result.events - loose.result.events

    def test_warm_precision_rerun_simulates_nothing(self, cache_on):
        config = config_for("fair-share", horizon=6000.0)
        cold = simulate_to_precision(config, target_halfwidth=0.1)
        with obs.Scope() as counted:
            warm = simulate_to_precision(config, target_halfwidth=0.1)
        assert counted.get("sim.cache.fresh_events") == 0
        assert warm.horizons == cold.horizons
        np.testing.assert_array_equal(warm.summary.means,
                                      cold.summary.means)
        np.testing.assert_array_equal(warm.summary.half_widths,
                                      cold.summary.half_widths)
