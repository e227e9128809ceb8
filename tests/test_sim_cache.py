"""Tests for the persistent simulation-result cache."""

import contextlib
import os
import pickle
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.sim import cache as sim_cache
from repro.sim import runner
from repro.sim.fair_queueing import StartTimeFairQueue
from repro.sim.runner import (SimulationConfig, replicate, simulate,
                              simulate_to_precision)
from repro.sim.store import RecordStore
from tests.conftest import corrupt_record, record_keys

CONFIG = SimulationConfig(rates=(0.1, 0.2), policy="fifo",
                          horizon=2000.0, warmup=100.0, seed=3)


@pytest.fixture
def cache_on(tmp_path, monkeypatch):
    """Enable the cache in an isolated directory; return that path."""
    directory = tmp_path / "cache"
    monkeypatch.setenv(sim_cache.ENV_DIR, str(directory))
    sim_cache.set_enabled(True)
    yield directory
    sim_cache.set_enabled(None)


def cache_counts(scope):
    """The seven ``sim.cache`` counters a scope has seen, by short name."""
    return obs.group("sim.cache", sim_cache.COUNTERS, scope.delta)




class TestKeying:
    def test_same_config_same_key(self):
        first = sim_cache.config_key(CONFIG, "v1")
        second = sim_cache.config_key(CONFIG, "v1")
        assert first == second and first is not None

    def test_any_field_changes_key(self):
        from dataclasses import replace

        base = sim_cache.config_key(CONFIG, "v1")
        assert sim_cache.config_key(replace(CONFIG, seed=4), "v1") != base
        assert sim_cache.config_key(
            replace(CONFIG, horizon=2001.0), "v1") != base
        assert sim_cache.config_key(
            replace(CONFIG, policy="fair-share"), "v1") != base

    def test_engine_version_changes_key(self):
        assert (sim_cache.config_key(CONFIG, "v1")
                != sim_cache.config_key(CONFIG, "v2"))

    def test_policy_instance_uncacheable(self):
        from dataclasses import replace

        config = replace(CONFIG, policy=StartTimeFairQueue(2))
        assert sim_cache.config_key(config, "v1") is None


class TestSimulateThroughCache:
    def test_hit_returns_equal_result(self, cache_on, counted):
        cold = simulate(CONFIG)
        warm = simulate(CONFIG)
        stats = cache_counts(counted)
        assert stats["misses"] == 1 and stats["stores"] == 1
        assert stats["hits"] == 1
        assert np.array_equal(cold.mean_queues, warm.mean_queues)
        assert cold.departures == warm.departures

    def test_fresh_events_counted_only_on_miss(self, cache_on, counted):
        cold = simulate(CONFIG)
        after_cold = counted.get("sim.cache.fresh_events")
        assert after_cold == cold.arrivals + cold.departures
        simulate(CONFIG)
        assert counted.get("sim.cache.fresh_events") == after_cold

    def test_engine_version_bump_invalidates(self, cache_on, counted,
                                             monkeypatch):
        simulate(CONFIG)
        monkeypatch.setattr(runner, "ENGINE_VERSION",
                            runner.ENGINE_VERSION + "-bumped")
        simulate(CONFIG)
        stats = cache_counts(counted)
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_opt_out_writes_nothing(self, cache_on, counted):
        sim_cache.set_enabled(False)
        simulate(CONFIG)
        assert record_keys(cache_on) == []
        stats = cache_counts(counted)
        assert stats["misses"] == 0 and stats["stores"] == 0
        assert stats["fresh_events"] > 0

    def test_policy_instance_bypasses_cache(self, cache_on, counted):
        from dataclasses import replace

        config = replace(CONFIG, policy=StartTimeFairQueue(2))
        simulate(config)
        stats = cache_counts(counted)
        assert stats["uncacheable"] == 1
        assert stats["misses"] == 0 and stats["stores"] == 0
        assert record_keys(cache_on) == []

    def test_corrupt_entry_is_a_miss(self, cache_on, counted):
        simulate(CONFIG)
        (key,) = record_keys(cache_on)
        corrupt_record(cache_on, key)
        result = simulate(CONFIG)
        assert result.departures > 0
        stats = cache_counts(counted)
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_snapshots_count_as_state_stores(self, cache_on, counted):
        from dataclasses import replace

        simulate(replace(CONFIG, batch_quota=50.0))
        stats = cache_counts(counted)
        assert stats["stores"] == 1 and stats["state_stores"] == 1

    def test_entries_land_in_override_directory(self, cache_on):
        simulate(CONFIG)
        (key,) = record_keys(cache_on)
        with RecordStore(str(cache_on)) as records:
            path, _offset, _length = records.locate(key)
            stored = pickle.loads(records.get(key))
        assert str(cache_on) in path
        assert stored.departures > 0


class TestStatsPlumbing:
    def test_snapshot_and_merge_round_trip(self, counted):
        with obs.Scope() as worker:
            obs.add("sim.cache.fresh_events", 10)
            obs.add("sim.cache.uncacheable")
        assert worker.delta == {"sim.cache.fresh_events": 10,
                                "sim.cache.uncacheable": 1}
        obs.merge(worker.delta)
        stats = cache_counts(counted)
        assert stats["fresh_events"] == 20
        assert stats["uncacheable"] == 2

    def test_line_is_greppable(self):
        line = obs.line("sim-cache",
                        obs.group("sim.cache", sim_cache.COUNTERS, {}))
        assert line == ("[sim-cache] hits=0 misses=0 stores=0 "
                        "uncacheable=0 state_hits=0 state_stores=0 "
                        "fresh_events=0")

    def test_env_toggle(self, monkeypatch):
        sim_cache.set_enabled(None)
        for value in ("0", "off", "FALSE", "no"):
            monkeypatch.setenv(sim_cache.ENV_TOGGLE, value)
            assert not sim_cache.enabled()
        monkeypatch.setenv(sim_cache.ENV_TOGGLE, "1")
        assert sim_cache.enabled()
        monkeypatch.delenv(sim_cache.ENV_TOGGLE)
        assert sim_cache.enabled()
        sim_cache.set_enabled(False)
        assert not sim_cache.enabled()
        sim_cache.set_enabled(None)


#: Policies with a compiled kernel (fifo, the fair-share ladder, round
#: robin, fair queueing) and without one (lifo, processor sharing).
CONTRACT_POLICIES = ("fifo", "fair-share", "round-robin", "fq", "lifo",
                     "ps")


@st.composite
def cache_cases(draw):
    """A random single-switch config: N 1-6 users, load below 0.9."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    load = draw(st.floats(0.05, 0.89))
    horizon = draw(st.floats(300.0, 1200.0))
    return SimulationConfig(
        rates=tuple(load * w / sum(weights) for w in weights),
        policy=draw(st.sampled_from(CONTRACT_POLICIES)), horizon=horizon,
        warmup=0.1 * horizon, seed=draw(st.integers(0, 2**32 - 1)),
        batch_quota=0.09 * horizon)


@contextlib.contextmanager
def empty_cache():
    """The cache on, in a fresh directory, for one generated example."""
    saved = os.environ.get(sim_cache.ENV_DIR)
    with tempfile.TemporaryDirectory() as directory:
        os.environ[sim_cache.ENV_DIR] = directory
        sim_cache.set_enabled(True)
        try:
            yield directory
        finally:
            sim_cache.set_enabled(None)
            if saved is None:
                del os.environ[sim_cache.ENV_DIR]
            else:
                os.environ[sim_cache.ENV_DIR] = saved


def result_bytes(result):
    """Every measured field of a result, as bytes."""
    return pickle.dumps((
        result.mean_queues, result.mean_delays, result.throughputs,
        result.losses, result.batch.per_batch,
        result.batch.per_batch_arrivals, result.batch.half_widths,
        result.arrivals, result.departures, result.variate_draws))


class TestGeneratedCacheContracts:
    """Warm equals cold and resumed equals uninterrupted, outside the
    sweep, on generated configs."""

    @given(config=cache_cases())
    @settings(max_examples=25, deadline=None)
    def test_warm_simulate_equals_cold(self, config):
        with empty_cache():
            cold = simulate(config)
            with obs.Scope() as warm_scope:
                warm = simulate(config)
        assert result_bytes(warm) == result_bytes(cold)
        assert warm_scope.get("sim.cache.fresh_events") == 0
        assert warm_scope.get("sim.cache.hits") == 1

    @given(config=cache_cases(), n=st.integers(2, 3))
    @settings(max_examples=15, deadline=None)
    def test_warm_replicate_equals_cold(self, config, n):
        with empty_cache():
            cold = replicate(config, n_replications=n)
            with obs.Scope() as warm_scope:
                warm = replicate(config, n_replications=n)
        assert warm.mean_queues.tobytes() == cold.mean_queues.tobytes()
        assert warm.half_widths.tobytes() == cold.half_widths.tobytes()
        assert [result_bytes(r) for r in warm.runs] == \
            [result_bytes(r) for r in cold.runs]
        assert warm_scope.get("sim.cache.fresh_events") == 0
        assert warm_scope.get("sim.cache.hits") == n

    @given(config=cache_cases())
    @settings(max_examples=20, deadline=None)
    def test_tighter_target_resumes_and_equals_uninterrupted(self, config):
        cap = config.warmup + 4.0 * (config.horizon - config.warmup)
        with empty_cache():
            loose = simulate_to_precision(config, target_halfwidth=1e9,
                                          max_horizon=cap)
            with obs.Scope() as rerun:
                tight = simulate_to_precision(
                    config, target_halfwidth=1e-9, max_horizon=cap)
        assume(tight.horizons[-1] > loose.horizons[-1])
        assert tight.horizons[:len(loose.horizons)] == loose.horizons
        sim_cache.set_enabled(False)
        straight = simulate(replace(config, horizon=tight.horizons[-1]))
        assert result_bytes(tight.result) == result_bytes(straight)
        # Only the delta past the loose run's last rung was simulated.
        assert rerun.get("sim.cache.state_hits") == 1
        assert rerun.get("sim.cache.fresh_events") == \
            straight.events - loose.result.events
