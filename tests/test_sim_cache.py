"""Tests for the persistent simulation-result cache."""

import os
import pickle

import numpy as np
import pytest

import repro.obs as obs
from repro.sim import cache as sim_cache
from repro.sim import runner
from repro.sim.fair_queueing import StartTimeFairQueue
from repro.sim.runner import SimulationConfig, simulate

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


def _entry_files(directory):
    return [os.path.join(root, name)
            for root, _dirs, names in os.walk(directory)
            for name in names if name.endswith(".pkl")]


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
        assert _entry_files(cache_on) == []
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
        assert _entry_files(cache_on) == []

    def test_corrupt_entry_is_a_miss(self, cache_on, counted):
        simulate(CONFIG)
        (path,) = _entry_files(cache_on)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
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
        (path,) = _entry_files(cache_on)
        assert str(cache_on) in path
        with open(path, "rb") as handle:
            stored = pickle.load(handle)
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
