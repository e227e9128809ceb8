"""Fault injection: what the simulator does today when its environment fails.

Each test pins current behaviour for one failure the ROADMAP names (a
missing C compiler, a full disk, a corrupt cache entry).  None of them
emits an observable event yet; the record-store and observability items
add those, and must then update these tests.
"""

import errno
import os
import struct
import types

import numpy as np
import pytest

import repro.obs as obs
from repro.sim import cache as sim_cache
from repro.sim import kernels
from repro.sim.runner import ENGINE_VERSION, SimulationConfig, simulate

FAIR_SHARE = SimulationConfig(rates=(0.2, 0.3), policy="fair-share",
                              horizon=2000.0, warmup=100.0, seed=7)
FIFO = SimulationConfig(rates=(0.1, 0.2), policy="fifo",
                        horizon=2000.0, warmup=100.0, seed=3)


@pytest.fixture
def cache_on(tmp_path, monkeypatch):
    """The persistent cache, enabled in an isolated directory."""
    monkeypatch.setenv(sim_cache.ENV_DIR, str(tmp_path / "cache"))
    sim_cache.set_enabled(True)
    yield tmp_path / "cache"
    sim_cache.set_enabled(None)


class TestMissingCompiler:
    @pytest.mark.skipif(not kernels.kernels_available(),
                        reason="needs the compiled kernels as reference")
    def test_fair_share_falls_back_to_the_identical_scalar_loop(
            self, tmp_path, monkeypatch):
        with_kernel = simulate(FAIR_SHARE)
        monkeypatch.setattr(kernels, "_compiler", lambda: None)
        monkeypatch.setenv(kernels.ENV_KERNEL_DIR, str(tmp_path / "empty"))
        monkeypatch.setattr(kernels, "_lib", None)
        monkeypatch.setattr(kernels, "_load_failed", False)
        without = simulate(FAIR_SHARE)
        assert kernels.load_kernels() is None
        np.testing.assert_array_equal(without.mean_queues,
                                      with_kernel.mean_queues)
        np.testing.assert_array_equal(without.batch.per_batch,
                                      with_kernel.batch.per_batch)
        assert without.variate_draws == with_kernel.variate_draws


class TestFullDisk:
    def test_failed_store_is_silent_and_the_next_call_resimulates(
            self, cache_on, monkeypatch):
        sim_cache.set_enabled(False)
        reference = simulate(FIFO)
        sim_cache.set_enabled(True)

        def no_space(*_args, **_kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sim_cache, "tempfile",
                            types.SimpleNamespace(mkstemp=no_space))
        with obs.Scope() as counted:
            first = simulate(FIFO)
            np.testing.assert_array_equal(first.mean_queues,
                                          reference.mean_queues)
            assert counted.get("sim.cache.stores") == 0
            simulate(FIFO)
        assert counted.get("sim.cache.misses") == 2
        assert counted.get("sim.cache.hits") == 0
        assert counted.get("sim.cache.fresh_events") == 2 * first.events


class TestCorruptEntry:
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="record-store item (ROADMAP): entries carry no checksum, "
               "so a flipped payload bit still unpickles and loads as a "
               "hit with a wrong mean queue")
    def test_flipped_payload_bit_is_not_served(self, cache_on):
        stored = simulate(FIFO)
        path = sim_cache._entry_path(
            sim_cache.config_key(FIFO, ENGINE_VERSION))
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        value = struct.pack("<d", stored.mean_queues[0])
        if blob.count(value) != 1:
            pytest.fail("mean_queues[0] is not stored exactly once")
        blob[blob.index(value) + 3] ^= 0x01      # mantissa bit 24
        with open(path, "wb") as handle:
            handle.write(blob)
        loaded = sim_cache.load(sim_cache.config_key(FIFO, ENGINE_VERSION))
        assert (loaded is None
                or loaded.mean_queues[0] == stored.mean_queues[0])
