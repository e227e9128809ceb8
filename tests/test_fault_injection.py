"""Fault injection: what the simulator does when its environment fails.

Each test covers one failure the ROADMAP names.  A missing C compiler
falls back to an identical scalar result but emits no event yet (the
observability item adds one).  The sim cache's record store turns the
others into a correct result plus a counted ``sim.store.*`` event: a
full disk loses the store (``failed_writes``), a flipped byte is a miss
(``corrupt``), and a segment cut mid-record by a killed writer is a
miss for that record alone (``torn``), with the next append starting
on a record boundary.
"""

import errno
import os
import struct

import numpy as np
import pytest

import repro.obs as obs
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim import kernels
from repro.sim import store
from repro.sim.runner import ENGINE_VERSION, SimulationConfig, simulate
from repro.sim.store import RecordStore

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


def _records_fail(monkeypatch, short=False):
    """Make every record append fail with ENOSPC, or write only half of
    the record when ``short``."""
    real_write = os.write

    def write(fd, data):
        if bytes(data[:len(store.MAGIC)]) != store.MAGIC:
            return real_write(fd, data)
        if short:
            return real_write(fd, data[:len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", write)


class TestFullDisk:
    def test_failed_store_is_counted_and_the_next_call_resimulates(
            self, cache_on, monkeypatch):
        sim_cache.set_enabled(False)
        reference = simulate(FIFO)
        sim_cache.set_enabled(True)
        _records_fail(monkeypatch)
        with obs.Scope() as counted:
            first = simulate(FIFO)
            np.testing.assert_array_equal(first.mean_queues,
                                          reference.mean_queues)
            assert counted.get("sim.cache.stores") == 0
            assert counted.get("sim.store.failed_writes") == 1
            simulate(FIFO)
        assert counted.get("sim.store.failed_writes") == 2
        assert counted.get("sim.cache.misses") == 2
        assert counted.get("sim.cache.hits") == 0
        assert counted.get("sim.cache.fresh_events") == 2 * first.events

    def test_short_append_is_cut_back_to_the_last_whole_record(
            self, cache_on, monkeypatch):
        simulate(FAIR_SHARE)
        (segment,) = os.listdir(cache_on)
        whole = os.path.getsize(cache_on / segment)
        with monkeypatch.context() as patch:
            _records_fail(patch, short=True)
            with obs.Scope() as counted:
                simulate(FIFO)
            assert counted.get("sim.store.failed_writes") == 1
            assert counted.get("sim.cache.stores") == 0
            assert os.path.getsize(cache_on / segment) == whole
        simulate(FIFO)
        with obs.Scope() as counted, RecordStore(str(cache_on)) as records:
            for config in (FAIR_SHARE, FIFO):
                key = sim_cache.config_key(config, ENGINE_VERSION)
                assert records.get(key) is not None
        assert counted.delta == {}


class TestCorruptEntry:
    def test_flipped_payload_bit_is_not_served(self, cache_on):
        stored = simulate(FIFO)
        key = sim_cache.config_key(FIFO, ENGINE_VERSION)
        with RecordStore(str(cache_on)) as records:
            path, offset, length = records.locate(key)
        with open(path, "rb") as handle:
            handle.seek(offset)
            record = bytearray(handle.read(length))
        value = struct.pack("<d", stored.mean_queues[0])
        if record.count(value) != 1:
            pytest.fail("mean_queues[0] is not stored exactly once")
        record[record.index(value) + 3] ^= 0x01      # mantissa bit 24
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(record)
        with obs.Scope() as counted:
            loaded = sim_cache.load(key)
        assert (loaded is None
                or loaded.mean_queues[0] == stored.mean_queues[0])
        assert counted.get("sim.store.corrupt") == 1
        assert counted.get("sim.cache.misses") == 1


class TestTornSegment:
    def test_cut_record_is_one_miss_and_the_next_append_is_whole(
            self, cache_on):
        # The writer is a pool worker that exits, as a killed one would.
        with WorkerPool(1) as pool:
            list(pool.map(simulate, [FIFO, FAIR_SHARE]))
        kept, torn = (sim_cache.config_key(config, ENGINE_VERSION)
                      for config in (FIFO, FAIR_SHARE))
        with RecordStore(str(cache_on)) as records:
            path, offset, length = records.locate(torn)
        assert os.path.getsize(path) == offset + length
        os.truncate(path, offset + length // 2)

        with obs.Scope() as read:
            assert sim_cache.load(kept) is not None
            assert sim_cache.load(torn) is None
        assert read.get("sim.store.torn") == 1
        with obs.Scope() as counted:
            resimulated = simulate(FAIR_SHARE)
        assert counted.get("sim.store.torn") == 0
        assert read.get("sim.cache.hits") == 1
        assert read.get("sim.cache.misses") + counted.get(
            "sim.cache.misses") == 2
        assert counted.get("sim.cache.stores") == 1
        with RecordStore(str(cache_on)) as records:
            assert records.locate(torn)[:2] == (path, offset)
            new_length = records.locate(torn)[2]
            assert records.get(kept) is not None
        assert os.path.getsize(path) == offset + new_length
        assert sim_cache.load(torn).mean_queues.tobytes() \
            == resimulated.mean_queues.tobytes()
