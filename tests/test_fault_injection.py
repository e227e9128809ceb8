"""Fault injection: what the simulator does when its environment fails.

Each test covers one failure the ROADMAP names.  A missing C compiler
falls back to an identical scalar result and counts the events that
loop simulated as ``sim.fallback.no_compiler`` (a config no kernel
covers counts them as ``sim.fallback.no_kernel``).  The sim cache's
record store turns the others into a correct result plus a counted
``sim.store.*`` event: a full disk loses the store
(``failed_writes``), a flipped byte is a miss (``corrupt``), and a
segment cut mid-record by a killed writer is a miss for that record
alone (``torn``), with the next append starting on a record boundary.
A killed sweep worker breaks its pool at once (``BrokenProcessPool``,
and the pool refuses reuse) and leaves a journal of whole lines, from
which ``sweep resume`` re-runs exactly the lost cells.
"""

import errno
import json
import os
import signal
import struct
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.obs as obs
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim import kernels
from repro.sim import store
from repro.sim.runner import ENGINE_VERSION, SimulationConfig, simulate
from repro.sim.store import RecordStore
from repro.sweep import expand_catalog, read_journal, run_sweep
from repro.sweep import scheduler
from tests.conftest import outcome_bytes

FAIR_SHARE = SimulationConfig(rates=(0.2, 0.3), policy="fair-share",
                              horizon=2000.0, warmup=100.0, seed=7)
FIFO = SimulationConfig(rates=(0.1, 0.2), policy="fifo",
                        horizon=2000.0, warmup=100.0, seed=3)
LIFO = SimulationConfig(rates=(0.2, 0.3), policy="lifo",
                        horizon=2000.0, warmup=100.0, seed=7)


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
        with obs.Scope() as counted:
            without = simulate(FAIR_SHARE)
        assert kernels.load_kernels() is None
        np.testing.assert_array_equal(without.mean_queues,
                                      with_kernel.mean_queues)
        np.testing.assert_array_equal(without.batch.per_batch,
                                      with_kernel.batch.per_batch)
        assert without.variate_draws == with_kernel.variate_draws
        assert counted.get("sim.fallback.no_compiler") == without.events
        assert counted.get("sim.fallback.no_kernel") == 0

    @pytest.mark.skipif(not kernels.kernels_available(),
                        reason="needs the compiled kernels")
    def test_config_without_a_kernel_counts_its_fallback(self):
        with obs.Scope() as counted:
            result = simulate(LIFO)
        assert counted.get("sim.fallback.no_kernel") == result.events > 0
        assert counted.get("sim.fallback.no_compiler") == 0
        with obs.Scope() as counted:
            simulate(FAIR_SHARE)
        assert counted.get("sim.fallback.no_kernel") == 0


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


#: The batch runner as the scheduler ships it, kept before any test
#: patches the module.
_RUN_CELL_BATCH = scheduler._run_cell_batch
#: Six cells in three CRN batches (one per load, fifo and fair-share
#: together); the middle batch is the one whose worker dies.
KILL_SPEC = {"name": "kill", "policies": ["fifo", "fair-share"],
             "profiles": ["linear"], "arrival_processes": ["poisson"],
             "service_processes": ["exponential"],
             "rhos": [0.3, 0.5, 0.7], "n_users": [2], "seeds": [0],
             "target_halfwidth": 0.3, "horizon": 1500.0,
             "warmup": 300.0, "max_doublings": 1}
DOOMED_RHO = 0.5
#: Where the dying worker notes the monotonic time of its death.
KILL_STAMP = "GREEDWORK_TEST_KILL_STAMP"


def _killing_batch(cells, cache_enabled, cache_dir):
    """Run a batch, unless it holds a doomed cell: then SIGKILL the
    worker running it, as the kernel's OOM killer would."""
    if any(cell.rho == DOOMED_RHO for cell in cells):
        with open(os.environ[KILL_STAMP], "w") as handle:
            handle.write(repr(time.monotonic()))
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_CELL_BATCH(cells, cache_enabled, cache_dir)


class TestKilledSweepWorker:
    def test_pool_breaks_and_resume_reruns_only_the_lost_cells(
            self, tmp_path, monkeypatch):
        sim_cache.set_enabled(False)
        try:
            catalog = expand_catalog(KILL_SPEC)
            reference = run_sweep(catalog, jobs=1, journal=False,
                                  cache_enabled=False)
            journal_path = str(tmp_path / "kill.jsonl")
            stamp = tmp_path / "killed-at"
            monkeypatch.setenv(KILL_STAMP, str(stamp))
            monkeypatch.setattr(scheduler, "_run_cell_batch",
                                _killing_batch)
            pool = WorkerPool(2)
            try:
                with pytest.raises(BrokenProcessPool):
                    run_sweep(catalog, jobs=2, pool=pool,
                              journal_path=journal_path,
                              cache_enabled=False)
                noticed = time.monotonic()
                with pytest.raises(BrokenProcessPool):
                    pool.submit(abs, -1)
            finally:
                pool.shutdown()
            assert noticed - float(stamp.read_text()) < 5.0
            monkeypatch.setattr(scheduler, "_run_cell_batch",
                                _RUN_CELL_BATCH)

            with open(journal_path, encoding="utf-8") as handle:
                data = handle.read()
            assert data.endswith("\n")
            records = [json.loads(line) for line in data.splitlines()]
            assert records[0]["kind"] == "sweep"
            surviving = set(read_journal(journal_path))
            doomed = {cell.key() for cell in catalog.cells
                      if cell.rho == DOOMED_RHO}
            assert len(doomed) == 2 and not surviving & doomed
            assert len(records) == 1 + len(surviving)

            with WorkerPool(2) as fresh:
                resumed = run_sweep(catalog, jobs=2, pool=fresh,
                                    resume=True,
                                    journal_path=journal_path,
                                    cache_enabled=False)
            lost = {cell.key() for cell in catalog.cells} - surviving
            assert {outcome.key for outcome in resumed.outcomes
                    if outcome.source == "fresh"} == lost
            assert resumed.source_counts()["journal"] == len(surviving)
            assert [outcome_bytes(outcome)
                    for outcome in resumed.outcomes] == [
                outcome_bytes(outcome) for outcome in reference.outcomes]
        finally:
            sim_cache.set_enabled(None)
