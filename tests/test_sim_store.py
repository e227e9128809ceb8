"""The sim cache's record store: its read contract on generated histories
of writes and damage, and its segments across processes."""

import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim import store
from repro.sim.store import RecordStore
from repro.sweep import expand_catalog
from repro.sweep import journal as journal_mod
from repro.sweep.scheduler import run_sweep

KEYS = ("a", "b", "c")

operations = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS),
              st.binary(max_size=40)),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("cut"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
              st.integers(0, 7)),
), max_size=30)


class _Written:
    """One record as the model sees it: its key, payload and bytes,
    where they went, and whether a cut or flip has touched them."""

    def __init__(self, key, payload, start):
        self.key, self.payload, self.start = key, payload, start
        self.record = store.encode(key, payload)
        self.touched = False

    @property
    def end(self):
        return self.start + len(self.record)

    def intact(self, segment):
        """Whether ``segment`` (its bytes) holds all of them now; a byte
        flipped twice is intact again."""
        return segment[self.start:self.end] == self.record


def _segment(path):
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


def _check(records, written, key, segment):
    """``get`` returns the last intact record written for ``key``, or
    None, and never other bytes; the last one written, if nothing has
    touched it."""
    got = records.get(key)
    mine = [entry for entry in written if entry.key == key]
    if mine and not mine[-1].touched:
        assert got == mine[-1].payload
        return
    intact = [entry.payload for entry in mine if entry.intact(segment)]
    assert got is None or (intact and got == intact[-1])


class TestReadContract:
    @given(ops=operations)
    @settings(max_examples=200, deadline=None)
    # Found by longer runs: a record whose payload holds the magic, its
    # header damaged, then a new writer (it must not cut the segment
    # inside the damaged record) and the header restored.
    @example(ops=[("put", "a", b"GWr1"), ("reopen",), ("flip", 0.0, 2),
                  ("put", "a", b""), ("flip", 0.0, 2)])
    def test_get_returns_the_last_intact_record_or_none(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "seg-0.log")
            written = []
            records = RecordStore(directory)
            try:
                for op in ops:
                    if op[0] == "put":
                        _kind, key, payload = op
                        before = _segment(path)
                        assert records.put(key, payload)
                        entry = _Written(key, payload, 0)
                        entry.start = os.path.getsize(path) \
                            - len(entry.record)
                        # A writer cuts off only what was damaged.
                        for old in written:
                            if old.end > entry.start:
                                assert not old.intact(before)
                        written.append(entry)
                    elif op[0] == "get":
                        _check(records, written, op[1], _segment(path))
                    elif op[0] == "reopen":
                        records.close()
                        records = RecordStore(directory)
                    elif op[0] == "cut":
                        # The writer dies, its segment cut where it was.
                        records.close()
                        at = int(op[1] * len(_segment(path)))
                        if os.path.exists(path):
                            os.truncate(path, at)
                        for entry in written:
                            entry.touched |= entry.end > at
                        records = RecordStore(directory)
                    else:
                        _kind, where, bit = op
                        size = len(_segment(path))
                        if size == 0:
                            continue
                        at = int(where * size)
                        with open(path, "r+b") as handle:
                            handle.seek(at)
                            byte = handle.read(1)[0]
                            handle.seek(at)
                            handle.write(bytes([byte ^ (1 << bit)]))
                        for entry in written:
                            entry.touched |= entry.start <= at < entry.end
                for key in KEYS:
                    _check(records, written, key, _segment(path))
                records.close()
                records = RecordStore(directory)
                for key in KEYS:
                    _check(records, written, key, _segment(path))
            finally:
                records.close()


class TestSegments:
    def test_concurrent_writers_take_one_segment_each(self, tmp_path):
        with RecordStore(str(tmp_path)) as first, \
                RecordStore(str(tmp_path)) as second:
            assert first.put("one", b"1") and second.put("two", b"2")
            assert first.get("two") == b"2" and second.get("one") == b"1"
        assert sorted(os.listdir(tmp_path)) == ["seg-0.log", "seg-1.log"]
        with RecordStore(str(tmp_path)) as third:
            assert third.put("three", b"3")
            assert third.locate("three")[0] == str(tmp_path / "seg-0.log")
            assert third.keys() == ["one", "three", "two"]

    def test_deleted_segment_is_never_read_or_appended_to(self, tmp_path):
        directory = tmp_path / "cache"
        with RecordStore(str(directory)) as records:
            assert records.put("kept", b"old")
            (segment,) = os.listdir(directory)
            # Hold the deleted file open to see whether it still grows.
            with open(directory / segment, "rb") as deleted:
                shutil.rmtree(directory)
                assert records.get("kept") is None
                assert records.put("new", b"fresh")
                assert records.get("new") == b"fresh"
                assert records.get("kept") is None
                assert deleted.read() == store.encode("kept", b"old")
        with RecordStore(str(directory)) as fresh:
            assert fresh.keys() == ["new"]

    def test_failed_write_counts_and_loses_only_that_record(
            self, tmp_path, monkeypatch):
        with RecordStore(str(tmp_path)) as records:
            assert records.put("kept", b"x" * 100)
            real_write = os.write
            with monkeypatch.context() as patch:
                patch.setattr(os, "write",
                              lambda fd, data: real_write(fd, data[:7]))
                with obs.Scope() as counted:
                    assert not records.put("lost", b"y" * 100)
            assert counted.get("sim.store.failed_writes") == 1
            assert records.get("lost") is None
            assert records.put("after", b"z")
        with RecordStore(str(tmp_path)) as fresh:
            assert fresh.keys() == ["after", "kept"]
            assert fresh.get("kept") == b"x" * 100

    def test_a_live_writers_partial_record_is_not_torn(self, tmp_path):
        record = store.encode("next", b"2" * 100)
        with RecordStore(str(tmp_path)) as writer, \
                RecordStore(str(tmp_path)) as reader:
            assert writer.put("done", b"1")
            # The writer is mid-append: part of its record is visible.
            with open(tmp_path / "seg-0.log", "ab") as segment:
                segment.write(record[:60])
                segment.flush()
                with obs.Scope() as counted:
                    assert reader.get("next") is None
                    assert reader.get("done") == b"1"
                assert counted.delta == {}
                segment.write(record[60:])
            assert reader.get("next") == b"2" * 100

    def test_bytes_written_are_counted(self, tmp_path):
        with RecordStore(str(tmp_path)) as records:
            records.put("key", b"payload")
            assert records.bytes_written \
                == len(store.encode("key", b"payload")) \
                == os.path.getsize(tmp_path / "seg-0.log")


def _store_entry(key, value):
    """Pool task: one entry through the worker's own cache store."""
    sim_cache.store(key, value)
    return os.getpid()


def _payload(key):
    return key.encode() * 700


def _write_and_read(directory, writer, n_keys, n_writers):
    """Pool task: append ``n_keys`` records while reading every other
    writer's; returns the reads that came back with wrong bytes."""
    wrong = []
    with RecordStore(directory) as records:
        for number in range(n_keys):
            key = f"w{writer}-{number}"
            assert records.put(key, _payload(key))
            for other in range(n_writers):
                seen = f"w{other}-{number}"
                got = records.get(seen)
                if got is not None and got != _payload(seen):
                    wrong.append(seen)
    return wrong


@pytest.fixture
def cache_in(tmp_path, monkeypatch):
    directory = tmp_path / "sim"
    monkeypatch.setenv(sim_cache.ENV_DIR, str(directory))
    monkeypatch.setenv(journal_mod.ENV_DIR, str(tmp_path / "sweeps"))
    sim_cache.set_enabled(True)
    yield directory
    sim_cache.set_enabled(None)


class TestAcrossProcesses:
    def test_concurrent_writers_lose_and_mix_nothing(self, tmp_path):
        writers, n_keys = 4, 60                 # more workers than cores
        with WorkerPool(writers) as pool:
            futures = [pool.submit(_write_and_read, str(tmp_path), writer,
                                   n_keys, writers)
                       for writer in range(writers)]
            assert [future.result(timeout=120) for future in futures] \
                == [[]] * writers
        assert 1 <= len(os.listdir(tmp_path)) <= writers
        with RecordStore(str(tmp_path)) as records:
            keys = [f"w{writer}-{number}" for writer in range(writers)
                    for number in range(n_keys)]
            assert records.keys() == sorted(keys)
            assert all(records.get(key) == _payload(key) for key in keys)

    def test_parent_reads_what_a_worker_wrote(self, cache_in):
        assert sim_cache.peek("k") is None
        with WorkerPool(1) as pool:
            pool.submit(_store_entry, "k", {"rung": 3}).result()
            assert sim_cache.peek("k") == {"rung": 3}

    def test_sequential_writers_share_one_segment(self, cache_in):
        pids = set()
        for number in range(3):
            with WorkerPool(1) as pool:
                pids.add(pool.submit(_store_entry, f"k{number}",
                                     number).result())
        assert len(pids) == 3
        assert os.listdir(cache_in) == ["seg-0.log"]
        assert [sim_cache.peek(f"k{number}") for number in range(3)] \
            == [0, 1, 2]

    def test_forked_child_never_appends_through_the_parents_segment(
            self, cache_in):
        sim_cache.store("parent", 1)
        with WorkerPool(1) as pool:
            pool.submit(_store_entry, "child", 2).result()
        with RecordStore(str(cache_in)) as records:
            assert records.locate("parent")[0].endswith("seg-0.log")
            assert records.locate("child")[0].endswith("seg-1.log")
        assert sim_cache.peek("child") == 2

    @pytest.mark.slow
    def test_cache_removed_under_a_live_pool_goes_cold(self, cache_in):
        catalog = expand_catalog({
            "name": "tiny", "policies": ["fifo", "fair-share"],
            "profiles": ["linear"], "arrival_processes": ["poisson"],
            "service_processes": ["exponential"], "rhos": [0.3, 0.5],
            "n_users": [2], "seeds": [0], "target_halfwidth": 0.3,
            "horizon": 1500.0, "warmup": 300.0, "max_doublings": 1})

        def outcomes(result):
            rows = [outcome.as_dict() for outcome in result.outcomes]
            for row in rows:
                del row["source"]
            return rows

        with WorkerPool(2) as pool:
            first = run_sweep(catalog, jobs=2, pool=pool,
                              cache_enabled=True)
            shutil.rmtree(cache_in)
            shutil.rmtree(os.environ[journal_mod.ENV_DIR])
            cold = run_sweep(catalog, jobs=2, pool=pool,
                             cache_enabled=True)
            warm = run_sweep(catalog, jobs=2, pool=pool,
                             cache_enabled=True)
        assert cold.source_counts()["fresh"] == len(catalog)
        assert cold.fresh_events == first.fresh_events > 0
        assert outcomes(cold) == outcomes(first)
        assert warm.source_counts()["cache"] == len(catalog)
        assert warm.fresh_events == 0
        assert outcomes(warm) == outcomes(first)
