"""Tests for the scenario-sweep orchestrator (`repro.sweep`).

Covers the catalog expansion/keying, the Pareto dominance machinery,
the journal round-trip, the scheduler's dedup-before-dispatch and
CRN-sibling batching, the concurrent-dedup and kill-and-resume
accounting the issue gates on, and the `repro sweep` CLI surface.
"""

import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.cli import main as cli_main
from repro.exceptions import SweepError
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.sim.runner import ENGINE_VERSION
from repro.sweep import (
    Catalog,
    CellOutcome,
    SweepJournal,
    builtin_catalog,
    builtin_catalog_names,
    expand_catalog,
    load_catalog,
    read_journal,
    render_report,
    report_document,
    run_sweep,
)
from repro.sweep import journal as journal_mod
from repro.sweep.catalog import SweepCell, dedupe_cells
from repro.sweep.pareto import (
    ParetoPoint,
    PointClassification,
    classify_points,
    compute_pareto_frontier,
    dominates,
    frontier_line,
    verdict_confidence,
)
from repro.sweep.report import (
    discipline_aggregates,
    frontier_shares,
    group_label,
    scenario_groups,
)
from repro.sweep.scheduler import SweepScheduler, warm_outcome
from tests.conftest import corrupt_record, record_keys

#: A deliberately tiny stopping rule so scheduler tests stay fast.
FAST_SCALARS = {"target_halfwidth": 0.3, "horizon": 1500.0,
                "warmup": 300.0, "max_doublings": 1}


def tiny_spec(**overrides):
    spec = {
        "name": "tiny",
        "policies": ["fifo", "fair-share"],
        "profiles": ["linear"],
        "arrival_processes": ["poisson"],
        "service_processes": ["exponential"],
        "rhos": [0.3],
        "n_users": [2],
        "seeds": [0],
    }
    spec.update(FAST_SCALARS)
    spec.update(overrides)
    return spec


def cache_keys():
    """Every key with a record in the current sim cache directory."""
    return record_keys(sim_cache.cache_dir())


def drop_entry(key):
    """Corrupt ``key``'s record, which makes reading it a miss."""
    corrupt_record(sim_cache.cache_dir(), key)


def drop_precision_index():
    for key in cache_keys():
        if key.startswith("prec-"):
            drop_entry(key)


def outcome_bytes(outcome):
    """An outcome's journal form without its source, as canonical
    JSON."""
    payload = outcome.as_dict()
    del payload["source"]
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def sweep_env(tmp_path, monkeypatch):
    """Isolated sim cache + sweep journal directories."""
    cache_dir = tmp_path / "sim"
    sweeps_dir = tmp_path / "sweeps"
    monkeypatch.setenv(sim_cache.ENV_DIR, str(cache_dir))
    monkeypatch.setenv(journal_mod.ENV_DIR, str(sweeps_dir))
    sim_cache.set_enabled(True)
    yield tmp_path
    sim_cache.set_enabled(None)


class TestCatalog:
    def test_expansion_is_cross_product(self):
        catalog = expand_catalog(tiny_spec(
            policies=["fifo", "fair-share"], rhos=[0.3, 0.6],
            n_users=[2, 4]))
        assert len(catalog) == 2 * 2 * 2
        assert catalog.name == "tiny"

    def test_unknown_key_rejected(self):
        with pytest.raises(SweepError, match="polices"):
            expand_catalog(tiny_spec(polices=["fifo"]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SweepError, match="no-such-policy"):
            expand_catalog(tiny_spec(policies=["no-such-policy"]))

    def test_rho_bounds_rejected(self):
        with pytest.raises(SweepError, match="rho"):
            expand_catalog(tiny_spec(rhos=[1.0]))

    def test_preemptive_nonexponential_rejected(self):
        with pytest.raises(SweepError, match="nonpreemptive"):
            expand_catalog(tiny_spec(
                policies=["fair-share"],
                service_processes=["deterministic"]))

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="non-empty"):
            expand_catalog(tiny_spec(policies=[]))

    def test_rates_realize_rho(self):
        cell = expand_catalog(tiny_spec(
            profiles=["linear"], rhos=[0.6], n_users=[4])).cells[0]
        rates = cell.rates()
        assert sum(rates) == pytest.approx(0.6)
        assert rates[3] == pytest.approx(4 * rates[0])
        uniform = replace(cell, profile="uniform").rates()
        assert all(r == pytest.approx(uniform[0]) for r in uniform)

    def test_key_is_content_and_engine_sensitive(self):
        cell = expand_catalog(tiny_spec()).cells[0]
        assert cell.key() == replace(cell).key()
        assert cell.key() != replace(cell, seed=1).key()

    def test_crn_key_ignores_policy_only(self):
        cell = expand_catalog(tiny_spec()).cells[0]
        sibling = replace(cell, policy="fair-share")
        assert cell.crn_key() == sibling.crn_key()
        assert cell.key() != sibling.key()
        assert cell.crn_key() != replace(cell, seed=1).crn_key()

    def test_digest_ignores_order_and_name(self):
        first = expand_catalog(tiny_spec())
        flipped = Catalog(name="other",
                          cells=list(reversed(first.cells)))
        assert first.digest() == flipped.digest()

    def test_cost_estimate_orders_by_load(self):
        cheap = expand_catalog(tiny_spec(rhos=[0.3])).cells[0]
        dear = replace(cheap, rho=0.9)
        assert cheap.cost_estimate() < dear.cost_estimate()

    def test_load_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(tiny_spec()))
        catalog = load_catalog(str(path))
        assert len(catalog) == 2
        assert catalog.cells == expand_catalog(tiny_spec()).cells

    def test_load_catalog_bad_json(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("{nope")
        with pytest.raises(SweepError, match="JSON"):
            load_catalog(str(path))

    def test_builtin_catalogs(self):
        assert builtin_catalog_names() == ["paper", "smoke"]
        smoke = builtin_catalog("smoke")
        assert 1 <= len(smoke) <= 20
        paper = builtin_catalog("paper")
        assert len(paper) >= 150
        with pytest.raises(SweepError, match="unknown built-in"):
            builtin_catalog("nope")

    def test_dedupe_cells(self):
        cells = expand_catalog(tiny_spec()).cells
        unique, duplicates = dedupe_cells(cells + [cells[0]])
        assert unique == cells
        assert duplicates == {cells[0].key(): 1}


class TestPareto:
    def _point(self, cost, halfwidth, confidence, label="p"):
        return ParetoPoint(label=label, cost=cost,
                           halfwidth=halfwidth, confidence=confidence)

    def test_dominates_requires_strictness(self):
        a = self._point(1.0, 0.1, 0.9)
        assert not dominates(a, a)
        assert dominates(self._point(1.0, 0.1, 0.95), a)
        assert dominates(self._point(0.5, 0.1, 0.9), a)
        assert not dominates(self._point(0.5, 0.2, 0.9), a)

    def test_frontier_simple(self):
        points = [self._point(1.0, 0.3, 0.9, "cheap-loose"),
                  self._point(10.0, 0.1, 0.9, "dear-tight"),
                  self._point(12.0, 0.3, 0.9, "dominated")]
        assert compute_pareto_frontier(points) == [0, 1]

    def test_nonfinite_never_on_frontier(self):
        points = [self._point(1.0, float("nan"), 0.9, "broken"),
                  self._point(5.0, 0.2, 0.9, "fine")]
        assert compute_pareto_frontier(points) == [1]

    def test_classify_points_names_dominator(self):
        points = [self._point(1.0, 0.1, 0.9, "best"),
                  self._point(2.0, 0.2, 0.9, "worst")]
        best, worst = classify_points(points)
        assert isinstance(best, PointClassification)
        assert best.on_frontier and best.dominator is None
        assert not worst.on_frontier
        assert worst.dominator == "best"
        assert worst.dominated_by >= 1

    def test_frontier_line_sorted_by_cost(self):
        points = [self._point(9.0, 0.1, 0.9, "dear"),
                  self._point(1.0, 0.3, 0.9, "cheap")]
        assert [p.label for p in frontier_line(points)] \
            == ["cheap", "dear"]

    def test_verdict_confidence_monotone(self):
        loose = verdict_confidence(0.4, 0.2, dof=19)
        tight = verdict_confidence(0.05, 0.2, dof=19)
        assert 0.0 <= loose < tight <= 1.0
        assert verdict_confidence(float("nan"), 0.2,
                                  dof=19) == pytest.approx(0.0)


class TestJournal:
    def test_roundtrip(self, sweep_env):
        path = journal_mod.journal_path("abc123")
        with SweepJournal(path, fresh=True) as journal:
            journal.write_header("abc123", "tiny", 2)
            journal.write_cell("k1", {"key": "k1", "events": 7})
        recorded = read_journal(path)
        assert recorded == {"k1": {"key": "k1", "events": 7}}
        assert journal_mod.list_journals() == ["abc123"]

    def test_sweep_dir_env_override(self, sweep_env):
        assert journal_mod.sweep_dir() == str(sweep_env / "sweeps")

    def test_missing_file_is_empty(self, sweep_env):
        assert read_journal(journal_mod.journal_path("nothere")) == {}

    def test_engine_mismatch_clears_earlier_records(self, sweep_env):
        path = journal_mod.journal_path("abc123")
        with SweepJournal(path, fresh=True) as journal:
            journal.write_cell("old", {"events": 1})
            journal._write({"kind": "sweep", "digest": "abc123",
                            "engine": "not-this-engine"})
            journal.write_cell("new", {"events": 2})
        assert set(read_journal(path)) == {"new"}

    def test_truncated_trailing_line_skipped(self, sweep_env):
        path = journal_mod.journal_path("abc123")
        with SweepJournal(path, fresh=True) as journal:
            journal.write_cell("k1", {"events": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "key": "k2"')  # killed mid-write
        assert set(read_journal(path)) == {"k1"}

    def test_fresh_truncates(self, sweep_env):
        path = journal_mod.journal_path("abc123")
        with SweepJournal(path, fresh=True) as journal:
            journal.write_cell("k1", {"events": 1})
        with SweepJournal(path, fresh=True):
            pass
        assert read_journal(path) == {}

    def test_closed_journal_refuses_writes(self, sweep_env):
        path = journal_mod.journal_path("abc123")
        journal = SweepJournal(path, fresh=True)
        journal.close()
        journal.close()                  # idempotent
        with pytest.raises(SweepError, match="closed"):
            journal.write_cell("k1", {})


class TestScheduler:
    def test_cold_run_serial(self, sweep_env):
        catalog = expand_catalog(tiny_spec())
        ticks = []
        result = run_sweep(catalog, jobs=1, progress=ticks.append)
        assert len(result.outcomes) == 2
        assert all(o.ok for o in result.outcomes)
        assert all(o.source == "fresh" for o in result.outcomes)
        assert result.fresh_events > 0
        assert result.events > 0
        assert ticks and ticks[-1].done == 2
        assert result.journal_path is not None
        assert len(read_journal(result.journal_path)) == 2

    def test_warm_rerun_is_dedup_only(self, sweep_env):
        catalog = expand_catalog(tiny_spec())
        run_sweep(catalog, jobs=1)
        result = run_sweep(catalog, jobs=1)
        assert result.fresh_events == 0
        assert all(o.source == "cache" for o in result.outcomes)
        assert result.source_counts()["fresh"] == 0

    def test_warm_outcome_direct(self, sweep_env):
        cell = expand_catalog(tiny_spec(policies=["fifo"])).cells[0]
        assert warm_outcome(cell) is None          # cold cache
        catalog = Catalog(name="one", cells=[cell])
        cold = run_sweep(catalog, jobs=1, journal=False)
        warm = warm_outcome(cell)
        assert warm is not None and warm.source == "cache"
        assert warm.events == cold.outcomes[0].events
        assert warm.halfwidth \
            == pytest.approx(cold.outcomes[0].halfwidth)

    def test_warm_outcome_with_and_without_precision_index(
            self, sweep_env):
        # The index is a pure shortcut: deleting it must leave the
        # warm outcome byte-identical via the rung-by-rung fallback.
        cell = expand_catalog(tiny_spec(policies=["fifo"])).cells[0]
        catalog = Catalog(name="one", cells=[cell])
        run_sweep(catalog, jobs=1, journal=False)
        indexed = warm_outcome(cell)
        index_keys = [key for key in cache_keys()
                      if key.startswith("prec-")]
        assert index_keys, "cold run should write a precision index"
        for key in index_keys:
            drop_entry(key)
        replayed = warm_outcome(cell)
        assert indexed is not None and replayed is not None
        assert indexed.as_dict() == replayed.as_dict()

    def test_precision_index_reaches_final_rung(self, sweep_env):
        # With only the final rung's result left, the index is the
        # one way to resolve the cell: a probe that ignored it would
        # miss at rung 1.
        cell = expand_catalog(tiny_spec(
            policies=["fifo"], target_halfwidth=0.01,
            max_doublings=2)).cells[0]
        cold = run_sweep(Catalog(name="one", cells=[cell]),
                         journal=False).outcomes[0]
        assert cold.n_rungs >= 2
        final = sim_cache.config_key(
            replace(cell.config(), horizon=cold.horizon), ENGINE_VERSION)
        dropped = [key for key in cache_keys()
                   if not key.startswith(("prec-", "state-"))
                   and key != final]
        assert len(dropped) == cold.n_rungs - 1
        for key in dropped:
            drop_entry(key)
        warm = warm_outcome(cell)
        assert warm is not None
        assert outcome_bytes(warm) == outcome_bytes(cold)
        drop_precision_index()
        assert warm_outcome(cell) is None

    @pytest.mark.slow
    def test_parallel_identical_to_serial(self, sweep_env, tmp_path,
                                          monkeypatch):
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        serial = run_sweep(catalog, jobs=1, journal=False)
        monkeypatch.setenv(sim_cache.ENV_DIR,
                           str(tmp_path / "sim-parallel"))
        parallel = run_sweep(catalog, jobs=2, journal=False,
                             cache_enabled=True)
        assert [o.as_dict() for o in serial.outcomes] \
            == [o.as_dict() for o in parallel.outcomes]
        assert parallel.fresh_events == serial.fresh_events
        assert parallel.busy_s > 0.0

    @pytest.mark.slow
    def test_serial_and_pooled_sweeps_count_alike(self, sweep_env,
                                                  tmp_path, monkeypatch):
        """A cold sweep adds its cache counts to the registry once,
        whether its batches ran here or in pool workers."""
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        counts = {}
        for jobs in (1, 2):
            monkeypatch.setenv(sim_cache.ENV_DIR,
                               str(tmp_path / f"sim-jobs{jobs}"))
            with obs.Scope() as counted:
                result = run_sweep(catalog, jobs=jobs, journal=False,
                                   cache_enabled=True)
            counts[jobs] = obs.group("sim.cache", sim_cache.COUNTERS,
                                     counted.delta)
            assert counts[jobs]["fresh_events"] == result.fresh_events
            assert result.stats_delta == counts[jobs]
        assert counts[1] == counts[2]
        assert counts[1]["misses"] > 0

    @pytest.mark.slow
    def test_pooled_workers_follow_the_parents_cache_dir(self, sweep_env,
                                                          tmp_path,
                                                          monkeypatch):
        """Workers forked before the parent moves its sim cache read
        and write the parent's current directory, not their own."""
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        with WorkerPool(2) as pool:
            for future in [pool.submit(abs, -1) for _ in range(2)]:
                future.result()
            cold = run_sweep(catalog, jobs=2, pool=pool,
                             cache_enabled=True)
            first = set(cache_keys())
            monkeypatch.setenv(sim_cache.ENV_DIR,
                               str(tmp_path / "sim-moved"))
            moved = run_sweep(catalog, jobs=2, pool=pool,
                              cache_enabled=True)
        assert cold.fresh_events > 0
        assert moved.fresh_events == cold.fresh_events
        assert moved.source_counts()["fresh"] == len(catalog)
        assert set(cache_keys()) == first

    @pytest.mark.slow
    def test_concurrent_identical_cells_simulate_once(self, sweep_env,
                                                      tmp_path,
                                                      monkeypatch):
        # Reference: the cell on its own, in a pristine cache.
        cell = expand_catalog(tiny_spec(policies=["fifo"])).cells[0]
        reference = run_sweep(Catalog(name="ref", cells=[cell]),
                              jobs=1, journal=False)
        assert reference.fresh_events > 0
        # Two identical cells submitted simultaneously at jobs=2 in
        # another pristine cache: exactly one simulation may happen.
        monkeypatch.setenv(sim_cache.ENV_DIR, str(tmp_path / "sim2"))
        doubled = Catalog(name="dup", cells=[cell, replace(cell)])
        result = run_sweep(doubled, jobs=2, journal=False,
                           cache_enabled=True)
        assert result.fresh_events == reference.fresh_events
        first, second = result.outcomes
        assert first.source == "fresh"
        assert second.source == "dedup"
        assert first.events == second.events
        assert result.events == 2 * reference.events

    def test_kill_and_resume_runs_only_missing_cells(self, sweep_env,
                                                     tmp_path,
                                                     monkeypatch):
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        assert len(catalog) == 4
        full = run_sweep(catalog, jobs=1)
        journal_file = full.journal_path
        # Simulate a kill after two cells: drop the last two records.
        with open(journal_file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        kept, cell_lines = [], 0
        for line in lines:
            if json.loads(line)["kind"] == "cell":
                cell_lines += 1
                if cell_lines > 2:
                    continue
            kept.append(line)
        with open(journal_file, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n")
        surviving = set(read_journal(journal_file))
        assert len(surviving) == 2
        # Point the sim cache somewhere cold so the journal is the
        # only shortcut left, then resume.
        monkeypatch.setenv(sim_cache.ENV_DIR, str(tmp_path / "cold"))
        resumed = run_sweep(catalog, jobs=1, resume=True)
        counts = resumed.source_counts()
        assert counts["journal"] == 2 and counts["fresh"] == 2
        assert resumed.fresh_events > 0
        for outcome in resumed.outcomes:
            expected = ("journal" if outcome.key in surviving
                        else "fresh")
            assert outcome.source == expected
        # The journal is whole again: a second resume is a no-op.
        again = run_sweep(catalog, jobs=1, resume=True)
        assert again.fresh_events == 0
        assert again.source_counts()["journal"] == 4

    def test_torn_last_line_reruns_only_that_cell(self, sweep_env,
                                                  tmp_path, monkeypatch):
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        full = run_sweep(catalog, jobs=1)
        journal_file = full.journal_path
        with open(journal_file, "rb") as handle:
            data = handle.read()
        last = data.splitlines()[-1]
        torn = json.loads(last)["key"]
        # The kill lands mid-way through the last cell's line.
        os.truncate(journal_file, len(data) - 1 - len(last) // 2)
        surviving = set(read_journal(journal_file))
        assert len(surviving) == 3 and torn not in surviving
        monkeypatch.setenv(sim_cache.ENV_DIR, str(tmp_path / "cold"))
        resumed = run_sweep(catalog, jobs=1, resume=True)
        assert resumed.source_counts()["journal"] == 3
        assert [outcome.key for outcome in resumed.outcomes
                if outcome.source == "fresh"] == [torn]
        expected = [outcome_bytes(outcome) for outcome in full.outcomes]
        assert [outcome_bytes(outcome)
                for outcome in resumed.outcomes] == expected
        # Every line of the journal is a whole record again.
        with open(journal_file, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
        again = run_sweep(catalog, jobs=1, resume=True)
        assert again.source_counts()["journal"] == 4
        assert again.fresh_events == 0
        assert [outcome_bytes(outcome)
                for outcome in again.outcomes] == expected

    def test_crashed_cell_is_isolated_and_retried(self, sweep_env,
                                                  monkeypatch):
        import repro.sweep.scheduler as scheduler_mod

        catalog = expand_catalog(tiny_spec())
        real = scheduler_mod.simulate_to_precision

        def boom(config, **kwargs):
            if config.policy == "fifo":
                raise RuntimeError("injected crash")
            return real(config, **kwargs)

        monkeypatch.setattr(scheduler_mod, "simulate_to_precision",
                            boom)
        result = run_sweep(catalog, jobs=1)
        assert len(result.failures) == 1
        crashed = result.failures[0]
        assert crashed.policy == "fifo"
        assert "injected crash" in crashed.error
        assert not crashed.ok
        # A resume retries the crashed cell (and only it).
        monkeypatch.setattr(scheduler_mod, "simulate_to_precision",
                            real)
        resumed = run_sweep(catalog, jobs=1, resume=True)
        assert resumed.failures == []
        counts = resumed.source_counts()
        assert counts["journal"] == 1
        assert counts["fresh"] + counts["cache"] == 1

    def test_batches_group_crn_siblings_cheapest_first(self):
        catalog = expand_catalog(tiny_spec(rhos=[0.6, 0.3]))
        scheduler = SweepScheduler(catalog, journal=False)
        batches = scheduler._batches(catalog.cells)
        assert len(batches) == 2
        for batch in batches:
            assert len({cell.crn_key() for cell in batch}) == 1
            assert len(batch) == 2
        # Cheaper load schedules first.
        assert batches[0][0].rho == pytest.approx(0.3)
        assert batches[1][0].rho == pytest.approx(0.6)

    def test_scheduler_reuses_caller_pool(self, sweep_env):
        catalog = expand_catalog(tiny_spec())
        with WorkerPool(2) as pool:
            first = run_sweep(catalog, jobs=2, journal=False,
                              pool=pool, cache_enabled=True)
            assert pool.started        # scheduler used it...
            second = run_sweep(catalog, jobs=2, journal=False,
                               pool=pool, cache_enabled=True)
            assert pool.started        # ...and did not shut it down
        assert first.fresh_events > 0
        assert second.fresh_events == 0


@st.composite
def small_cells(draw):
    """One small cell needing 1-3 rungs; lifo runs the scalar loop."""
    return SweepCell(
        policy=draw(st.sampled_from(
            ("fifo", "fair-share", "round-robin", "lifo"))),
        profile=draw(st.sampled_from(("uniform", "linear"))),
        arrival_process="poisson", service_process="exponential",
        rho=draw(st.floats(0.1, 0.9)),
        n_users=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        target_halfwidth=math.exp(draw(st.floats(math.log(0.005),
                                                 math.log(0.1)))),
        horizon=FAST_SCALARS["horizon"], warmup=FAST_SCALARS["warmup"],
        max_doublings=draw(st.integers(0, 2)))


class TestWarmEqualsCold:
    """The warm probe reproduces the worker's outcome on generated
    cells, with the precision index and without it."""

    @given(cell=small_cells())
    @settings(max_examples=20, deadline=None)
    def test_warm_outcome_equals_cold(self, cell):
        with tempfile.TemporaryDirectory() as cache_dir, \
                pytest.MonkeyPatch.context() as patch:
            patch.setenv(sim_cache.ENV_DIR, cache_dir)
            sim_cache.set_enabled(True)
            try:
                cold = run_sweep(Catalog(name="one", cells=[cell]),
                                 journal=False).outcomes[0]
                assert cold.ok and cold.source == "fresh"
                indexed = warm_outcome(cell)
                assert indexed is not None
                assert outcome_bytes(indexed) == outcome_bytes(cold)
                drop_precision_index()
                walked = warm_outcome(cell)
                assert walked is not None
                assert outcome_bytes(walked) == outcome_bytes(cold)
            finally:
                sim_cache.set_enabled(None)


class TestReport:
    @pytest.fixture
    def result(self, sweep_env):
        catalog = expand_catalog(tiny_spec(rhos=[0.3, 0.5]))
        return run_sweep(catalog, jobs=1)

    def test_scenario_groups_split_by_traffic(self, result):
        groups = scenario_groups(result.outcomes)
        assert len(groups) == 2                # one per rho
        for key, cells in groups.items():
            assert "rho=" in group_label(key)
            assert sorted(c.policy for c in cells) \
                == ["fair-share", "fifo"]

    def test_discipline_aggregates_and_shares(self, result):
        aggregates = discipline_aggregates(result.outcomes)
        assert [p.label for p in aggregates] == ["fair-share", "fifo"]
        assert all(p.meta["cells"] == 2 for p in aggregates)
        shares = frontier_shares(scenario_groups(result.outcomes))
        for wins, entered in shares.values():
            assert 0 <= wins <= entered == 2

    def test_report_document_schema(self, result):
        document = report_document(result)
        assert document["report"] == "sweep-pareto"
        assert document["cells_total"] == 4
        assert document["cells_failed"] == 0
        assert len(document["disciplines"]) == 2
        assert len(document["groups"]) == 2
        assert len(document["outcomes"]) == 4
        assert document["frontier"]            # someone always wins
        json.dumps(document)                   # artifact-safe

    def test_render_report_mentions_everything(self, result):
        text = render_report(result)
        assert "Cost-quality frontier by discipline" in text
        assert "fair-share" in text and "fifo" in text
        assert "rho=0.3" in text and "rho=0.5" in text

    def test_render_report_caps_groups(self, result):
        text = render_report(result, max_groups=1)
        assert "1 more group(s)" in text


class TestSweepCLI:
    def _write_catalog(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(tiny_spec()))
        return str(path)

    def test_run_then_report(self, sweep_env, capsys):
        catalog_path = self._write_catalog(sweep_env)
        out_path = str(sweep_env / "artifact.json")
        code = cli_main(["sweep", "run", "--catalog", catalog_path,
                         "--quiet", "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cost-quality frontier" in out
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["cells_total"] == 2
        # `sweep report` regenerates from the journal alone.
        code = cli_main(["sweep", "report", "--catalog", catalog_path])
        assert code == 0
        captured = capsys.readouterr()
        assert "journal 2" in captured.out

    def test_resume_after_run_is_delta_only(self, sweep_env, capsys):
        catalog_path = self._write_catalog(sweep_env)
        assert cli_main(["sweep", "run", "--catalog", catalog_path,
                         "--quiet"]) == 0
        capsys.readouterr()
        assert cli_main(["sweep", "resume", "--catalog", catalog_path,
                         "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "journal 2" in captured.out
        assert "0 fresh" in captured.out

    def test_report_without_journal_errors(self, sweep_env, capsys):
        catalog_path = self._write_catalog(sweep_env)
        assert cli_main(["sweep", "report", "--catalog",
                         catalog_path]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_catalog_and_builtin_conflict(self, sweep_env, capsys):
        catalog_path = self._write_catalog(sweep_env)
        code = cli_main(["sweep", "run", "--catalog", catalog_path,
                         "--builtin", "smoke"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_builtin_errors(self, sweep_env, capsys):
        assert cli_main(["sweep", "run", "--builtin", "nope"]) == 2
        assert "unknown built-in" in capsys.readouterr().err


def _counting_task(units):
    """A pool task that adds to the registry in its worker."""
    if units < 0:
        raise ValueError("negative units")
    obs.add("test.task_units", units)
    return units


class TestWorkerPool:
    def test_lazy_start_and_context_manager(self):
        with WorkerPool(2) as pool:
            assert not pool.started    # nothing dispatched yet
            assert pool.jobs == 2
        assert not pool.started

    def test_submit_and_map(self):
        with WorkerPool(2) as pool:
            assert pool.submit(abs, -3).result() == 3
            assert pool.started
            assert list(pool.map(abs, [-1, 2, -3])) == [1, 2, 3]

    def test_worker_counts_fold_into_the_parent(self, counted):
        with WorkerPool(2) as pool:
            assert list(pool.map(_counting_task, [1, 2, 3])) == [1, 2, 3]
            assert pool.submit(_counting_task, 10).result() == 10
        assert counted.get("test.task_units") == 16

    def test_folds_lose_no_concurrent_adds(self, counted):
        # More workers than cores, and a short switch interval, so the
        # pool's result thread folds deltas while this thread adds.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(3) as pool:
                futures = [pool.submit(_counting_task, 1)
                           for _ in range(600)]
                for _ in range(60000):
                    obs.add("test.task_units")
                results = [future.result(timeout=60)
                           for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sum(results) == 600
        assert counted.get("test.task_units") == 60600

    def test_submit_relays_task_errors(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="negative"):
                pool.submit(_counting_task, -1).result()

    def test_shutdown_idempotent(self):
        pool = WorkerPool(1)
        pool.submit(abs, -1).result()
        pool.shutdown()
        pool.shutdown()
        assert not pool.started

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="at least one"):
            WorkerPool(0)


class TestCellOutcome:
    def test_roundtrip_ignores_unknown_keys(self):
        cell = expand_catalog(tiny_spec(policies=["fifo"])).cells[0]
        outcome = CellOutcome(
            key=cell.key(), label=cell.label(), policy=cell.policy,
            profile=cell.profile,
            arrival_process=cell.arrival_process,
            service_process=cell.service_process, rho=cell.rho,
            n_users=cell.n_users, seed=cell.seed,
            target_halfwidth=cell.target_halfwidth, events=10,
            horizon=1500.0, n_rungs=1, achieved=True, halfwidth=0.1,
            confidence=0.9, mean_total_queue=0.5)
        payload = outcome.as_dict()
        payload["from_the_future"] = 42
        assert CellOutcome.from_dict(payload) == outcome
        assert outcome.ok
