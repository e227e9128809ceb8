"""Tests for the parallel experiment fan-out and its CLI surface."""

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.exceptions import ReproError
from repro.experiments import registry
from repro.experiments.registry import claim_of, run_experiments
from repro.sim import cache as sim_cache

#: Cheap experiments (well under a second each in fast mode).
QUICK_IDS = ["table1", "t7_dynamics", "t8_protection"]


class TestRunExperiments:
    @pytest.mark.slow
    def test_parallel_identical_to_serial(self):
        serial = run_experiments(QUICK_IDS, seed=0, fast=True, jobs=1)
        parallel = run_experiments(QUICK_IDS, seed=0, fast=True,
                                   jobs=2)
        assert [r.experiment_id for r in serial] == QUICK_IDS
        for left, right in zip(serial, parallel):
            assert left.render() == right.render()

    def test_unknown_id_raises_before_any_work(self):
        with pytest.raises(ReproError):
            run_experiments(["table1", "no_such_experiment"], jobs=2)

    def test_crash_becomes_fail_report(self, monkeypatch):
        def boom(seed, fast):
            raise RuntimeError("injected crash")

        monkeypatch.setitem(registry._REGISTRY, "t7_dynamics", boom)
        reports = run_experiments(["t7_dynamics", "table1"], seed=0,
                                  fast=True)
        crashed, healthy = reports
        assert not crashed.passed
        assert crashed.claim == claim_of("t7_dynamics")
        assert any("injected crash" in note for note in crashed.notes)
        assert any("Traceback" in note for note in crashed.notes)
        assert healthy.experiment_id == "table1"
        assert healthy.tables          # the survivor really ran

    @pytest.mark.slow
    def test_worker_cache_stats_merge_back(self):
        with obs.Scope() as serial:
            run_experiments(["table1", "t8_protection"], seed=0,
                            fast=True, jobs=1)
        assert serial.get("sim.cache.fresh_events") > 0
        with obs.Scope() as pooled:
            run_experiments(["table1", "t8_protection"], seed=0,
                            fast=True, jobs=2)
        assert pooled.delta == serial.delta

    @pytest.mark.slow
    def test_worker_solver_counts_merge_back(self):
        with obs.Scope() as serial:
            run_experiments(["t1_efficiency", "t8_protection"], seed=0,
                            fast=True, jobs=1)
        assert serial.get("solver.objective_evals") > 0
        assert serial.get("solver.congestion_evals") > 0
        with obs.Scope() as pooled:
            run_experiments(["t1_efficiency", "t8_protection"], seed=0,
                            fast=True, jobs=2)
        assert pooled.delta == serial.delta


class TestCLIFlags:
    @pytest.mark.slow
    def test_run_jobs_flag(self, capsys):
        code = cli_main(["run", "table1", "--fast", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[PASS]" in captured.out
        sim_line, solver_line = captured.err.splitlines()[-2:]
        assert sim_line.startswith("[sim-cache] hits=")
        assert solver_line == ("[solver] objective_evals=0 "
                               "congestion_evals=0 grid_calls=0 "
                               "map_evals=0 rejected_extrapolations=0 "
                               "unconverged=0 serial_fallbacks=0")

    @pytest.mark.slow
    def test_no_sim_cache_flag(self, capsys, monkeypatch):
        # Even with the cache force-enabled by the environment, the
        # flag keeps the run fresh (and resets the override after).
        monkeypatch.setenv(sim_cache.ENV_TOGGLE, "1")
        code = cli_main(["run", "table1", "--fast", "--no-sim-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "hits=0 misses=0 stores=0" in captured.err
        assert sim_cache.enabled()     # override cleared, env rules

    @pytest.mark.slow
    def test_warm_cache_run_simulates_nothing(self, capsys):
        sim_cache.set_enabled(True)
        assert cli_main(["run", "table1", "--fast"]) == 0
        cold = capsys.readouterr()
        assert "fresh_events=0" not in cold.err
        assert cli_main(["run", "table1", "--fast"]) == 0
        warm = capsys.readouterr()
        assert "fresh_events=0" in warm.err
        assert warm.out == cold.out

    def test_unknown_experiment_id_is_friendly(self, capsys):
        code = cli_main(["run", "fair-share"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown experiment" in captured.err
        assert "table1" in captured.err    # the listing helps
