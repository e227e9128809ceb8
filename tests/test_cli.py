"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "t8_protection" in out


class TestNash:
    def test_solves_and_prints(self, capsys):
        code = main(["nash", "--gammas", "0.2", "0.5",
                     "--discipline", "fair-share"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Nash equilibrium under fair-share" in out
        assert "converged: True" in out

    def test_fifo_alias(self, capsys):
        assert main(["nash", "--gammas", "0.3", "0.3",
                     "--discipline", "fifo"]) == 0


class TestSimulate:
    def test_short_simulation(self, capsys):
        code = main(["simulate", "--rates", "0.2", "0.3",
                     "--policy", "fifo", "--horizon", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=fifo" in out

    def test_fair_share_policy(self, capsys):
        code = main(["simulate", "--rates", "0.1", "0.2",
                     "--policy", "fair-share", "--horizon", "2000"])
        assert code == 0

    def test_precision_mode(self, capsys):
        code = main(["simulate", "--rates", "0.1", "0.2",
                     "--horizon", "4000",
                     "--target-halfwidth", "0.08"])
        out = capsys.readouterr().out
        assert code == 0
        assert "target-halfwidth=0.08" in out
        assert "schedule:" in out and "achieved: True" in out

    def test_single_replication_ci_is_na(self, capsys):
        code = main(["simulate", "--rates", "0.1", "0.2",
                     "--horizon", "2000", "--replications", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a" in out
        assert "nan" not in out

    def test_pooled_replications(self, capsys):
        code = main(["simulate", "--rates", "0.1", "0.2",
                     "--horizon", "2000", "--replications", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replications=3" in out
        assert "n/a" not in out


class TestRun:
    @pytest.mark.slow
    def test_single_experiment(self, capsys):
        code = main(["run", "t7_dynamics", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out


class TestArgumentErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["fix", "src"], ["check", "--fix"], ["check", "--diff"],
        ["check", "--baseline", "b.json"], ["check", "--update-baseline"],
        ["check", "--list-rules"], ["check", "-j", "2"],
        ["check", "--jobs", "0"],
        ["simulate", "--rates", "0.2", "--backend", "scalar"]])
    def test_removed_check_surface_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestProtect:
    def test_fs_protective(self, capsys):
        code = main(["protect", "--rate", "0.1", "--users", "3",
                     "--samples", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Protection of a rate-0.1 user" in out
        assert "yes" in out

    def test_fifo_not_protective(self, capsys):
        code = main(["protect", "--rate", "0.1", "--users", "2",
                     "--discipline", "fifo", "--samples", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no" in out


class TestTandem:
    def test_runs(self, capsys):
        code = main(["tandem", "--rates", "0.2", "0.3",
                     "--horizon", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tandem fifo -> fifo" in out

    def test_mixed_policies(self, capsys):
        code = main(["tandem", "--rates", "0.1", "0.2",
                     "--policies", "fifo", "fair-share",
                     "--horizon", "3000"])
        assert code == 0


class TestExplainCatalog:
    def test_no_argument_lists_every_rule(self, capsys):
        from repro.staticcheck import all_rules

        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out

    def test_catalog_shows_rule_families(self, capsys):
        main(["explain"])
        lines = capsys.readouterr().out.splitlines()
        by_id = {line.split()[0]: line for line in lines if line}
        assert "contracts" in by_id["GW003"]
        assert "perf" in by_id["GW105"]
        assert "parallel-safety" in by_id["GW601"]
