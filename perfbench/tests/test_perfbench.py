"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The sweep workloads run here on the small ``smoke`` catalog and the
nash workload on one population size, so the tests exercise the same
code paths as the benchmark in seconds rather than minutes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for entry in (str(BENCH), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Scratch dirs and cache settings that are undone after the test."""
    from repro.sim import cache as sim_cache
    from repro.sim import kernels
    from repro.sweep import journal

    for name in (sim_cache.ENV_DIR, journal.ENV_DIR,
                 kernels.ENV_KERNEL_DIR):
        monkeypatch.setenv(name, str(tmp_path / "unused"))
    yield tmp_path
    sim_cache.set_enabled(None)


def small(workload_cls, seed, scratch, monkeypatch):
    """A workload instance on a reduced input of the same shape."""
    monkeypatch.setattr(workloads, "NASH_SIZES", (4,))
    monkeypatch.setattr(workloads, "LARGE_N", 1000)
    workload = workload_cls(seed, str(scratch), 1, 1)
    if isinstance(workload, workloads.SweepCold):
        from repro.sweep import builtin_catalog
        from repro.sweep.catalog import Catalog

        smoke = builtin_catalog("smoke")
        workload.catalog = Catalog(
            name=smoke.name,
            cells=[replace(cell, seed=seed) for cell in smoke.cells])
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, isolated,
                                                    monkeypatch):
    workload = small(workloads.WORKLOADS[name], 7, isolated, monkeypatch)
    try:
        workload.setup(0)
        tracer = tracing.Tracer()
        untraced, traced, extra = workload.trace_run(tracer)
        assert not tracer.installed
        assert tracer.spans
        outputs = {workloads.canonical(p["output"])
                   for p in untraced + traced}
        assert len(outputs) == 1
        attempted, failed = workload.check(untraced + traced)
        assert attempted > 0 and failed == 0
        assert "trace.overhead_frac" in extra
    finally:
        workload.close()


def test_wrappers_are_removed_after_a_traced_pass(isolated, monkeypatch):
    from repro.sim import runner
    from repro.sweep import scheduler

    before = (runner.SimulationEngine.run_to, scheduler.warm_outcome,
              scheduler.simulate_to_precision)
    workload = small(workloads.SweepCold, 3, isolated, monkeypatch)
    try:
        workload.setup(0)
        workload.trace_run(tracing.Tracer())
    finally:
        workload.close()
    after = (runner.SimulationEngine.run_to, scheduler.warm_outcome,
             scheduler.simulate_to_precision)
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_two_seeds_give_different_inputs(isolated, monkeypatch):
    sweeps = [small(workloads.SweepCold, seed, isolated, monkeypatch)
              for seed in (1, 2)]
    assert ({cell.key() for cell in sweeps[0].catalog.cells}
            .isdisjoint(cell.key() for cell in sweeps[1].catalog.cells))
    nash = [workloads.Nash(seed, str(isolated), 1, 1) for seed in (1, 2)]

    def gammas(workload):
        return [u.gamma for _kind, _name, utilities in workload.inputs(0)
                for u in utilities if hasattr(u, "gamma")
                and type(u).__name__ == "LinearUtility"]

    assert gammas(nash[0]) != gammas(nash[1])
    assert corpus.plan(1) != corpus.plan(2)


def test_same_seed_gives_the_same_inputs():
    assert corpus.plan(5) == corpus.plan(5)
    one, two = (workloads.Nash(5, "", 1, 1) for _ in range(2))
    assert repr(one.inputs(2)) == repr(two.inputs(2))


def test_planted_violations_are_exactly_reported(tmp_path):
    from repro.staticcheck import run_checks

    expected, lines = corpus.materialize(str(tmp_path), 11)
    # A later set-up rewrites the same tree in place.
    assert corpus.materialize(str(tmp_path), 11) == (expected, lines)
    assert len(expected) == corpus.PLANTS_PER_SEED
    result = run_checks([tmp_path / "src"], project_root=tmp_path)
    found = {(f.rule_id, f.path, f.line) for f in result.findings}
    assert found == expected
    assert lines == sum(path.read_bytes().count(b"\n")
                        for root in corpus.ROOTS
                        for path in (tmp_path / root).rglob("*.py"))


def test_every_end_to_end_metric_is_computed_by_every_workload(
        isolated, monkeypatch):
    for name, cls in sorted(workloads.WORKLOADS.items()):
        workload = small(cls, 4, isolated / name, monkeypatch)
        os.makedirs(isolated / name, exist_ok=True)
        try:
            workload.setup(0)
            metrics = workload.end_to_end([workload.run_pass(0)])
        finally:
            workload.close()
        assert set(metrics) | {"setup_s", "peak_rss_mb"} == set(END_TO_END)
        for metric, value in metrics.items():
            assert value > 0, (name, metric)


def test_every_per_layer_metric_is_computed():
    assert set(tracing.layer_metrics([], {})) == set(PER_LAYER)


def test_host_speed_block_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        deadline = time.perf_counter() + 3.5 * hostspeed.PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= hostspeed.MIN_PROBES
    assert host.factor > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nash",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("row ") for line in lines)


def test_command_refuses_outside_a_repository(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nash",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
