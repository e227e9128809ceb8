"""The public API surface: imports, __all__, and the quickstart path.

A downstream user's first contact is ``from repro import ...``; these
tests pin that surface so refactors cannot silently break it.
"""

import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main

#: The solver stack: what a command that solves no game must not load.
HEAVY = frozenset({"numpy", "scipy"})


class TestTopLevelSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_names_are_their_home_module_objects(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert name in listed, name
            if name == "__version__":
                continue
            value = getattr(repro, name)
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(repro.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "no_such_name")

    def test_quickstart_path(self):
        """The README quickstart must run as written."""
        switch = repro.FairShareAllocation()
        users = [repro.LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        eq = repro.solve_nash(switch, users)
        assert eq.converged
        assert eq.rates.shape == (3,)

    def test_discipline_names(self):
        for name in ("fifo", "fair-share", "priority", "separable",
                     "pivot"):
            allocation = repro.make_discipline(name)
            assert hasattr(allocation, "congestion")


class TestSubpackageImports:
    @pytest.mark.parametrize("module", [
        "repro.numerics",
        "repro.queueing",
        "repro.disciplines",
        "repro.users",
        "repro.game",
        "repro.costsharing",
        "repro.network",
        "repro.sim",
        "repro.experiments",
        "repro.cli",
    ])
    def test_importable(self, module):
        assert importlib.import_module(module) is not None

    def test_subpackage_all_resolve(self):
        for module_name in ("repro.queueing", "repro.disciplines",
                            "repro.users", "repro.game", "repro.sim",
                            "repro.network", "repro.costsharing"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)


class TestNarrativeIntegration:
    """The paper's storyline end to end through the public API."""

    @pytest.mark.slow
    def test_analytic_equilibrium_survives_packet_reality(self):
        """Solve the FS Nash analytically, then run the real ladder at
        those rates: the measured congestion must match what the users
        bargained for, closing the theory-practice loop."""
        from repro.sim.runner import SimulationConfig, simulate

        switch = repro.FairShareAllocation()
        users = [repro.PowerUtility(gamma=0.5, q=1.5),
                 repro.PowerUtility(gamma=1.2, q=1.5)]
        eq = repro.solve_nash(switch, users)
        sim = simulate(SimulationConfig(
            rates=eq.rates, policy="fair-share", horizon=60000.0,
            warmup=3000.0, seed=21))
        assert np.allclose(sim.mean_queues, eq.congestion, rtol=0.15)
        # Measured utilities at the operating point match the analytic
        # equilibrium utilities.
        for i, user in enumerate(users):
            measured = user.value(float(sim.throughputs[i]),
                                  float(sim.mean_queues[i]))
            assert measured == pytest.approx(float(eq.utilities[i]),
                                             abs=0.02)


def _perfbench_module(name):
    """A module of the repository benchmark, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _RecordingTracer:
    """Records what a layer installer would wrap, wraps nothing."""

    def __init__(self):
        self.functions = []
        self.methods = []

    def patch_function(self, module, attr, **_):
        self.functions.append((module, attr))

    def patch_method(self, cls, attr, **_):
        self.methods.append((cls, attr))


class TestBenchmarkFacingSurface:
    """What ``perfbench`` calls and wraps in ``repro.game`` and
    ``repro.staticcheck``.

    The benchmark's ``nash`` workload calls the four solver entry points
    with the keywords below and reads the fields below, its
    ``check-cold`` workload calls ``run_checks`` the way below, and its
    traced passes wrap functions and methods by name.  A change that
    drops any of them breaks the benchmark, so it fails here first.
    """

    def test_solver_keywords_and_fields(self):
        from repro.game.classes import (solve_nash_classes,
                                        solve_nash_classes_fdc)
        from repro.game.meanfield import solve_nash_meanfield
        from repro.game.nash import solve_nash

        allocation = repro.make_discipline("fair-share")
        utilities = [repro.PowerUtility(gamma=1.0, a=w / np.sqrt(20),
                                        p=0.5, q=1.0) for w in (1.2, 1.7)]
        counts = [10, 10]
        per_user = [u for u, m in zip(utilities, counts) for _ in range(m)]
        seeded = solve_nash_classes(allocation, utilities, counts=counts,
                                    tol=1e-9, max_iter=300)
        results = [
            solve_nash(allocation, per_user),
            seeded,
            solve_nash_classes_fdc(allocation, utilities, counts=counts,
                                   r0=seeded.class_rates),
            solve_nash_meanfield(allocation, utilities, counts=counts),
        ]
        for result in results:
            rates = getattr(result, "class_rates", None)
            if rates is None:
                rates = result.rates
            row = (bool(result.converged), int(result.iterations),
                   float(result.max_gain),
                   float(getattr(result, "spot_gain", 0.0)),
                   [float(r) for r in rates])
            assert row[0] and row[1] >= 1
            assert all(map(math.isfinite, row[2:4]))
            assert len(row[4]) in (2, 20) and min(row[4]) > 0.0

    def test_traced_game_names_resolve(self):
        tracer = _RecordingTracer()
        _perfbench_module("tracing").install_game_layers(tracer, [])
        assert len(tracer.functions) >= 8
        for owner, name in tracer.functions:
            assert callable(getattr(owner, name, None)), (owner, name)

    def test_check_cold_keywords_and_fields(self, tmp_path):
        from repro.staticcheck import run_checks

        module = tmp_path / "src" / "repro" / "sim" / "planted.py"
        module.parent.mkdir(parents=True)
        module.write_text("import random\n")
        result = run_checks([tmp_path / "src"],
                            project_root=tmp_path, jobs=1, cache=True,
                            cache_dir=tmp_path / "check-cache")
        rows = sorted([f.rule_id, f.path, f.line, f.message]
                      for f in result.findings)
        assert result.files_checked == 1
        assert rows == [["GW003", "src/repro/sim/planted.py", 1,
                         "stdlib 'random' is banned; take a "
                         "numpy.random.Generator parameter instead"]]

    def test_traced_staticcheck_names_resolve(self):
        from repro.staticcheck import all_rules

        tracer = _RecordingTracer()
        _perfbench_module("tracing").install_staticcheck_layers(tracer)
        assert len(tracer.functions) >= 1
        assert len(tracer.methods) >= 8 + len(all_rules())
        for owner, name in tracer.functions + tracer.methods:
            assert callable(getattr(owner, name, None)), (owner, name)


def _heavy_imports(args, cwd):
    """Run ``python -X importtime *args`` in a fresh interpreter on this
    checkout; its exit code, stdout and the :data:`HEAVY` packages it
    imported."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    imported = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, imported & HEAVY


@pytest.fixture
def planted_tree(tmp_path):
    """A one-module project with one GW003 finding."""
    module = tmp_path / "src" / "repro" / "sim" / "planted.py"
    module.parent.mkdir(parents=True)
    module.write_text("import random\n")
    return tmp_path


class TestImportBoundary:
    """A command loads only the layers it runs: the checker and the
    simulator never load the equilibrium solvers (scipy), the sweep
    loads no game or experiment registry module, and the checker,
    ``--help`` and ``explain`` load no numpy either."""

    def test_check_loads_no_numerics(self, planted_tree):
        code, out, heavy = _heavy_imports(
            ["-c", "from repro.staticcheck import run_checks; "
                   "print(len(run_checks(['src']).findings))"],
            planted_tree)
        assert (code, out, heavy) == (0, "1\n", set())

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["check", "src", "--stats", "--cache-dir", "check-cache"],
        ["explain", "GW001"],
    ], ids=["help", "check", "explain"])
    def test_cli_commands_load_no_numerics(self, planted_tree, argv):
        code, out, heavy = _heavy_imports(["-m", "repro", *argv],
                                          planted_tree)
        assert code == (1 if argv[0] == "check" else 0)
        assert out
        assert heavy == set()

    def test_sweep_parent_loads_no_scipy(self, tmp_path):
        # Nor the game layer or the experiment registry (which imports
        # every experiment), through the report's plot helper.
        code, out, heavy = _heavy_imports(
            ["-c", "import sys, repro.sim.kernels, repro.sweep, "
                   "repro.sweep.scheduler; print(sorted(m for m in "
                   "sys.modules if m.startswith(('repro.game', "
                   "'repro.experiments.registry'))))"],
            tmp_path)
        assert (code, out) == (0, "[]\n")
        assert "scipy" not in heavy

    def test_tandem_rejects_an_unsharded_policy(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tandem", "--rates", "0.2", "0.3",
                  "--policies", "fifo", "lifo"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        message = "argument --policies: invalid choice: 'lifo' (choose from "
        assert message in err
        choices = err.split(message, 1)[1]
        assert "fifo" in choices and "fair-share" in choices
