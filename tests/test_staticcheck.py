"""The static-analysis suite: per-rule fixtures and the repo self-check.

Each rule gets three fixtures: code that must pass, code that must fail
(with the right rule id and location), and the same failing code made
clean by a ``# greedwork: ignore[...]`` pragma.  A seeded-violation run
copies the real tree, plants one violation per registered rule, and
asserts the analyzer reports exactly the planted set — so every rule
is shown to fire on the real tree and the rest of the tree to be clean.
"""

import ast
import gc
import json
import shutil
import textwrap
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import (
    CheckUsageError,
    FileContext,
    all_rules,
    collect_files,
    get_rule,
    render_sarif,
    run_checks,
    select_rules,
)
from repro.staticcheck.core import ALL_RULES, _PRAGMA, Rule, module_name_for
from repro.staticcheck.project import _statements
from repro.staticcheck.rules.layers import package_of
from repro.staticcheck.runner import _run_file_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
REPO_TESTS = REPO_ROOT / "tests"
#: The roots CI checks (``make check``).
CHECK_ROOTS = ("src", "tests", "benchmarks", "examples")
SARIF_SUBSET_SCHEMA = (Path(__file__).resolve().parent / "data"
                       / "sarif-2.1.0-subset.json")

ALL_RULE_IDS = [
    "GW001", "GW002", "GW003",
    "GW105", "GW106", "GW107",
    "GW201", "GW202",
    "GW302", "GW303",
    "GW401", "GW402", "GW403",
    "GW501", "GW502", "GW503",
    "GW601", "GW602", "GW604",
]


def write_module(root: Path, relpath: str, source: str) -> Path:
    """Write a dedented module (and parents) under ``root``."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def findings_for(path: Path, rule_id: str, root=None):
    result = run_checks([path], rules=[get_rule(rule_id)],
                        project_root=root)
    return result


class TestFramework:
    def test_all_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ALL_RULE_IDS

    def test_unknown_rule_id(self):
        with pytest.raises(KeyError):
            get_rule("GW999")

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = write_module(tmp_path, "broken.py", "def f(:\n")
        result = run_checks([bad])
        assert len(result.findings) == 1
        assert result.findings[0].rule_id == "GW000"

    def test_suppression_comma_list_and_star(self, tmp_path):
        source = """\
            import numpy as np
            rng = np.random.default_rng(3)  # greedwork: ignore[GW003, GW501]
            x = np.random.default_rng(4)  # greedwork: ignore[*]
            y = np.random.default_rng(5)  # greedwork: ignore
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 3

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        source = """\
            import numpy as np
            # greedwork: ignore[GW003]
            rng = np.random.default_rng(3)
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = """\
            import numpy as np
            rng = np.random.default_rng(3)  # greedwork: ignore[GW501]
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1

    def test_standalone_pragma_skips_blank_and_comment_lines(self, tmp_path):
        source = """\
            import numpy as np

            # greedwork: ignore[GW003] -- module-level demo generator
            # (reused by every helper below, seeded for reproducibility)

            rng = np.random.default_rng(3)
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_unparseable_file_context_is_usable(self, tmp_path):
        path = tmp_path / "broken.py"
        source = "def f(:\n    pass\n"
        path.write_text(source)
        ctx = FileContext(path, source)
        assert ctx.tree is None
        assert isinstance(ctx.parse_error, SyntaxError)
        assert ctx.suppressed_ids(1) == frozenset()

    def test_broken_file_does_not_abort_the_run(self, tmp_path):
        write_module(tmp_path, "broken.py", "def f(:\n")
        write_module(tmp_path, "bad.py", "import random\n")
        result = run_checks([tmp_path])
        assert sorted(f.rule_id for f in result.findings) == \
            ["GW000", "GW003"]
        assert result.files_checked == 2

    def test_collect_files_missing_path_errors(self, tmp_path):
        with pytest.raises(CheckUsageError, match="no such file"):
            collect_files([tmp_path / "nope.py"])

    def test_collect_files_rejects_non_python(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("hello\n")
        with pytest.raises(CheckUsageError,
                           match="unsupported file type"):
            collect_files([notes])

    def test_select_rules_by_family_prefix(self):
        rules = select_rules(all_rules(), select=["GW1"])
        assert [r.rule_id for r in rules] == ["GW105", "GW106", "GW107"]

    def test_select_rules_normalizes_family_suffix(self):
        rules = select_rules(all_rules(), select=["GW2xx"])
        assert [r.rule_id for r in rules] == ["GW201", "GW202"]

    def test_select_rules_ignore_wins(self):
        rules = select_rules(all_rules(), select=["GW1"],
                             ignore=["GW106"])
        assert [r.rule_id for r in rules] == ["GW105", "GW107"]

    def test_select_rules_unknown_selector_raises(self):
        with pytest.raises(KeyError):
            select_rules(all_rules(), select=["GW9"])

    def test_module_name_for_maps_repro_paths(self):
        assert module_name_for(
            Path("/tmp/tree/src/repro/game/nash.py")) == "repro.game.nash"
        assert module_name_for(
            Path("/tmp/tree/src/repro/game/__init__.py")) == "repro.game"
        assert module_name_for(Path("/tmp/elsewhere/mod.py")) is None

    def test_package_of_layers(self):
        assert package_of("repro.queueing.mm1") == "queueing"
        assert package_of("repro.cli") == "cli"
        assert package_of("repro") == "<root>"
        assert package_of("numpy.linalg") is None


class TestLayerDAG:
    """GW001."""

    def test_downward_import_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/thing.py", """\
            from repro.numerics.diff import gradient
            from repro.disciplines.base import AllocationFunction
            from repro.users.utility import Utility
        """)
        assert findings_for(path, "GW001").findings == []

    def test_upward_import_fails_with_location(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            import math

            from repro.experiments.base import Table
        """)
        result = findings_for(path, "GW001", root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule_id == "GW001"
        assert finding.line == 3
        assert finding.path.endswith("src/repro/queueing/bad.py")
        assert "experiments" in finding.message

    def test_undeclared_same_layer_edge_fails(self, tmp_path):
        # sim -> network is not a declared intra-layer edge
        # (network -> sim is).
        path = write_module(tmp_path, "src/repro/sim/bad.py", """\
            from repro.network.model import Network
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1

    def test_declared_same_layer_edge_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/network/ok.py", """\
            from repro.sim.packet import Packet
        """)
        assert findings_for(path, "GW001").findings == []

    def test_relative_import_resolved(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            from ..experiments import base
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1
        assert "experiments" in result.findings[0].message

    def test_unknown_package_is_rejected(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad3.py", """\
            from repro.shinynewpkg.core import thing
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/hmm.py", """\
            from repro.experiments.base import Table  # greedwork: ignore[GW001]
        """)
        result = findings_for(path, "GW001")
        assert result.findings == []
        assert len(result.suppressed) == 1


GOOD_DISCIPLINE = """\
    import numpy as np

    from repro.disciplines.base import AllocationFunction


    class NiceAllocation(AllocationFunction):
        name = "nice"

        def __init__(self, curve=None, bias: float = 0.0) -> None:
            super().__init__(curve)
            self.bias = bias

        def congestion(self, rates):
            return np.asarray(rates, dtype=float)
"""

BASE_STUB = """\
    from abc import ABC, abstractmethod


    class AllocationFunction(ABC):
        name: str = "allocation"

        @abstractmethod
        def congestion(self, rates):
            ...
"""


class TestDisciplineContract:
    """GW002."""

    def _tree(self, tmp_path, registry_src, discipline_src=GOOD_DISCIPLINE):
        write_module(tmp_path, "src/repro/disciplines/base.py", BASE_STUB)
        write_module(tmp_path, "src/repro/disciplines/nice.py",
                     discipline_src)
        return write_module(tmp_path, "src/repro/disciplines/registry.py",
                            registry_src)

    def test_conforming_registry_passes(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {
                "nice": NiceAllocation,
                "biased": lambda: NiceAllocation(bias=0.5),
            }
        """)
        assert findings_for(registry, "GW002").findings == []

    def test_unresolvable_name_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            _FACTORIES = {"ghost": GhostAllocation}
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "cannot resolve" in result.findings[0].message

    def test_missing_congestion_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "congestion" in result.findings[0].message

    def test_wrong_congestion_signature_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"

                def congestion(self, rates, extra):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "exactly one required parameter" in \
            result.findings[0].message

    def test_not_subclassing_base_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            class NiceAllocation:
                name = "nice"

                def congestion(self, rates):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert any("subclass" in f.message for f in result.findings)

    def test_required_init_param_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"

                def __init__(self, gamma):
                    self.gamma = gamma

                def congestion(self, rates):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "zero-argument" in result.findings[0].message

    def test_lambda_with_unknown_kwarg_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {
                "odd": lambda: NiceAllocation(nonexistent=1),
            }
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "no parameter 'nonexistent'" in result.findings[0].message

    def test_instance_name_attribute_accepted(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                def __init__(self, flip: bool = True) -> None:
                    self.name = "nice-up" if flip else "nice-down"

                def congestion(self, rates):
                    return rates
        """)
        assert findings_for(registry, "GW002").findings == []

    def test_suppressible(self, tmp_path):
        registry = self._tree(tmp_path, """\
            _FACTORIES = {
                "ghost": GhostAllocation,  # greedwork: ignore[GW002]
            }
        """)
        result = findings_for(registry, "GW002")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_real_registry_conforms(self):
        registry = REPO_SRC / "repro" / "disciplines" / "registry.py"
        result = findings_for(registry, "GW002")
        assert result.findings == []

    def test_undecodable_discipline_module_is_reported(self, tmp_path,
                                                      capsys):
        # One Latin-1 byte in the module a registered class comes from:
        # the module itself is a GW000, the registry entry a GW002, and
        # the run goes on instead of aborting on the decode error.
        self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """)
        nice = tmp_path / "src/repro/disciplines/nice.py"
        nice.write_bytes(b"# caf\xe9\n" + nice.read_bytes())
        result = run_checks([tmp_path / "src"], project_root=tmp_path)
        found = {(f.rule_id, f.path) for f in result.findings}
        assert ("GW000", "src/repro/disciplines/nice.py") in found
        assert ("GW002", "src/repro/disciplines/registry.py") in found
        entry = [f for f in result.findings if f.rule_id == "GW002"]
        assert len(entry) == 1 and entry[0].line == 3
        assert "cannot read nice.py" in entry[0].message
        assert cli_main(["check", "--no-cache", str(tmp_path / "src")]) == 1
        assert "GW002" in capsys.readouterr().out


class TestRNGDiscipline:
    """GW003."""

    def test_generator_parameter_passes(self, tmp_path):
        path = write_module(tmp_path, "ok.py", """\
            import numpy as np

            from repro.numerics.rng import default_rng


            def sample(n, rng=None):
                generator = default_rng(rng if rng is not None else 7)
                return generator.uniform(size=n)
        """)
        assert findings_for(path, "GW003").findings == []

    def test_stdlib_random_fails(self, tmp_path):
        path = write_module(tmp_path, "bad.py", """\
            import random
        """)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1
        assert result.findings[0].line == 1
        assert "stdlib" in result.findings[0].message

    def test_from_random_import_fails(self, tmp_path):
        path = write_module(tmp_path, "bad2.py", """\
            from random import shuffle
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_legacy_global_state_fails(self, tmp_path):
        path = write_module(tmp_path, "bad3.py", """\
            import numpy as np

            np.random.seed(42)
            x = np.random.uniform(0, 1, 10)
        """)
        result = findings_for(path, "GW003")
        assert [f.line for f in result.findings] == [3, 4]
        assert all(f.rule_id == "GW003" for f in result.findings)

    def test_raw_default_rng_fails_even_with_variable_seed(self, tmp_path):
        path = write_module(tmp_path, "bad4.py", """\
            import numpy as np


            def run(seed):
                return np.random.default_rng(seed)
        """)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1
        assert "repro.numerics.default_rng" in result.findings[0].message

    def test_aliased_numpy_detected(self, tmp_path):
        path = write_module(tmp_path, "bad5.py", """\
            import numpy as xyz

            rng = xyz.random.default_rng(0)
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_bare_default_rng_import_detected(self, tmp_path):
        path = write_module(tmp_path, "bad6.py", """\
            from numpy.random import default_rng

            rng = default_rng(0)
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_generator_annotation_not_flagged(self, tmp_path):
        path = write_module(tmp_path, "ok2.py", """\
            from typing import Optional

            import numpy as np


            def sample(rng: Optional[np.random.Generator] = None):
                return rng
        """)
        assert findings_for(path, "GW003").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "meh.py", """\
            import numpy as np

            rng = np.random.default_rng(0)  # greedwork: ignore[GW003]
        """)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestScalarCandidateScan:
    """GW105."""

    def test_candidate_scan_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/bad.py", """\
            import numpy as np


            def scan(allocation, rates, i, xs):
                base = np.array(rates, dtype=float)
                out = np.empty(len(xs))
                for k, x in enumerate(xs):
                    base[i] = x
                    out[k] = allocation.congestion_i(base, i)
                return out
        """)
        result = findings_for(path, "GW105")
        assert len(result.findings) == 1
        assert "congestion_grid" in result.findings[0].message

    def test_per_user_sweep_passes(self, tmp_path):
        # Gauss-Seidel style: the *user index* is the loop variable, so
        # no single congestion_grid call covers the iterations.
        path = write_module(tmp_path, "src/repro/game/ok.py", """\
            import numpy as np


            def sweep(allocation, rates):
                r = np.asarray(rates, dtype=float).copy()
                for i in range(r.size):
                    r[i] = r[i] + allocation.congestion_i(r, i)
                return r
        """)
        assert findings_for(path, "GW105").findings == []

    def test_rebound_vector_passes(self, tmp_path):
        # Better-reply learners rebind the whole rate vector per step
        # and draw a fresh user index: not a candidate scan.
        path = write_module(tmp_path, "src/repro/game/ok2.py", """\
            import numpy as np


            def learn(allocation, r0, generator, n_steps):
                r = np.asarray(r0, dtype=float).copy()
                for _ in range(n_steps):
                    i = int(generator.integers(0, r.size))
                    current = allocation.congestion_i(r, i)
                    probe = r.copy()
                    probe[i] = current
                    if allocation.congestion_i(probe, i) < current:
                        r = probe
                return r
        """)
        assert findings_for(path, "GW105").findings == []

    def test_outside_game_layer_passes(self, tmp_path):
        # The generic congestion_grid *fallback* in disciplines/ is
        # exactly this loop; the rule only polices the game layer.
        path = write_module(tmp_path, "src/repro/disciplines/ok.py", """\
            import numpy as np


            def scan(allocation, rates, i, xs):
                base = np.array(rates, dtype=float)
                out = np.empty(len(xs))
                for k, x in enumerate(xs):
                    base[i] = x
                    out[k] = allocation.congestion_i(base, i)
                return out
        """)
        assert findings_for(path, "GW105").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/meh.py", """\
            import numpy as np


            def scan(allocation, rates, i, xs):
                base = np.array(rates, dtype=float)
                out = np.empty(len(xs))
                for k, x in enumerate(xs):
                    base[i] = x
                    # greedwork: ignore[GW105] -- scalar fallback oracle
                    out[k] = allocation.congestion_i(base, i)
                return out
        """)
        result = findings_for(path, "GW105")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestFixedHorizonSimulate:
    """GW106."""

    def test_direct_simulate_in_experiment_fails(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/experiments/bad.py", """\
                from repro.sim.runner import SimulationConfig, simulate


                def run(seed=0):
                    return simulate(SimulationConfig(
                        rates=[0.1], policy="fifo", horizon=50000.0,
                        warmup=2500.0, seed=seed))
        """)
        result = findings_for(path, "GW106")
        assert len(result.findings) == 1
        assert "simulate_to_precision" in result.findings[0].message

    def test_attribute_call_flagged(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/experiments/bad2.py", """\
                from repro.sim import runner


                def run(config):
                    return runner.simulate(config)
        """)
        assert len(findings_for(path, "GW106").findings) == 1

    def test_precision_call_passes(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/experiments/ok.py", """\
                from repro.sim.runner import simulate_to_precision


                def run(config):
                    return simulate_to_precision(
                        config, target_halfwidth=0.05)
        """)
        assert findings_for(path, "GW106").findings == []

    def test_outside_experiments_passes(self, tmp_path):
        # The sim layer itself (and benchmarks, tests, examples) may
        # run fixed horizons freely.
        path = write_module(tmp_path, "src/repro/sim/ok.py", """\
            from repro.sim.runner import simulate


            def warm(config):
                return simulate(config)
        """)
        assert findings_for(path, "GW106").findings == []

    def test_suppressible_with_justification(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/experiments/meh.py", """\
                from repro.sim.runner import SimulationConfig, simulate


                def run(config):
                    # greedwork: ignore[GW106] -- divergence claim;
                    # no CI target exists at rho > 1.
                    return simulate(config)
        """)
        result = findings_for(path, "GW106")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestPerUserLoopInClassSpace:
    """GW107 — per-user API loops in the O(K) class-space modules."""

    def test_per_user_loop_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/classes.py", """\
            import numpy as np


            def certify(allocation, utilities, expanded):
                worst = -np.inf
                for i, utility in enumerate(utilities):
                    gain = utility_improvement(allocation, utility,
                                               expanded, i)
                    worst = max(worst, gain)
                return worst
        """)
        result = findings_for(path, "GW107")
        assert len(result.findings) == 1
        assert "utility_improvement" in result.findings[0].message

    def test_finding_anchors_at_outer_loop(self, tmp_path):
        # A nested loop reports once, at the outermost ``for`` — so a
        # single pragma above the nest covers the whole certification
        # block (the shape a per-user spot-check loop takes).
        path = write_module(tmp_path, "src/repro/game/meanfield.py", """\
            def spot(allocation, utilities, expanded, per_class):
                worst = 0.0
                for k, utility in enumerate(utilities):
                    for j in range(per_class):
                        gain = utility_improvement(
                            allocation, utility, expanded, k + j)
                        worst = max(worst, gain)
                return worst
        """)
        result = findings_for(path, "GW107")
        assert len(result.findings) == 1
        assert result.findings[0].line == 3

    def test_class_space_calls_pass(self, tmp_path):
        # O(K) work through the class-space API is the point of the
        # module; only the per-user surface is banned.
        path = write_module(tmp_path, "src/repro/game/classes.py", """\
            import numpy as np


            def gains(allocation, utilities, class_rates, counts):
                out = np.empty(len(utilities))
                for k, utility in enumerate(utilities):
                    out[k] = class_best_response(
                        allocation, utility, class_rates, counts, k).x
                return out
        """)
        assert findings_for(path, "GW107").findings == []

    def test_outside_class_space_modules_passes(self, tmp_path):
        # The per-user game layer loops over users by design.
        path = write_module(tmp_path, "src/repro/game/nash.py", """\
            def sweep(allocation, profile, rates):
                worst = 0.0
                for i, utility in enumerate(profile):
                    worst = max(worst, utility_improvement(
                        allocation, utility, rates, i))
                return worst
        """)
        assert findings_for(path, "GW107").findings == []

    def test_suppressible_with_justification(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/classes.py", """\
            def certify(allocation, utilities, expanded):
                worst = 0.0
                # greedwork: ignore[GW107] -- bounded spot check, one
                # user per class, never O(N).
                for i, utility in enumerate(utilities):
                    worst = max(worst, utility_improvement(
                        allocation, utility, expanded, i))
                return worst
        """)
        result = findings_for(path, "GW107")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestPoleDivision:
    """GW201 — the g(x) = x/(1-x) pole."""

    def test_unguarded_division_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            def g(load):
                return load / (1.0 - load)
        """)
        result = findings_for(path, "GW201")
        assert len(result.findings) == 1
        assert "1 - x" in result.findings[0].message
        assert "load" in result.findings[0].message

    def test_terminating_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok.py", """\
            import math


            def g(load):
                if load >= 1.0:
                    return math.inf
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_assert_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok2.py", """\
            def g(load):
                assert load < 1.0
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_guard_call_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok3.py", """\
            from repro.queueing.mm1 import require_stable


            def g(load):
                require_stable(load)
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_enclosing_conditional_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok4.py", """\
            import math


            def g(load):
                return load / (1.0 - load) if load < 1.0 else math.inf
        """)
        assert findings_for(path, "GW201").findings == []

    def test_vectorized_mask_guard_passes(self, tmp_path):
        # ``stable = loads < 1.0`` is the canonical numpy guard: the
        # mask binding dominates the masked division below it.
        path = write_module(tmp_path, "src/repro/queueing/ok5.py", """\
            import numpy as np


            def g(loads):
                stable = loads < 1.0
                out = np.full(loads.shape, np.inf)
                out[stable] = loads[stable] / (1.0 - loads[stable])
                return out
        """)
        assert findings_for(path, "GW201").findings == []

    def test_alias_through_assignment_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            def g(load):
                headroom = 1.0 - load
                return load / headroom
        """)
        result = findings_for(path, "GW201")
        assert len(result.findings) == 1
        assert result.findings[0].line == 3

    def test_guard_on_upstream_name_covers_derived_load(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok6.py", """\
            import math


            def g(total, service_rate):
                if total >= service_rate:
                    return math.inf
                rho = total / service_rate
                return rho / (1.0 - rho)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/meh.py", """\
            def g(load):
                return load / (1.0 - load)  # greedwork: ignore[GW201]
        """)
        result = findings_for(path, "GW201")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_guard_search_stops_at_the_scope(self, tmp_path):
        # ``inner`` is its own scope: the ``if`` around its definition
        # does not guard its body (it may run later, with any ``x``),
        # while the same expressions directly under the ``if`` are
        # guarded.  Pins GW201 and GW202 alike.
        path = write_module(tmp_path, "src/repro/queueing/nest.py", """\
            import math


            def outer(x):
                if x < 1.0:
                    def inner(y):
                        return y / (1.0 - x) + math.sqrt(y - x)
                    return inner, 2.0 / (1.0 - x) + math.sqrt(2.0 - x)
        """)
        result = run_checks([path], rules=[get_rule("GW201"),
                                           get_rule("GW202")],
                            project_root=tmp_path)
        assert [(f.rule_id, f.line) for f in result.findings] == \
            [("GW201", 7), ("GW202", 7)]


class TestDomainCall:
    """GW202."""

    def test_unguarded_sqrt_of_subtraction_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            import math


            def spread(a, b):
                return math.sqrt(a - b)
        """)
        result = findings_for(path, "GW202")
        assert len(result.findings) == 1
        assert "math.sqrt()" in result.findings[0].message

    def test_abs_wrapper_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok.py", """\
            import math


            def spread(a, b):
                return math.sqrt(abs(a - b))
        """)
        assert findings_for(path, "GW202").findings == []

    def test_clip_wrapper_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok2.py", """\
            import numpy as np


            def spread(a, b):
                return np.sqrt(np.clip(a - b, 0.0, None))
        """)
        assert findings_for(path, "GW202").findings == []

    def test_dominating_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok3.py", """\
            import math


            def spread(a, b):
                if a < b:
                    raise ValueError("a must dominate b")
                return math.sqrt(a - b)
        """)
        assert findings_for(path, "GW202").findings == []

    def test_log_of_subtraction_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            import numpy as np


            def slack(load):
                return np.log(1.0 - load)
        """)
        assert len(findings_for(path, "GW202").findings) == 1

    def test_plain_argument_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok4.py", """\
            import math


            def f(x):
                return math.sqrt(x)
        """)
        assert findings_for(path, "GW202").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/meh.py", """\
            import math


            def spread(a, b):
                return math.sqrt(a - b)  # greedwork: ignore[GW202]
        """)
        result = findings_for(path, "GW202")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestStatefulDiscipline:
    """GW302 (whole-program)."""

    def _tree(self, tmp_path, discipline_src):
        write_module(tmp_path, "src/repro/disciplines/base.py", BASE_STUB)
        return write_module(tmp_path, "src/repro/disciplines/impl.py",
                            discipline_src)

    def test_pure_discipline_passes(self, tmp_path):
        impl = self._tree(tmp_path, """\
            import numpy as np

            from repro.disciplines.base import AllocationFunction


            class PureAllocation(AllocationFunction):
                name = "pure"

                def congestion(self, rates):
                    return np.asarray(rates, dtype=float)
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_module_level_mutation_fails(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _CALLS = []


            class LoggingAllocation(AllocationFunction):
                name = "logging"

                def congestion(self, rates):
                    _CALLS.append(len(rates))
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "_CALLS" in result.findings[0].message
        assert "pure map" in result.findings[0].message

    def test_global_statement_fails(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _COUNT = 0


            class CountingAllocation(AllocationFunction):
                name = "counting"

                def congestion(self, rates):
                    global _COUNT
                    _COUNT += 1
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert len(result.findings) >= 1
        assert any("global" in f.message for f in result.findings)

    def test_non_allocation_methods_unconstrained(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _WARMED = []


            class WarmableAllocation(AllocationFunction):
                name = "warmable"

                def warm(self):
                    _WARMED.append(self.name)

                def congestion(self, rates):
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _CALLS = []


            class LoggingAllocation(AllocationFunction):
                name = "logging"

                def congestion(self, rates):
                    _CALLS.append(len(rates))  # greedwork: ignore[GW302]
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestStaleImport:
    """GW303 (whole-program)."""

    def _tree(self, tmp_path, importer_src, rel="benchmarks/bench.py"):
        write_module(tmp_path, "src/repro/__init__.py", "")
        write_module(tmp_path, "src/repro/numerics/__init__.py", "")
        write_module(tmp_path, "src/repro/numerics/helpers.py", """\
            from math import sqrt as root

            LIMIT = 3


            def kept(x):
                return x
        """)
        write_module(tmp_path, "src/repro/numerics/lazy.py", """\
            def __getattr__(name):
                return name
        """)
        write_module(tmp_path, "src/repro/numerics/starred.py", """\
            from repro.numerics.helpers import *
        """)
        path = write_module(tmp_path, rel, importer_src)
        return run_checks([path], rules=[get_rule("GW303")],
                          project_root=tmp_path)

    def test_deleted_names_are_flagged(self, tmp_path):
        result = self._tree(tmp_path, """\
            from repro.numerics.helpers import kept, removed
            from repro.numerics.helpers import (LIMIT,
                                                _private)
        """)
        assert [(f.line, f.message.split("'")[1])
                for f in result.findings] == [(1, "removed"),
                                              (2, "_private")]
        assert "repro.numerics.helpers does not define" in \
            result.findings[0].message

    def test_relative_import_inside_the_package(self, tmp_path):
        result = self._tree(tmp_path, """\
            from .helpers import gone
        """, rel="src/repro/numerics/user.py")
        assert len(result.findings) == 1
        assert "'gone'" in result.findings[0].message

    def test_bound_names_and_submodules_pass(self, tmp_path):
        result = self._tree(tmp_path, """\
            import numpy as np
            from numpy import not_a_numpy_name
            from repro.numerics import helpers, lazy
            from repro.numerics.helpers import LIMIT, kept, root
            from repro.numerics.lazy import anything
            from repro.numerics.starred import whatever
            from tests.oracles import missing
        """)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        result = self._tree(tmp_path, """\
            from repro.numerics.helpers import old  # greedwork: ignore[GW303]
        """)
        assert result.findings == []
        assert len(result.suppressed) == 1


QUEUES_STUB = """\
    import copy


    class QueuePolicy:
        def state_snapshot(self):
            return copy.deepcopy(self)
"""


class TestSnapshotCoverage:
    """GW401 (whole-program)."""

    def _policy_tree(self, tmp_path, impl_src):
        write_module(tmp_path, "src/repro/sim/queues.py", QUEUES_STUB)
        return write_module(tmp_path, "src/repro/sim/impl.py",
                            impl_src)

    def test_inherited_deepcopy_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class PlainQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []

                def push(self, item):
                    self._packets.append(item)
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_override_missing_attribute_fails(self, tmp_path):
        impl = self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class LeakyQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def push(self, item):
                    self._packets.append(item)

                def complete(self):
                    self._served += 1

                def state_snapshot(self):
                    clone = LeakyQueue()
                    clone._packets = list(self._packets)
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "_served" in result.findings[0].message
        assert result.findings[0].path.endswith("impl.py")

    def test_complete_override_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class CarefulQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def push(self, item):
                    self._packets.append(item)

                def complete(self):
                    self._served += 1

                def state_snapshot(self):
                    clone = CarefulQueue()
                    clone._packets = list(self._packets)
                    clone._served = self._served
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_whole_self_deepcopy_override_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            import copy

            from repro.sim.queues import QueuePolicy


            class CloningQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []

                def push(self, item):
                    self._packets.append(item)

                def state_snapshot(self):
                    return copy.deepcopy(self)
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_engine_snapshot_and_resume_gaps_fail(self, tmp_path):
        write_module(tmp_path, "src/repro/sim/miniengine.py", """\
            class MiniEngine:
                def __init__(self, horizon):
                    self.horizon = horizon
                    self.now = 0.0
                    self.count = 0

                def step(self):
                    self.now += 1.0
                    self.count += 1

                def snapshot(self):
                    return {"count": self.count,
                            "horizon": self.horizon}

                @classmethod
                def resume(cls, state):
                    engine = cls(state["horizon"])
                    engine.count = state["count"]
                    return engine
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert "MiniEngine.resume" in messages[0]
        assert "now" in messages[0]
        assert "MiniEngine.snapshot" in messages[1]
        assert "now" in messages[1]

    def test_suppressible_on_project_scope(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class LeakyQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def complete(self):
                    self._served += 1

                # greedwork: ignore[GW401] -- _served is recomputed
                def state_snapshot(self):
                    clone = LeakyQueue()
                    clone._packets = list(self._packets)
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


ENGINE_WITH_CARRIER = """\
    from dataclasses import dataclass


    @dataclass
    class CarrierState:
        now: float
        count: int


    class Engine:
        def __init__(self):
            self.now = 0.0
            self.count = 0

        def step(self):
            self.now += 1.0
            self.count += 1

        def snapshot(self):
            return CarrierState(now=self.now, count={count_expr})
"""


class TestEngineStatePickling:
    """GW402 (whole-program)."""

    def _tree(self, tmp_path, source):
        return write_module(tmp_path, "src/repro/sim/engine.py",
                            textwrap.dedent(source))

    def test_full_capture_passes(self, tmp_path):
        self._tree(tmp_path,
                   ENGINE_WITH_CARRIER.format(count_expr="self.count"))
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_uncaptured_attribute_fails(self, tmp_path):
        self._tree(tmp_path,
                   ENGINE_WITH_CARRIER.format(count_expr="0"))
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert "count" in finding.message
        assert "CarrierState" in finding.message

    def test_unknown_carrier_field_fails(self, tmp_path):
        source = ENGINE_WITH_CARRIER.format(
            count_expr="self.count, horizon=9.0")
        self._tree(tmp_path, source)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "'horizon'" in result.findings[0].message

    def test_suppressible(self, tmp_path):
        source = ENGINE_WITH_CARRIER.format(count_expr="0").replace(
            "            return CarrierState",
            "            # greedwork: ignore[GW402] -- count derived\n"
            "            return CarrierState")
        self._tree(tmp_path, source)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


CONFIG_STUB = """\
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class SimulationConfig:
        rates: tuple
        policy: str
        horizon: float
        seed: int
"""


class TestCacheKeyCompleteness:
    """GW403 (whole-program)."""

    def _tree(self, tmp_path, cache_src):
        write_module(tmp_path, "src/repro/sim/runner.py", CONFIG_STUB)
        return write_module(tmp_path, "src/repro/sim/cache.py",
                            cache_src)

    def test_fields_loop_passes(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def config_key(config, version):
                payload = {}
                for spec in fields(config):
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_explicit_reads_missing_field_fails(self, tmp_path):
        self._tree(tmp_path, """\
            def config_key(config, version):
                return repr((config.rates, config.policy, version))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        message = result.findings[0].message
        assert "horizon" in message and "seed" in message

    def test_fields_loop_skip_typo_fails(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def state_key(config, version):
                payload = {}
                for spec in fields(config):
                    if spec.name == "horzon":
                        continue
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "'horzon'" in result.findings[0].message

    def test_fields_loop_valid_skip_passes(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def state_key(config, version):
                payload = {}
                for spec in fields(config):
                    if spec.name == "horizon":
                        continue
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert result.findings == []


class TestVariateContract:
    """GW501."""

    def test_direct_traffic_draw_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def service_time(rng, mu):
                return float(rng.exponential(1.0 / mu))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert len(result.findings) == 1
        assert "VariateStream" in result.findings[0].message

    def test_loop_draw_from_shared_generator_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/network/mesh.py", """\
            def jitter(rng, users):
                out = []
                for _user in users:
                    out.append(rng.normal(0.0, 1.0))
                return out
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert len(result.findings) == 1
        assert "CRN pairing" in result.findings[0].message

    def test_arrivals_module_is_exempt(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/arrivals.py", """\
            def draw(rng, mean):
                return float(rng.exponential(mean))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []

    def test_game_layer_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/sampler.py", """\
            def sample(rng, n):
                return [rng.exponential(1.0) for _ in range(n)]
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def service_time(rng, mu):
                # greedwork: ignore[GW501] -- legacy pinned draw order
                return float(rng.exponential(1.0 / mu))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestOrderedAggregation:
    """GW502."""

    def test_sum_over_set_literal_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/agg.py", """\
            def total(weights):
                return sum(weights[u] for u in {"a", "b", "c"})
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "set-iteration" in result.findings[0].message

    def test_loop_accumulation_over_set_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/mix.py", """\
            def total(users, weights):
                acc = 0.0
                for u in set(users):
                    acc += weights[u]
                return acc
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1

    def test_sorted_set_iteration_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/mix.py", """\
            def total(users, weights):
                return sum(weights[u] for u in sorted(set(users)))
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []

    def test_unsorted_listing_fails_sorted_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/scan.py", """\
            import os


            def entries(root):
                return [name for name in os.listdir(root)]


            def entries_sorted(root):
                return sorted(os.listdir(root))
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "filesystem order" in result.findings[0].message
        assert result.findings[0].line == 5

    def test_wall_clock_in_numeric_layer_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/clock.py", """\
            import time


            def stamp():
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "wall-clock" in result.findings[0].message

    def test_wall_clock_in_presentation_layer_passes(self, tmp_path):
        path = write_module(tmp_path,
                            "src/repro/experiments/timing.py", """\
            import time


            def stamp():
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/clock.py", """\
            import time


            def stamp():
                # greedwork: ignore[GW502] -- diagnostic only
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestChunkedHotPath:
    """GW503."""

    def test_per_event_heap_loop_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            import heapq


            def drain(heap, tracker):
                while heap:
                    t, user = heapq.heappop(heap)
                    tracker.advance(t)
                    tracker.on_arrival(user)
        """)
        result = findings_for(path, "GW503", root=tmp_path)
        assert len(result.findings) == 1
        assert "per-event loop" in result.findings[0].message

    def test_per_iteration_draw_loop_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def gaps(stream, n):
                out = []
                for _ in range(n):
                    out.append(stream.draw())
                return out
        """)
        result = findings_for(path, "GW503", root=tmp_path)
        assert len(result.findings) == 1
        assert "peek_block" in result.findings[0].message

    def test_heap_loop_without_event_calls_passes(self, tmp_path):
        # A policy's internal heap maintenance is not an event loop.
        path = write_module(tmp_path, "src/repro/sim/policy2.py", """\
            import heapq


            def drain(heap):
                out = []
                while heap:
                    out.append(heapq.heappop(heap))
                return out
        """)
        result = findings_for(path, "GW503", root=tmp_path)
        assert result.findings == []

    def test_game_layer_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/walk.py", """\
            def walk(stream, n):
                return [stream.draw() for _ in range(n)]
        """)
        result = findings_for(path, "GW503", root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def gaps(stream, n):
                out = []
                # greedwork: ignore[GW503] -- scalar reference loop
                for _ in range(n):
                    out.append(stream.draw())
                return out
        """)
        result = findings_for(path, "GW503", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestWorkerSharedState:
    """GW601 (whole-program)."""

    def _tree(self, tmp_path, task_src):
        write_module(tmp_path, "src/repro/sim/workerpool.py", """\
            from multiprocessing import Pool

            from repro.sim.tasks import run_task


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(run_task, items)
        """)
        return write_module(tmp_path, "src/repro/sim/tasks.py",
                            task_src)

    def test_worker_writing_module_state_fails(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                global _CALLS
                _CALLS += 1
                return item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert "'_CALLS'" in finding.message
        assert "run_task" in finding.message
        assert finding.path.endswith("tasks.py")

    def test_transitively_reachable_reader_fails(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def _bump():
                global _CALLS
                _CALLS += 1


            def _observe():
                return _CALLS


            def run_task(item):
                _bump()
                return _observe()
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        names = sorted(f.message.split(" is reachable")[0]
                       for f in result.findings)
        assert names == ["_bump", "_observe"]

    def test_reading_module_constant_passes(self, tmp_path):
        self._tree(tmp_path, """\
            SCALE = {"a": 2.0}


            def run_task(item):
                return SCALE["a"] * item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_unreachable_mutator_passes(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                return item


            def bump_outside_pool():
                global _CALLS
                _CALLS += 1
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_suppressible_on_project_scope(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                # greedwork: ignore[GW601] -- per-process by design
                global _CALLS
                _CALLS += 1
                return item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


#: The library's own pool handle, bound the two ways the tree binds it.
WORKER_POOL_BINDINGS = ("pool = WorkerPool(2)",
                        "pool = existing or WorkerPool(2)")


class TestWorkerPoolProbe:
    """GW601 and GW602 see dispatches through ``repro.parallel.WorkerPool``."""

    @pytest.mark.parametrize("binding", WORKER_POOL_BINDINGS)
    def test_worker_writing_module_state_fails(self, tmp_path, binding):
        write_module(tmp_path, "src/repro/sim/probe.py", f"""\
            from repro.parallel import WorkerPool

            _SEEN = []


            def _task(value):
                _SEEN.append(value)
                return value


            def run_all(xs, existing=None):
                {binding}
                return list(pool.map(_task, xs))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "'_SEEN'" in result.findings[0].message

    @pytest.mark.parametrize("binding", WORKER_POOL_BINDINGS)
    def test_lambda_to_worker_pool_fails(self, tmp_path, binding):
        path = write_module(tmp_path, "src/repro/sim/probe.py", f"""\
            from repro.parallel import WorkerPool


            def run_all(xs, existing=None):
                {binding}
                return pool.submit(lambda v: v, xs)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "lambda" in result.findings[0].message


class TestUnpicklableWorker:
    """GW602."""

    def test_lambda_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(lambda x: x + 1, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "lambda" in result.findings[0].message

    def test_nested_function_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from concurrent.futures import ProcessPoolExecutor


            def run_all(items, scale):
                def task(x):
                    return x * scale

                with ProcessPoolExecutor() as pool:
                    return list(pool.map(task, items))
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "'task'" in result.findings[0].message

    def test_lambda_binding_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def run_all(items):
                task = lambda x: x + 1
                with Pool(2) as pool:
                    return pool.map(task, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "'task'" in result.findings[0].message

    def test_module_level_function_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def _task(x):
                return x + 1


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(_task, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert result.findings == []

    def test_thread_pool_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from concurrent.futures import ThreadPoolExecutor


            def run_all(items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(lambda x: x + 1, items))
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert result.findings == []


class TestBlockingEventLoop:
    """GW604."""

    def test_future_result_in_async_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def drain(futures):
                return [future.result() for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "blocks the event loop" in result.findings[0].message
        assert "'drain'" in result.findings[0].message

    def test_untimeouted_as_completed_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from concurrent.futures import as_completed


            async def drain(futures):
                done = []
                for future in as_completed(futures):
                    done.append(await wrap(future))
                return done
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "timeout" in result.findings[0].message

    def test_as_completed_with_timeout_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from concurrent.futures import as_completed


            async def drain(futures):
                return list(as_completed(futures, timeout=30.0))
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_sync_simulate_in_async_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from repro.sim.runner import simulate_to_precision


            async def run_cell(cell):
                return simulate_to_precision(cell.config(),
                                             target_halfwidth=0.1)
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "run_in_executor" in result.findings[0].message

    def test_awaited_executor_dispatch_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            import asyncio


            async def dispatch(pool, batches):
                loop = asyncio.get_running_loop()
                futures = [loop.run_in_executor(pool, run, batch)
                           for batch in batches]
                done, _ = await asyncio.wait(
                    set(futures), return_when=asyncio.FIRST_COMPLETED)
                return [await future for future in done]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_sync_def_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from repro.sim.runner import simulate


            def run_serial(configs):
                return [simulate(config) for config in configs]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_other_package_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/driver.py", """\
            async def drain(futures):
                return [future.result() for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_nested_async_reported_once(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def outer(futures):
                async def inner(future):
                    return future.result()

                return [await inner(f) for f in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "'inner'" in result.findings[0].message

    def test_suppression_with_reason(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def drain(futures):
                return [future.result()  # greedwork: ignore[GW604] -- futures are all done here
                        for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestStateFlowLayer:
    """The attribute-level state model underlying GW4xx/GW6xx."""

    def _project(self, tmp_path, files):
        from repro.staticcheck.project import ProjectContext

        for relpath, source in files.items():
            write_module(tmp_path, relpath, source)
        src = tmp_path / "src"
        contexts = [FileContext(p, p.read_text(), project_root=tmp_path)
                    for p in collect_files([src])]
        return ProjectContext(contexts, project_root=tmp_path)

    def test_class_state_merges_bases(self, tmp_path):
        project = self._project(tmp_path, {
            "src/repro/sim/base.py": """\
                class Base:
                    def __init__(self):
                        self.a = 0

                    def bump_a(self):
                        self.a += 1
            """,
            "src/repro/sim/child.py": """\
                from repro.sim.base import Base


                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.b = 0

                    def bump_b(self):
                        self.b += 1
            """,
        })
        model = project.class_state("repro.sim.child", "Child")
        assert set(model.init_assigned) == {"a", "b"}
        assert model.mutated_after_init == {"a", "b"}

    def test_function_summaries_track_globals(self, tmp_path):
        from repro.staticcheck.project import FunctionSummary

        project = self._project(tmp_path, {
            "src/repro/sim/mod.py": """\
                _STATE = {}
                LIMIT = 3


                def poke(key):
                    _STATE[key] = 1
                    return LIMIT
            """,
        })
        summary = project.function_summaries["repro.sim.mod:poke"]
        assert isinstance(summary, FunctionSummary)
        assert set(summary.global_writes) == {"_STATE"}
        assert "LIMIT" in summary.global_reads
        assert project.module_mutable_globals("repro.sim.mod") == \
            {"_STATE"}

    def test_worker_reachability_closure(self, tmp_path):
        project = self._project(tmp_path, {
            "src/repro/sim/pooling.py": """\
                from multiprocessing import Pool

                from repro.sim.leaf import entry


                def fan(items):
                    with Pool() as pool:
                        return pool.map(entry, items)
            """,
            "src/repro/sim/leaf.py": """\
                def entry(item):
                    return _helper(item)


                def _helper(item):
                    return item + 1
            """,
        })
        reachable = project.reachable_from_workers()
        assert "repro.sim.leaf:entry" in reachable
        assert "repro.sim.leaf:_helper" in reachable


class TestIncrementalCache:
    def _tree(self, tmp_path):
        write_module(tmp_path, "src/repro/sim/alpha.py", """\
            def _alpha(x):
                return x + 1
        """)
        write_module(tmp_path, "src/repro/sim/beta.py", """\
            def _beta(x):
                return x * 2
        """)
        return tmp_path / "src"

    def test_warm_run_reanalyzes_nothing(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        first = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert first.files_from_cache == 0
        assert first.files_analyzed == first.files_checked
        second = run_checks([src], project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert second.files_checked == first.files_checked
        assert second.files_analyzed == 0
        assert second.files_from_cache == second.files_checked
        assert [f.render() for f in second.findings] == \
            [f.render() for f in first.findings]

    def test_edited_file_is_reanalyzed(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        run_checks([src], project_root=tmp_path,
                   cache=True, cache_dir=cache_dir)
        beta = src / "repro/sim/beta.py"
        beta.write_text(beta.read_text() + "\n\nimport random\n")
        third = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert third.files_analyzed == 1
        assert third.files_from_cache == third.files_checked - 1
        assert [f.rule_id for f in third.findings] == ["GW003"]

    def test_cached_findings_identical_to_fresh(self, tmp_path):
        write_module(tmp_path, "src/repro/sim/dirty.py", """\
            import random
        """)
        src = tmp_path / "src"
        cache_dir = tmp_path / ".cache"
        fresh = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        cached = run_checks([src], project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert cached.files_from_cache == cached.files_checked
        assert [f.render() for f in cached.findings] == \
            [f.render() for f in fresh.findings]

    def test_dependency_edit_invalidates_project_findings(self,
                                                          tmp_path):
        # A project-rule finding must react to edits in *other* files:
        # once a second file dispatches ``task`` to a process pool, its
        # ``global`` write becomes worker-reachable and GW601 fires on
        # a file that was itself served from the cache.
        write_module(tmp_path, "src/repro/sim/worker.py", """\
            _CALLS = 0


            def task(item):
                global _CALLS
                _CALLS += 1
                return item
        """)
        driver = write_module(tmp_path, "src/repro/sim/driver.py", """\
            from repro.sim.worker import task

            VALUE = task(1)
        """)
        src = tmp_path / "src"
        cache_dir = tmp_path / ".cache"
        rules = [get_rule("GW601")]
        first = run_checks([src], rules=rules, project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert first.findings == []
        driver.write_text(textwrap.dedent("""\
            from multiprocessing import Pool

            from repro.sim.worker import task


            def fan(items):
                with Pool(2) as pool:
                    return pool.map(task, items)
        """))
        second = run_checks([src], rules=rules, project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert second.files_analyzed == 1      # only the edited file
        assert [f.message for f in second.findings] != []
        assert second.findings[0].path.endswith("worker.py")
        # And the warm rerun serves the new project verdict entirely
        # from cache.
        third = run_checks([src], rules=rules, project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert third.files_analyzed == 0
        assert [f.render() for f in third.findings] == \
            [f.render() for f in second.findings]

    def test_no_cache_flag_disables(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        run_checks([src], project_root=tmp_path,
                   cache=True, cache_dir=cache_dir)
        again = run_checks([src], project_root=tmp_path,
                           cache=False, cache_dir=cache_dir)
        assert again.files_from_cache == 0
        assert again.files_analyzed == again.files_checked


class TestParallelRuns:
    def test_parallel_matches_serial(self, tmp_path):
        for i in range(4):
            write_module(tmp_path, f"src/repro/sim/mod{i}.py", """\
                import random
            """)
        src = tmp_path / "src"
        serial = run_checks([src], project_root=tmp_path, jobs=1)
        parallel = run_checks([src], project_root=tmp_path, jobs=2)
        assert serial.findings  # the fixtures are genuinely dirty
        assert [f.render() for f in parallel.findings] == \
            [f.render() for f in serial.findings]
        assert [f.render() for f in parallel.suppressed] == \
            [f.render() for f in serial.suppressed]
        assert parallel.files_checked == serial.files_checked


class TestNodeIndex:
    """The per-file node index every file rule reads."""

    @staticmethod
    def _live_contexts():
        for path in collect_files([REPO_ROOT / r for r in CHECK_ROOTS]):
            ctx = FileContext(path, path.read_text(encoding="utf-8"),
                              project_root=REPO_ROOT)
            if ctx.tree is not None:
                yield ctx

    def test_type_lists_follow_walk_order(self):
        for ctx in self._live_contexts():
            walked = list(ast.walk(ctx.tree))
            expected = {}
            for node in walked:
                expected.setdefault(type(node), []).append(node)
            index = ctx.nodes
            assert index.walk_order == walked
            for node_type, nodes in expected.items():
                assert list(index.of(node_type)) == nodes, \
                    (ctx.display_path, node_type.__name__)
            pair = (ast.Import, ast.Call)
            assert list(index.of(*pair)) == \
                [n for n in walked if type(n) in pair]
            assert list(index.of(ast.Nonlocal)) == \
                expected.get(ast.Nonlocal, [])
            assert index.scopes() == [ctx.tree] + [
                n for n in walked
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def test_parent_links_match_child_links(self):
        for ctx in self._live_contexts():
            walked = list(ast.walk(ctx.tree))
            # Context and operator nodes are shared singletons with
            # many parents; every other node has exactly one.
            seen = Counter(id(node) for node in walked)
            index = ctx.nodes
            assert index.parent(ctx.tree) is None
            for node in walked:
                for child in ast.iter_child_nodes(node):
                    if seen[id(child)] == 1:
                        assert index.parent(child) is node

    def test_project_import_scan_keeps_walk_order(self):
        # Later imports override earlier ones in ModuleInfo.aliases.
        for ctx in self._live_contexts():
            imports = (ast.Import, ast.ImportFrom)
            assert [n for n in _statements(ctx.tree)
                    if isinstance(n, imports)] == \
                [n for n in ast.walk(ctx.tree) if isinstance(n, imports)]

    def test_rules_never_walk_the_whole_tree(self):
        # Rules read ``ctx.nodes``; walking ``ctx.tree`` again is the
        # cost the index exists to remove.
        rules_dir = REPO_SRC / "repro" / "staticcheck" / "rules"
        offenders = []
        for path in sorted(rules_dir.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                callee = node.func.attr \
                    if isinstance(node.func, ast.Attribute) \
                    else getattr(node.func, "id", "")
                first = node.args[0]
                if callee in ("walk", "walk_nodes") \
                        and isinstance(first, ast.Attribute) \
                        and first.attr == "tree":
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_index_is_dropped_when_file_rules_finish(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/mod.py", """\
            import random
        """)
        ctx = FileContext(path, path.read_text(), project_root=tmp_path)
        findings, _ = _run_file_rules(ctx, all_rules())
        assert [f.rule_id for f in findings] == ["GW003"]
        assert ctx._nodes is None
        assert ctx.nodes.of(ast.Import)         # rebuilt on demand


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


class _RaisingRule(Rule):
    rule_id = "GW999"

    def check(self, ctx):
        assert not gc.isenabled()
        raise RuntimeError("rule failed")


class TestCollectorPause:
    """``run_checks`` pauses the cyclic collector and restores it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, tmp_path, enabled):
        path = write_module(tmp_path, "src/repro/sim/mod.py", """\
            import random
        """)
        was_enabled = gc.isenabled()
        _set_collector(enabled)
        try:
            result = run_checks([path], project_root=tmp_path)
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="rule failed"):
                run_checks([path], rules=[_RaisingRule()],
                           project_root=tmp_path)
            assert gc.isenabled() is enabled
        finally:
            _set_collector(was_enabled)
        assert [f.rule_id for f in result.findings] == ["GW003"]


class TestSarifReport:
    def _result(self, tmp_path):
        write_module(tmp_path, "bad.py", """\
            import random
            from random import shuffle  # greedwork: ignore[GW003]
        """)
        return run_checks([tmp_path / "bad.py"], project_root=tmp_path)

    def test_document_matches_vendored_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        document = json.loads(render_sarif(self._result(tmp_path)))
        schema = json.loads(SARIF_SUBSET_SCHEMA.read_text())
        jsonschema.validate(document, schema)

    def test_structure(self, tmp_path):
        document = json.loads(render_sarif(self._result(tmp_path)))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "greedwork-check"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == \
            ALL_RULE_IDS
        assert run["columnKind"] in ("utf16CodeUnits",
                                     "unicodeCodePoints")
        live = [r for r in run["results"] if "suppressions" not in r]
        suppressed = [r for r in run["results"] if "suppressions" in r]
        assert len(live) == 1 and len(suppressed) == 1
        assert live[0]["ruleId"] == "GW003"
        region = live[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert "greedworkFingerprint/v1" in live[0]["partialFingerprints"]
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"

class TestCLI:
    def test_check_clean_tree_exit_zero(self, capsys):
        code = cli_main(["check", str(REPO_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_check_dirty_tree_exit_nonzero(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "GW003" in out

    def test_check_json_format(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import numpy as np
            rng = np.random.default_rng(3)
        """)
        code = cli_main(["check", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "GW003"
        assert payload["findings"][0]["line"] == 2

    def test_check_select_subset(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--select", "GW2"])
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        code = cli_main(["explain"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_check_sarif_format(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "GW003"

    def test_check_stats_on_stderr(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", """\
            VALUE = 1
        """)
        code = cli_main(["check", str(tmp_path), "--stats",
                         "--cache-dir", str(tmp_path / ".cache")])
        captured = capsys.readouterr()
        assert code == 0
        assert "files=1" in captured.err
        assert "duration_s=" in captured.err

    def test_check_parallel_jobs(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "-j", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "GW003" in out

    def test_check_unknown_selector_exit_two(self, tmp_path, capsys):
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--select", "GW9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule selector" in captured.err

    def test_check_warm_cache_serves_all_files(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", """\
            VALUE = 1
        """)
        cache_dir = str(tmp_path / ".cache")
        cli_main(["check", str(tmp_path), "--cache-dir", cache_dir])
        capsys.readouterr()
        code = cli_main(["check", str(tmp_path), "--cache-dir",
                         cache_dir, "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "analyzed=0" in captured.err
        assert "cached=1" in captured.err


class TestExplainCLI:
    def test_explain_prints_docstring_sections(self, capsys):
        code = cli_main(["explain", "GW401"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GW401 (snapshot-coverage, project-scope)" in out
        for section in ("Rationale:", "Example::", "Fix:"):
            assert section in out

    def test_explain_family_prefix(self, capsys):
        code = cli_main(["explain", "GW5xx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GW501" in out and "GW502" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        code = cli_main(["explain", "GW999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule selector" in err

    def test_new_families_carry_full_explanations(self):
        # ``explain`` renders the class docstring verbatim, so the
        # documentation contract is: every GW4xx/5xx/6xx rule ships
        # rationale, a minimal triggering example, and the approved
        # fix or suppression pattern in its docstring.
        import inspect

        for rule_id in ALL_RULE_IDS:
            if not rule_id.startswith(("GW4", "GW5", "GW6")):
                continue
            doc = inspect.getdoc(type(get_rule(rule_id)))
            for section in ("Rationale:", "Example::", "Fix:"):
                assert section in doc, (rule_id, section)


#: One violation per registered rule, planted in a copy of the real
#: tree: ``(path, source)``.  A new path becomes a module; an existing
#: one gets ``source`` appended (GW107 and GW403 only fire inside
#: named modules).  ``# <- GWnnn`` marks the line a finding must
#: anchor to.
PLANTS = [
    ("src/repro/queueing/_planted_layers.py", """\
        from repro.experiments.base import Table  # <- GW001
    """),
    ("src/repro/disciplines/_planted_registry.py", """\
        _FACTORIES = {
            "planted": _NoSuchAllocation,  # <- GW002
        }
    """),
    ("src/repro/sim/_planted_rng.py", """\
        import random  # <- GW003
    """),
    ("src/repro/game/_planted_scan.py", """\
        def _scan(allocation, base, i, xs):
            out = []
            for x in xs:
                base[i] = x
                out.append(allocation.congestion_i(base, i))  # <- GW105
            return out
    """),
    ("src/repro/experiments/_planted_horizon.py", """\
        from repro.sim.runner import SimulationConfig, simulate


        def _fixed(seed):
            return simulate(SimulationConfig(  # <- GW106
                rates=[0.1], policy="fifo", horizon=5000.0, seed=seed))
    """),
    ("src/repro/game/classes.py", """\
        def _planted_certify(allocation, utilities, rates):
            worst = 0.0
            for i, utility in enumerate(utilities):  # <- GW107
                worst = max(worst, utility_improvement(
                    allocation, utility, rates, i))
            return worst
    """),
    ("src/repro/queueing/_planted_pole.py", """\
        def _g(load):
            return load / (1.0 - load)  # <- GW201
    """),
    ("src/repro/queueing/_planted_domain.py", """\
        import math


        def _spread(a, b):
            return math.sqrt(a - b)  # <- GW202
    """),
    ("src/repro/disciplines/_planted_stateful.py", """\
        from repro.disciplines.base import AllocationFunction

        _CALLS = []


        class _CountingAllocation(AllocationFunction):
            name = "counting"

            def congestion(self, rates):
                _CALLS.append(len(rates))  # <- GW302
                return rates
    """),
    ("benchmarks/bench_solver.py", """\
        from repro.numerics.instrumentation import set_vectorized  # <- GW303
    """),
    ("tests/test_nash.py", """\
        from repro.game.best_response import _uses_grid  # <- GW303
    """),
    ("src/repro/sim/_planted_snapshot.py", """\
        from repro.sim.queues import QueuePolicy


        class _LeakyQueue(QueuePolicy):
            def __init__(self):
                self._packets = []
                self._served = 0

            def push(self, item):
                self._packets.append(item)

            def complete(self):
                self._served += 1

            def state_snapshot(self):  # <- GW401
                clone = _LeakyQueue()
                clone._packets = list(self._packets)
                return clone
    """),
    ("src/repro/sim/_planted_carrier.py", """\
        from dataclasses import dataclass


        @dataclass
        class _Carrier:
            now: float
            count: int


        class _Engine:
            def __init__(self):
                self.now = 0.0
                self.count = 0

            def step(self):
                self.now += 1.0
                self.count += 1

            def snapshot(self):
                return _Carrier(now=self.now, count=0)  # <- GW402
    """),
    ("src/repro/sim/cache.py", """\
        def _planted_key(config):  # <- GW403
            return repr(config.rates)
    """),
    ("src/repro/sim/_planted_draw.py", """\
        def _service_time(rng, mu):
            return float(rng.exponential(1.0 / mu))  # <- GW501
    """),
    ("src/repro/numerics/_planted_clock.py", """\
        import time


        def _stamp():
            return time.perf_counter()  # <- GW502
    """),
    ("src/repro/sim/_planted_hot.py", """\
        def _gaps(stream, n):
            out = []
            for _ in range(n):  # <- GW503
                out.append(stream.draw())
            return out
    """),
    ("src/repro/sim/_planted_task.py", """\
        _CALLS = 0


        def _run_task(item):
            global _CALLS  # <- GW601
            _CALLS += 1
            return item
    """),
    ("src/repro/sim/_planted_pool.py", """\
        from multiprocessing import Pool

        from repro.sim._planted_task import _run_task


        def _run_all(items):
            with Pool(2) as pool:
                return pool.map(_run_task, items)
    """),
    ("src/repro/sim/_planted_lambda.py", """\
        from multiprocessing import Pool


        def _run_all(items):
            with Pool(2) as pool:
                return pool.map(lambda x: x + 1, items)  # <- GW602
    """),
    ("src/repro/sweep/_planted_async.py", """\
        async def _drain(futures):
            return [future.result() for future in futures]  # <- GW604
    """),
]


def plant(root: Path, relpath: str, source: str):
    """Write or append one plant; return its ``(rule, path, line)``s."""
    path = root / relpath
    source = textwrap.dedent(source)
    head = ""
    if path.exists():
        head = path.read_text().rstrip("\n") + "\n\n\n"
    path.write_text(head + source)
    offset = head.count("\n")
    return {(line.split("# <- ")[1].strip(), relpath, offset + number)
            for number, line in enumerate(source.splitlines(), start=1)
            if "# <- " in line}


class TestSeededViolations:
    """The whole tree, copied, with one violation planted per rule."""

    def test_exactly_the_planted_violations_are_reported(self, tmp_path):
        for path in collect_files([REPO_ROOT / r for r in CHECK_ROOTS]):
            copy = tmp_path / path.relative_to(REPO_ROOT)
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, copy)
        planted = set()
        for relpath, source in PLANTS:
            planted.update(plant(tmp_path, relpath, source))
        result = run_checks([tmp_path / r for r in CHECK_ROOTS],
                            project_root=tmp_path)
        found = {(f.rule_id, f.path, f.line) for f in result.findings}
        assert sorted(found) == sorted(planted)
        assert {rule for rule, _, _ in planted} == \
            {r.rule_id for r in all_rules()}
        assert len(collect_files([tmp_path / "src"])) > 90
        assert result.files_checked > 140


class TestRepoIsClean:
    """The gate CI applies: the shipped tree has zero findings."""

    def test_full_suite_over_src(self):
        result = run_checks([REPO_SRC], project_root=REPO_ROOT)
        messages = [f.render() for f in result.findings]
        assert messages == []
        assert result.files_checked > 90

    def test_full_suite_over_src_and_tests(self):
        result = run_checks([REPO_SRC, REPO_TESTS],
                            project_root=REPO_ROOT)
        messages = [f.render() for f in result.findings]
        assert messages == []
        assert result.files_checked > 140


class TestLiveTreePragmas:
    def test_pragma_ids_name_registered_rules(self):
        # Unknown ids in a pragma are silent by design (the frozen
        # benchmark corpus still names deleted rules), so the live
        # tree is held to known ids here instead.
        known = {r.rule_id for r in all_rules()} | {ALL_RULES}
        unknown = []
        for path in collect_files([REPO_ROOT / r for r in CHECK_ROOTS]):
            with open(path, "rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    match = (_PRAGMA.search(token.string)
                             if token.type == tokenize.COMMENT else None)
                    if match is None or match.group("ids") is None:
                        continue
                    for rule_id in match.group("ids").split(","):
                        if rule_id.strip() not in known:
                            unknown.append(f"{path}:{token.start[0]}: "
                                           f"{rule_id.strip()}")
        assert unknown == []
