"""GW001 — layer-DAG enforcement.

The architecture is a DAG of layers::

    0  exceptions, obs
    1  numerics, parallel, queueing
    2  costsharing, disciplines, users
    3  game, sim, network
    4  analysis, experiments, sweep
    5  staticcheck
    6  cli, __main__, and the root ``repro`` facade

Imports must point strictly downward.  Within a layer, only the
explicitly declared edges in :data:`INTRA_LAYER_EDGES` are legal
(sub-orderings that exist inside a band, e.g. ``users`` may build on
``disciplines`` but not vice versa).  Everything else — an upward
import, an undeclared cross-import inside a band — is a back-edge that
would eventually make the package graph cyclic and is rejected.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.staticcheck.core import FileContext, Finding, Rule, register_rule
from repro.staticcheck.project import resolve_import_base

#: Name of the root facade pseudo-package (``repro/__init__.py``).
ROOT_FACADE = "<root>"

LAYERS: Dict[str, int] = {
    "exceptions": 0,
    "obs": 0,
    "numerics": 1,
    "parallel": 1,
    "queueing": 1,
    "costsharing": 2,
    "disciplines": 2,
    "users": 2,
    "game": 3,
    "sim": 3,
    "network": 3,
    "analysis": 4,
    "experiments": 4,
    "sweep": 4,
    "staticcheck": 5,
    "cli": 6,
    "__main__": 6,
    ROOT_FACADE: 6,
}

#: Declared same-layer dependencies (importer, imported).
INTRA_LAYER_EDGES: FrozenSet[Tuple[str, str]] = frozenset({
    ("queueing", "numerics"),
    ("costsharing", "disciplines"),
    ("users", "disciplines"),
    ("network", "sim"),
    ("experiments", "analysis"),
    ("sweep", "experiments"),   # catalog cells reuse Table/AsciiChart
    ("sweep", "analysis"),
    ("__main__", "cli"),        # entry point delegates to the CLI
})


def package_of(module: str) -> Optional[str]:
    """The layer-relevant package of a dotted ``repro`` module name.

    ``repro.queueing.mm1`` → ``queueing``; top-level modules map to
    themselves (``repro.cli`` → ``cli``); the bare package ``repro``
    maps to :data:`ROOT_FACADE`.
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ROOT_FACADE
    return parts[1]


@register_rule
class LayerDAGRule(Rule):
    """Flag imports that point upward or across layers (GW001)."""

    rule_id = "GW001"
    name = "layer-dag"
    description = ("imports must respect the layer DAG "
                   "(numerics/queueing -> costsharing/disciplines/users "
                   "-> game/sim/network -> analysis/experiments -> cli)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module is None or not ctx.module.startswith("repro"):
            return
        src_pkg = package_of(ctx.module)
        if src_pkg is None:
            return
        for node, target in self._repro_imports(ctx):
            dst_pkg = package_of(target)
            if dst_pkg is None or dst_pkg == src_pkg:
                continue
            if self._edge_ok(src_pkg, dst_pkg):
                continue
            yield self.finding(
                ctx, node,
                f"layer back-edge: '{src_pkg}' (layer "
                f"{LAYERS.get(src_pkg, '?')}) must not import "
                f"'{dst_pkg}' (layer {LAYERS.get(dst_pkg, '?')}) "
                f"via {target}")

    @staticmethod
    def _edge_ok(src_pkg: str, dst_pkg: str) -> bool:
        src_layer = LAYERS.get(src_pkg)
        dst_layer = LAYERS.get(dst_pkg)
        if src_layer is None or dst_layer is None:
            # Unknown package: refuse rather than silently allow, so a
            # new subpackage must be placed in the DAG deliberately.
            return False
        if dst_layer < src_layer:
            return True
        if dst_layer == src_layer:
            return (src_pkg, dst_pkg) in INTRA_LAYER_EDGES
        return False

    def _repro_imports(
            self, ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ctx.nodes.of(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                target = resolve_import_base(ctx, node)
                if target is not None and target.split(".")[0] == "repro":
                    yield node, target
