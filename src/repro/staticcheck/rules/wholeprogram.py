"""GW3xx — whole-program contracts (needs :class:`ProjectContext`).

``GW302``  stateful discipline — a subclass of
           :class:`~repro.disciplines.base.AllocationFunction` whose
           allocation methods (``congestion``/``__call__``/
           ``allocate``) write module-level state.  The paper's
           allocation function is a *pure map* from rate vectors to
           congestion vectors; hidden state breaks the Nash/Pareto
           machinery (and any parallel evaluation) silently.

Findings anchor to real source lines, so the ordinary
``# greedwork: ignore[...]`` pragmas apply.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.staticcheck.core import Finding, ProjectRule, register_rule
from repro.staticcheck.project import (
    MUTATOR_METHODS,
    ModuleInfo,
    ProjectContext,
    Symbol,
)

#: Methods forming the allocation surface of a discipline.
ALLOCATION_METHODS = frozenset({"congestion", "__call__", "allocate"})


@register_rule
class StatefulDisciplineRule(ProjectRule):
    """Flag allocation methods that write module state (GW302)."""

    rule_id = "GW302"
    name = "stateful-discipline"
    description = ("AllocationFunction subclasses must keep "
                   "congestion/__call__/allocate pure: no writes to "
                   "module-level state (the paper's allocation "
                   "function is a pure map r -> c)")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        for symbol in project.subclasses_of("repro.disciplines.base",
                                            "AllocationFunction"):
            info = project.modules.get(symbol.module)
            if info is None:
                continue
            if not project.is_analyzed(info.ctx.display_path):
                continue
            if not isinstance(symbol.node, ast.ClassDef):
                continue
            for method in symbol.node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name not in ALLOCATION_METHODS:
                    continue
                yield from self._check_method(info, symbol, method)

    def _check_method(self, info: ModuleInfo, symbol: Symbol,
                      method: ast.AST) -> Iterable[Finding]:
        local_names = self._local_names(method)
        label = f"{symbol.name}.{getattr(method, 'name', '?')}"
        for node in ast.walk(method):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.finding(
                    info.ctx, node,
                    f"{label} declares "
                    f"{type(node).__name__.lower()} state; allocation "
                    f"methods must be pure")
                continue
            root = None
            verb = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = self._root_name(target)
                        verb = "assigns into"
                        break
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATOR_METHODS:
                root = self._root_name(node.func)
                verb = f"calls .{node.func.attr}() on"
            if root is None or verb is None:
                continue
            if root in local_names:
                continue
            if root in info.module_level_names or root in info.aliases:
                yield self.finding(
                    info.ctx, node,
                    f"{label} {verb} module-level {root!r}; the "
                    f"allocation function must be a pure map from "
                    f"rates to congestions")

    @staticmethod
    def _root_name(node: ast.AST) -> str:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return ""

    @staticmethod
    def _local_names(method: ast.AST) -> Set[str]:
        out: Set[str] = set()
        args = method.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            out.add(arg.arg)
        for node in ast.walk(method):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                for sub in ast.walk(node.optional_vars):
                    if isinstance(sub, ast.Name):
                        out.add(sub.id)
        return out
