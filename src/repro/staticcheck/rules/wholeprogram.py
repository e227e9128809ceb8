"""GW3xx — whole-program contracts (needs :class:`ProjectContext`).

``GW302``  stateful discipline — a subclass of
           :class:`~repro.disciplines.base.AllocationFunction` whose
           allocation methods (``congestion``/``congestion_many``/
           ``__call__``/``allocate``) write module-level state.  The paper's
           allocation function is a *pure map* from rate vectors to
           congestion vectors; hidden state breaks the Nash/Pareto
           machinery (and any parallel evaluation) silently.
``GW303``  stale import — ``from repro.x import name`` where
           ``repro.x`` binds no ``name`` at module level and has no
           submodule ``name``: the import fails when the file runs,
           however clean the rest of the tree is.

Findings anchor to real source lines, so the ordinary
``# greedwork: ignore[...]`` pragmas apply.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.staticcheck.core import Finding, ProjectRule, names_under, \
    parameter_names, register_rule, root_name
from repro.staticcheck.project import (
    MUTATOR_METHODS,
    ModuleInfo,
    ProjectContext,
    Symbol,
    resolve_import_base,
)

#: Methods forming the allocation surface of a discipline.
ALLOCATION_METHODS = frozenset({"congestion", "congestion_many", "__call__",
                                "allocate"})


@register_rule
class StatefulDisciplineRule(ProjectRule):
    """Flag allocation methods that write module state (GW302)."""

    rule_id = "GW302"
    name = "stateful-discipline"
    description = ("AllocationFunction subclasses must keep "
                   "congestion/congestion_many/__call__/allocate pure: "
                   "no writes to module-level state (the paper's "
                   "allocation function is a pure map r -> c)")

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
                        root = root_name(target)
                        verb = "assigns into"
                        break
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATOR_METHODS:
                root = root_name(node.func)
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
    def _local_names(method: ast.AST) -> Set[str]:
        out = parameter_names(method)
        for node in ast.walk(method):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, (ast.For, ast.comprehension)):
                out |= names_under(node.target)
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                out |= names_under(node.optional_vars)
        return out


@register_rule
class StaleImportRule(ProjectRule):
    """Flag from-imports of names a project module does not bind (GW303).

    Rationale:
        Deleting or renaming a module-level name breaks every
        ``from`` import of it, and nothing says so until the importing
        file runs.  A benchmark, an example or a test module that
        imports a deleted helper stays broken, unseen, for as long as
        nobody runs it.  The project layer already lists each module's
        module-level names and each file's imports, so the check is a
        lookup.

    Example::

        # repro/numerics/instrumentation.py no longer defines it
        from repro.numerics.instrumentation import set_vectorized

    Fix:
        Import the name from where it lives now, or delete the import
        with the code that used it.  A module that defines
        ``__getattr__`` or star-imports is never judged (its names are
        not known without running it), and a name that is a submodule
        of the package is not stale.
    """

    rule_id = "GW303"
    name = "stale-import"
    description = ("a from-import from a project module must name "
                   "something it binds at module level, or a submodule")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        for info in project.infos:
            if not project.is_analyzed(info.ctx.display_path):
                continue
            stale = {target for target in info.aliases.values()
                     if _is_stale(project, target)}
            if not stale:
                continue
            for node in info.ctx.nodes.of(ast.ImportFrom):
                base = resolve_import_base(info.ctx, node)
                for alias in node.names:
                    if f"{base}:{alias.name}" in stale:
                        yield self.finding(
                            info.ctx, node,
                            f"{base} does not define {alias.name!r}; "
                            f"this import fails when the file runs")


def _is_stale(project: ProjectContext, target: str) -> bool:
    """Whether a ``module:name`` alias target names nothing the parsed
    project module binds; ``False`` for a module outside the project."""
    module, _, name = target.partition(":")
    source = project.modules.get(module) if name else None
    if source is None or source.star_import:
        return False
    return not (name in source.module_level_names
                or "__getattr__" in source.module_level_names
                or f"{module}.{name}" in project.modules)
