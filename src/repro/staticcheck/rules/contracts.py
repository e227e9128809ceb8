"""GW002 — discipline-contract conformance.

Every entry of ``_FACTORIES`` in ``repro.disciplines.registry`` must be
a zero-argument factory producing an
:class:`~repro.disciplines.base.AllocationFunction`.  This rule checks
the contract *statically* — no imports are executed — on the parsed
project: each registered name resolves through the registry module's
alias table to a class in the project's symbol table, and each base of
that class resolves the same way through its own module's aliases (or
to a class that module defines):

* the class must (transitively) subclass ``AllocationFunction``;
* it must write a full-profile value form somewhere in its chain below
  the base: a concrete ``congestion(self, rates)`` or
  ``congestion_many(self, profiles)``, with no extra required
  parameters (the base derives the other form from it);
* it must carry a string ``name`` class attribute (its table label);
* the registered factory must be callable with zero arguments — for a
  bare class that means every ``__init__`` parameter has a default;
  for a ``lambda: Cls(...)`` entry the supplied keywords must be real
  parameters of ``Cls.__init__`` and every remaining required
  parameter must be covered.

The rule fires on every analyzed module under a ``disciplines``
package that binds ``_FACTORIES`` to a dict literal, so test fixtures
can exercise it in synthetic trees.  It reads no file itself: a class
in a module that is not part of the parsed project (unreadable, not
parsing, or outside the scanned roots) cannot be located.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.staticcheck.core import FileContext, Finding, ProjectRule, \
    own_method, parameter_names, register_rule
from repro.staticcheck.project import ModuleInfo, ProjectContext

BASE_CLASS = "AllocationFunction"
BASE_MODULE_SUFFIX = ".base"
#: The full-profile value forms a discipline may write, with the name
#: of each one's parameter.
VALUE_FORMS = (("congestion", "rates"), ("congestion_many", "profiles"))


class _ClassInfo(NamedTuple):
    """A class definition and the module that defines it."""

    node: ast.ClassDef
    module: ModuleInfo


def _factories(tree: Optional[ast.Module]) -> Optional[ast.Dict]:
    """The dict literal a module-level statement binds ``_FACTORIES`` to."""
    for node in tree.body if tree is not None else ():
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, ast.Dict) and any(
                isinstance(target, ast.Name) and target.id == "_FACTORIES"
                for target in targets):
            return node.value
    return None


def _required_params(fn: ast.FunctionDef) -> List[str]:
    """Names of parameters (after self) without default values."""
    args = fn.args
    positional = args.posonlyargs + args.args
    n_defaults = len(args.defaults)
    required = [a.arg for a in positional[:len(positional) - n_defaults]]
    required += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is None]
    return [p for p in required if p != "self"]


def _resolve_class(project: ProjectContext, module: ModuleInfo,
                   name: str) -> Tuple[Optional[_ClassInfo], Optional[str]]:
    """The class ``name`` denotes in ``module``.

    The module's alias table is tried first, then a class the module
    defines itself.  Returns ``(info, error)``; exactly one is non-None.
    """
    error = (f"cannot resolve {name!r}: not defined locally and not "
             f"imported")
    target = module.resolve(name)
    if target is not None and ":" in target:
        source_name, _, attr = target.partition(":")
        source = project.modules.get(source_name)
        symbol = source.symbols.get(attr) if source is not None else None
        if symbol is not None and isinstance(symbol.node, ast.ClassDef):
            return _ClassInfo(symbol.node, source), None
        error = (f"cannot locate module {source_name!r} for {name!r}"
                 if source is None
                 else f"{name!r} not found in {source_name!r}")
    local = module.symbols.get(name)
    if local is not None and isinstance(local.node, ast.ClassDef):
        return _ClassInfo(local.node, module), None
    return None, error


@register_rule
class DisciplineContractRule(ProjectRule):
    """Statically verify registered discipline factories (GW002)."""

    rule_id = "GW002"
    name = "discipline-contract"
    description = ("entries registered in disciplines/registry.py must "
                   "statically implement the AllocationFunction surface "
                   "and be zero-argument constructible")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        for registry in project.infos:
            if registry.module is None \
                    or ".disciplines." not in f"{registry.module}." \
                    or not project.is_analyzed(registry.ctx.display_path):
                continue
            factories = _factories(registry.ctx.tree)
            if factories is None:
                continue
            for key_node, value_node in zip(factories.keys,
                                            factories.values):
                key = (key_node.value
                       if isinstance(key_node, ast.Constant) else None)
                if not isinstance(key, str):
                    yield self.finding(
                        registry.ctx, key_node or factories,
                        "registry keys must be string literals")
                    continue
                yield from self._check_entry(project, registry, key,
                                             value_node)

    def _check_entry(self, project: ProjectContext, registry: ModuleInfo,
                     key: str, value: ast.expr) -> Iterable[Finding]:
        if isinstance(value, ast.Name):
            yield from self._check_class_entry(
                project, registry, key, value, value.id, call=None)
        elif isinstance(value, ast.Lambda):
            if value.args.args or value.args.posonlyargs \
                    or value.args.kwonlyargs:
                yield self.finding(
                    registry.ctx, value,
                    f"factory for {key!r} must take no arguments")
                return
            body = value.body
            if not (isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)):
                yield self.finding(
                    registry.ctx, value,
                    f"factory lambda for {key!r} must directly "
                    f"construct a discipline class")
                return
            yield from self._check_class_entry(
                project, registry, key, value, body.func.id, call=body)
        else:
            yield self.finding(
                registry.ctx, value,
                f"factory for {key!r} must be a class name or a "
                f"zero-argument lambda constructing one")

    # -- the contract ------------------------------------------------------

    def _check_class_entry(self, project: ProjectContext,
                           registry: ModuleInfo, key: str,
                           anchor: ast.expr, class_name: str,
                           call: Optional[ast.Call]) -> Iterable[Finding]:
        info, error = _resolve_class(project, registry, class_name)
        if info is None:
            yield self.finding(registry.ctx, anchor,
                               f"entry {key!r}: {error}")
            return
        chain, chain_error = self._base_chain(project, info)
        if chain_error is not None:
            yield self.finding(registry.ctx, anchor,
                               f"entry {key!r}: {chain_error}")
            return
        yield from self._check_congestion(registry.ctx, key, anchor, chain)
        yield from self._check_name_attr(registry.ctx, key, anchor, chain)
        yield from self._check_constructible(registry.ctx, key, anchor,
                                             chain, call)

    @staticmethod
    def _base_chain(project: ProjectContext, info: _ClassInfo,
                    ) -> Tuple[List[_ClassInfo], Optional[str]]:
        """The single-inheritance chain down to ``AllocationFunction``.

        Discipline classes use single inheritance within the package;
        the chain stops (successfully) when a base named
        ``AllocationFunction`` imported from a ``.base`` module is
        reached.
        """
        chain = [info]
        current = info
        for _ in range(16):
            bases = [b for b in current.node.bases
                     if isinstance(b, ast.Name)]
            if not bases:
                return chain, (f"{current.node.name!r} does not "
                               f"subclass {BASE_CLASS}")
            base_name = bases[0].id
            if base_name == BASE_CLASS:
                target = current.module.resolve(BASE_CLASS) or ""
                source = target.partition(":")[0]
                if not source.endswith(BASE_MODULE_SUFFIX) \
                        and not source.endswith("disciplines"):
                    return chain, (
                        f"{current.node.name!r} inherits "
                        f"{BASE_CLASS!r} from unexpected module "
                        f"{source!r}")
                return chain, None
            base_info, error = _resolve_class(project, current.module,
                                              base_name)
            if base_info is None:
                return chain, error
            chain.append(base_info)
            current = base_info
        return chain, "inheritance chain too deep (cycle?)"

    def _check_congestion(self, ctx: FileContext, key: str,
                          anchor: ast.expr,
                          chain: List[_ClassInfo]) -> Iterable[Finding]:
        for info in chain:
            for form, param in VALUE_FORMS:
                method = own_method(info.node, form)
                if not isinstance(method, ast.FunctionDef) \
                        or self._is_abstract(method):
                    continue
                required = _required_params(method)
                if len(required) != 1:
                    yield self.finding(
                        ctx, anchor,
                        f"entry {key!r}: {info.node.name}.{form} must "
                        f"take exactly one required parameter ({param}), "
                        f"has {required}")
                return
        yield self.finding(
            ctx, anchor,
            f"entry {key!r}: no concrete congestion() or "
            f"congestion_many() implementation found on "
            f"{chain[0].node.name} or its bases")

    @staticmethod
    def _is_abstract(fn: ast.FunctionDef) -> bool:
        for deco in fn.decorator_list:
            name = deco.attr if isinstance(deco, ast.Attribute) \
                else getattr(deco, "id", "")
            if name in ("abstractmethod", "abstractproperty"):
                return True
        return False

    def _check_name_attr(self, ctx: FileContext, key: str,
                         anchor: ast.expr,
                         chain: List[_ClassInfo]) -> Iterable[Finding]:
        for info in chain:
            # An instance attribute ``self.name = ...`` set in any
            # method satisfies the surface too (e.g. a label that
            # depends on constructor flags).
            for method in info.node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for sub in ast.walk(method):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if (isinstance(target, ast.Attribute)
                                    and target.attr == "name"
                                    and isinstance(target.value,
                                                   ast.Name)
                                    and target.value.id == "self"):
                                return
            for node in info.node.body:
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) \
                        and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) \
                            and target.id == "name":
                        if not (isinstance(value, ast.Constant)
                                and isinstance(value.value, str)):
                            yield self.finding(
                                ctx, anchor,
                                f"entry {key!r}: class attribute "
                                f"'name' on {info.node.name} must be "
                                f"a string literal")
                        return
        yield self.finding(
            ctx, anchor,
            f"entry {key!r}: {chain[0].node.name} has no 'name' class "
            f"attribute (table label) anywhere in its chain")

    def _check_constructible(self, ctx: FileContext, key: str,
                             anchor: ast.expr, chain: List[_ClassInfo],
                             call: Optional[ast.Call]
                             ) -> Iterable[Finding]:
        init: Optional[ast.FunctionDef] = None
        owner = chain[0]
        for info in chain:
            method = own_method(info.node, "__init__")
            if isinstance(method, ast.FunctionDef):
                init, owner = method, info
                break
        if init is None:
            # Only object.__init__ — trivially zero-argument.
            if call is not None and (call.args or call.keywords):
                yield self.finding(
                    ctx, anchor,
                    f"entry {key!r}: {chain[0].node.name} has no "
                    f"__init__ but the factory passes arguments")
            return
        required = _required_params(init)
        has_kwargs = init.args.kwarg is not None
        has_varargs = init.args.vararg is not None
        if call is None:
            if required:
                yield self.finding(
                    ctx, anchor,
                    f"entry {key!r}: {owner.node.name}.__init__ has "
                    f"required parameters {required}; registered "
                    f"factories must be zero-argument constructible")
            return
        # Names a keyword may fill: not ``self``, not the ``*args`` name.
        accepted = parameter_names(init) - {"self"}
        if init.args.vararg is not None:
            accepted.discard(init.args.vararg.arg)
        supplied = set()
        positional = init.args.posonlyargs + init.args.args
        pos_names = [a.arg for a in positional if a.arg != "self"]
        for idx, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            if idx < len(pos_names):
                supplied.add(pos_names[idx])
            elif not has_varargs:
                yield self.finding(
                    ctx, anchor,
                    f"entry {key!r}: factory passes more positional "
                    f"arguments than {owner.node.name}.__init__ "
                    f"accepts")
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if kw.arg not in accepted and not has_kwargs:
                yield self.finding(
                    ctx, anchor,
                    f"entry {key!r}: {owner.node.name}.__init__ has "
                    f"no parameter {kw.arg!r}")
            supplied.add(kw.arg)
        missing = [p for p in required if p not in supplied]
        if missing:
            yield self.finding(
                ctx, anchor,
                f"entry {key!r}: factory leaves required parameters "
                f"{missing} of {owner.node.name}.__init__ unfilled")
