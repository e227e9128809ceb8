"""GW002 — discipline-contract conformance.

Every entry of ``_FACTORIES`` in ``repro.disciplines.registry`` must be
a zero-argument factory producing an
:class:`~repro.disciplines.base.AllocationFunction`.  This rule checks
the contract *statically* — no imports are executed — by resolving each
registered name through the registry module's import statements to its
defining module inside ``disciplines/`` and inspecting the class there:

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

The rule fires on whichever file defines ``_FACTORIES`` under a
``disciplines`` package, so test fixtures can exercise it in synthetic
trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.staticcheck.core import FileContext, Finding, NodeIndex, Rule, \
    register_rule

BASE_CLASS = "AllocationFunction"
BASE_MODULE_SUFFIX = ".base"
#: The full-profile value forms a discipline may write, with the name
#: of each one's parameter.
VALUE_FORMS = (("congestion", "rates"), ("congestion_many", "profiles"))


@dataclass
class _ClassInfo:
    """A class definition plus where it was found."""

    node: ast.ClassDef
    module_path: Path
    imports: Dict[str, str]      # local name -> dotted source module


def _module_imports(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map of names bound by ``from X import Y [as Z]`` among ``nodes``.

    ``nodes`` come in ``ast.walk`` order, so a later import of a name
    overrides an earlier one.
    """
    out: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _find_class(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
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


def _param_names(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [p for p in names if p != "self"]


@register_rule
class DisciplineContractRule(Rule):
    """Statically verify registered discipline factories (GW002)."""

    rule_id = "GW002"
    name = "discipline-contract"
    description = ("entries registered in disciplines/registry.py must "
                   "statically implement the AllocationFunction surface "
                   "and be zero-argument constructible")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module is None or ".disciplines." not in f"{ctx.module}.":
            return
        factories = self._find_factories(ctx.nodes)
        if factories is None:
            return
        imports = _module_imports(ctx.nodes.of(ast.ImportFrom))
        package_dir = ctx.path.resolve().parent
        for key_node, value_node in zip(factories.keys, factories.values):
            key = (key_node.value
                   if isinstance(key_node, ast.Constant) else None)
            if not isinstance(key, str):
                yield self.finding(ctx, key_node or factories,
                                   "registry keys must be string literals")
                continue
            yield from self._check_entry(ctx, key, value_node, imports,
                                         package_dir)

    # -- registry parsing --------------------------------------------------

    @staticmethod
    def _find_factories(nodes: NodeIndex) -> Optional[ast.Dict]:
        for node in nodes.of(ast.Assign, ast.AnnAssign):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id == "_FACTORIES"
                        and isinstance(value, ast.Dict)):
                    return value
        return None

    def _check_entry(self, ctx: FileContext, key: str,
                     value: ast.expr, imports: Dict[str, str],
                     package_dir: Path) -> Iterable[Finding]:
        if isinstance(value, ast.Name):
            yield from self._check_class_entry(
                ctx, key, value, value.id, call=None,
                imports=imports, package_dir=package_dir)
        elif isinstance(value, ast.Lambda):
            if value.args.args or value.args.posonlyargs \
                    or value.args.kwonlyargs:
                yield self.finding(
                    ctx, value,
                    f"factory for {key!r} must take no arguments")
                return
            body = value.body
            if not (isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)):
                yield self.finding(
                    ctx, value,
                    f"factory lambda for {key!r} must directly "
                    f"construct a discipline class")
                return
            yield from self._check_class_entry(
                ctx, key, value, body.func.id, call=body,
                imports=imports, package_dir=package_dir)
        else:
            yield self.finding(
                ctx, value,
                f"factory for {key!r} must be a class name or a "
                f"zero-argument lambda constructing one")

    # -- class resolution --------------------------------------------------

    def _resolve_class(self, class_name: str, imports: Dict[str, str],
                       package_dir: Path,
                       ) -> Tuple[Optional[_ClassInfo], Optional[str]]:
        """Find the AST of ``class_name``, following one import hop.

        Returns ``(info, error)``; exactly one is non-None.
        """
        source_module = imports.get(class_name)
        if source_module is None:
            return None, (f"cannot resolve {class_name!r}: not defined "
                          f"locally and not imported")
        module_file = self._module_file(source_module, package_dir)
        if module_file is None:
            return None, (f"cannot locate module {source_module!r} "
                          f"for {class_name!r}")
        try:
            tree = ast.parse(module_file.read_text(encoding="utf-8"),
                             filename=str(module_file))
        except (OSError, UnicodeDecodeError) as exc:
            return None, f"cannot read {module_file.name}: {exc}"
        except SyntaxError as exc:
            return None, f"cannot parse {module_file.name}: {exc.msg}"
        node = _find_class(tree, class_name)
        if node is None:
            return None, (f"{class_name!r} not found in "
                          f"{source_module!r}")
        return _ClassInfo(node, module_file,
                          _module_imports(ast.walk(tree))), None

    @staticmethod
    def _module_file(dotted: str, package_dir: Path) -> Optional[Path]:
        """Map ``repro.disciplines.x`` to a file near the registry.

        Only modules inside the same ``disciplines`` package (or its
        parent package, for ``exceptions`` etc.) are resolvable; the
        contract only concerns discipline classes, which must live
        there.
        """
        parts = dotted.split(".")
        if "disciplines" in parts:
            rel = parts[parts.index("disciplines") + 1:]
            candidate = package_dir.joinpath(*rel).with_suffix(".py")
            if candidate.is_file():
                return candidate
            init = package_dir.joinpath(*rel, "__init__.py")
            if init.is_file():
                return init
        return None

    # -- the contract ------------------------------------------------------

    def _check_class_entry(self, ctx: FileContext, key: str,
                           anchor: ast.expr, class_name: str,
                           call: Optional[ast.Call],
                           imports: Dict[str, str],
                           package_dir: Path) -> Iterable[Finding]:
        info, error = self._resolve_class(class_name, imports, package_dir)
        if info is None:
            yield self.finding(ctx, anchor, f"entry {key!r}: {error}")
            return
        chain, chain_error = self._base_chain(info, package_dir)
        if chain_error is not None:
            yield self.finding(ctx, anchor,
                               f"entry {key!r}: {chain_error}")
            return
        yield from self._check_congestion(ctx, key, anchor, chain)
        yield from self._check_name_attr(ctx, key, anchor, chain)
        yield from self._check_constructible(ctx, key, anchor, chain, call)

    def _base_chain(self, info: _ClassInfo, package_dir: Path,
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
                source = current.imports.get(BASE_CLASS, "")
                if not source.endswith(BASE_MODULE_SUFFIX) \
                        and not source.endswith("disciplines"):
                    return chain, (
                        f"{current.node.name!r} inherits "
                        f"{BASE_CLASS!r} from unexpected module "
                        f"{source!r}")
                return chain, None
            base_info, error = self._resolve_class(
                base_name, current.imports, package_dir)
            if base_info is None:
                # Try the defining module itself for a local base.
                try:
                    tree = ast.parse(current.module_path.read_text(
                        encoding="utf-8"))
                except (OSError, UnicodeDecodeError):
                    return chain, error
                node = _find_class(tree, base_name)
                if node is None:
                    return chain, error
                base_info = _ClassInfo(node, current.module_path,
                                       _module_imports(ast.walk(tree)))
            chain.append(base_info)
            current = base_info
        return chain, "inheritance chain too deep (cycle?)"

    def _check_congestion(self, ctx: FileContext, key: str,
                          anchor: ast.expr,
                          chain: List[_ClassInfo]) -> Iterable[Finding]:
        for info in chain:
            for form, param in VALUE_FORMS:
                method = _find_method(info.node, form)
                if method is None or self._is_abstract(method):
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
        init = None
        owner = chain[0]
        for info in chain:
            init = _find_method(info.node, "__init__")
            if init is not None:
                owner = info
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
        accepted = _param_names(init)
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
