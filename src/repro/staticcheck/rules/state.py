"""GW4xx — state-contract rules for the resumable sim stack.

The resumable-horizon machinery (PR 5) rests on three conventions the
compiler cannot check: policy/engine snapshots must cover every piece
of mutable state, the pickled :class:`EngineState` carrier must have a
field for each stateful engine attribute, and the sim-cache content
key must see every ``SimulationConfig`` field.  A single forgotten
attribute silently corrupts resumed runs and CRN pairing — the exact
bug class the paper's bit-identical goldens exist to prevent.  These
rules machine-check all three contracts on the attribute-level state
model (:class:`~repro.staticcheck.project.ClassStateModel`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.staticcheck.core import Finding, ProjectRule, dotted_name, \
    own_method, register_rule
from repro.staticcheck.project import (
    ClassStateModel,
    ModuleInfo,
    ProjectContext,
    Symbol,
)

#: The module whose policy hierarchy carries the snapshot contract.
_POLICY_MODULE = "repro.sim.queues"
_POLICY_BASE = "QueuePolicy"

#: The module owning the sim-result content key.
_CACHE_MODULE = "repro.sim.cache"
_CONFIG_CLASS = "SimulationConfig"


def _attr_stores(node: ast.AST) -> Set[str]:
    """Attribute names stored on *any* receiver inside ``node``."""
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) \
                and isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
    return out


def _self_attr_reads(node: ast.AST, self_name: str) -> Set[str]:
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id == self_name \
                and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _receiver_name(method: ast.AST) -> Optional[str]:
    args = method.args
    positional = list(args.posonlyargs) + list(args.args)
    return positional[0].arg if positional else None


def _dataclass_fields(cls_node: ast.ClassDef) -> Set[str]:
    out: Set[str] = set()
    for node in cls_node.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out


def _is_dataclass_symbol(symbol: Symbol) -> bool:
    return any("dataclass" in dec for dec in symbol.decorators)


@register_rule
class SnapshotCoverageRule(ProjectRule):
    """Snapshot/resume must cover every stateful attribute (GW401).

    Rationale:
        A resumed run is only bit-identical to an uninterrupted one if
        ``snapshot()`` captures, and ``resume()`` restores, *every*
        attribute the class mutates.  A forgotten attribute does not
        crash — it silently resets to its construction-time value,
        corrupting sequential stopping and CRN pairing.

    Example::

        class BrokenQueue(QueuePolicy):
            def __init__(self):
                self._queue = deque()
                self._served = 0        # mutated in complete()

            def state_snapshot(self):
                clone = BrokenQueue()
                clone._queue = copy.deepcopy(self._queue)
                return clone            # _served is never copied

    Fix:
        Prefer the inherited deepcopy ``state_snapshot`` (it covers
        everything by construction).  If an override is unavoidable,
        reference every attribute assigned in ``__init__`` or mutated
        by any method.  For engine-state classes, ``snapshot()`` must
        read every mutated attribute and ``resume()`` must assign
        every ``__init__``-assigned one.  Suppress only with a reason
        explaining why the attribute is genuinely derivable:
        ``# greedwork: ignore[GW401] -- <why>``.
    """

    rule_id = "GW401"
    name = "snapshot-coverage"
    description = ("QueuePolicy.state_snapshot overrides and "
                   "engine snapshot()/resume() pairs must cover every "
                   "stateful attribute of the class")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        yield from self._check_policies(project)
        yield from self._check_engines(project)

    def _check_policies(self, project: ProjectContext
                        ) -> Iterable[Finding]:
        for symbol in project.subclasses_of(_POLICY_MODULE,
                                            _POLICY_BASE):
            info = project.modules.get(symbol.module)
            if info is None:
                continue
            method = own_method(symbol.node, "state_snapshot")
            if method is None:
                continue                # inherited deepcopy: covered
            model = project.class_state(symbol.module, symbol.name)
            if model is None \
                    or "state_snapshot" in model.whole_self_methods:
                continue
            missing = sorted(model.stateful
                             - model.reads_in("state_snapshot"))
            if missing:
                yield self.finding(
                    info.ctx, method,
                    f"{symbol.name}.state_snapshot does not cover "
                    f"stateful attribute(s) {', '.join(missing)}; a "
                    f"resumed run would silently reset them")

    def _check_engines(self, project: ProjectContext
                       ) -> Iterable[Finding]:
        for info in project.infos:
            if info.module is None \
                    or not info.module.startswith("repro"):
                continue
            for symbol in info.symbols.values():
                if symbol.kind != "class":
                    continue
                snapshot = own_method(symbol.node, "snapshot")
                resume = own_method(symbol.node, "resume")
                if snapshot is None or resume is None:
                    continue
                model = project.class_state(info.module, symbol.name)
                if model is None:
                    continue
                yield from self._check_engine_snapshot(
                    info, symbol, model, snapshot)
                yield from self._check_engine_resume(
                    info, symbol, model, resume)

    def _check_engine_snapshot(self, info: ModuleInfo, symbol: Symbol,
                               model: ClassStateModel,
                               snapshot: ast.AST) -> Iterable[Finding]:
        if "snapshot" in model.whole_self_methods:
            return
        missing = sorted(model.mutated_after_init
                         - model.reads_in("snapshot"))
        if missing:
            yield self.finding(
                info.ctx, snapshot,
                f"{symbol.name}.snapshot does not read mutated "
                f"attribute(s) {', '.join(missing)}; they cannot be "
                f"restored on resume")

    def _check_engine_resume(self, info: ModuleInfo, symbol: Symbol,
                             model: ClassStateModel,
                             resume: ast.AST) -> Iterable[Finding]:
        assigned = _attr_stores(resume)
        missing = sorted(model.mutated_after_init - assigned)
        if missing:
            yield self.finding(
                info.ctx, resume,
                f"{symbol.name}.resume does not restore mutated "
                f"attribute(s) {', '.join(missing)}; a resumed engine "
                f"would run with construction-time values")


@register_rule
class EngineStatePicklingRule(ProjectRule):
    """Stateful attributes must enter the pickled carrier (GW402).

    Rationale:
        ``snapshot()`` typically returns a dataclass (the
        ``EngineState`` pattern) that is pickled into the sim cache.
        Reading a mutated attribute inside ``snapshot`` is not enough:
        its value must flow into the carrier's constructor, otherwise
        the pickle simply does not contain it and a cross-process
        resume reconstructs stale state.

    Example::

        def snapshot(self):
            log.debug(self.n_departures)    # read, but not captured
            return EngineState(now=self.now)  # n_departures missing

    Fix:
        Pass every mutated attribute as a constructor argument of the
        carrier dataclass (and give the dataclass a field for it).
        Suppress only when the attribute is provably recomputed by
        ``resume()``: ``# greedwork: ignore[GW402] -- <why>``.
    """

    rule_id = "GW402"
    name = "engine-state-pickling"
    description = ("every attribute mutated after __init__ must flow "
                   "into the snapshot carrier dataclass constructor, "
                   "and only real carrier fields may be passed")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        for info in project.infos:
            if info.module is None \
                    or not info.module.startswith("repro"):
                continue
            for symbol in info.symbols.values():
                if symbol.kind != "class":
                    continue
                for method_name in ("snapshot", "state_snapshot"):
                    method = own_method(symbol.node, method_name)
                    if method is not None:
                        yield from self._check_snapshot(
                            project, info, symbol, method)

    def _check_snapshot(self, project: ProjectContext,
                        info: ModuleInfo, symbol: Symbol,
                        method: ast.AST) -> Iterable[Finding]:
        self_name = _receiver_name(method)
        if self_name is None:
            return
        model = project.class_state(info.module or "", symbol.name)
        if model is None:
            return
        for node in ast.walk(method):
            if not isinstance(node, ast.Return) \
                    or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            carrier = self._resolve_carrier(project, info, call)
            if carrier is None:
                continue
            carrier_symbol, carrier_fields = carrier
            captured = _self_attr_reads(call, self_name)
            missing = sorted(model.mutated_after_init - captured)
            if missing:
                yield self.finding(
                    info.ctx, call,
                    f"{symbol.name}.snapshot does not capture mutated "
                    f"attribute(s) {', '.join(missing)} in "
                    f"{carrier_symbol.name}; the pickled state would "
                    f"omit them")
            for keyword in call.keywords:
                if keyword.arg is not None \
                        and keyword.arg not in carrier_fields:
                    yield self.finding(
                        info.ctx, keyword.value,
                        f"{symbol.name}.snapshot passes "
                        f"{keyword.arg!r} but {carrier_symbol.name} "
                        f"has no such field")

    @staticmethod
    def _resolve_carrier(project: ProjectContext, info: ModuleInfo,
                         call: ast.Call):
        dotted = dotted_name(call.func)
        if not dotted:
            return None
        target = info.resolve_dotted(dotted)
        if target is None and dotted in info.symbols:
            target = f"{info.module}:{dotted}"
        if target is None or ":" not in target:
            return None
        mod, _, name = target.partition(":")
        carrier_info = project.modules.get(mod)
        carrier_symbol = carrier_info.symbols.get(name) \
            if carrier_info is not None else None
        if carrier_symbol is None \
                or not isinstance(carrier_symbol.node, ast.ClassDef) \
                or not _is_dataclass_symbol(carrier_symbol):
            return None
        return carrier_symbol, _dataclass_fields(carrier_symbol.node)


@register_rule
class CacheKeyCompletenessRule(ProjectRule):
    """Sim-cache keys must see every config field (GW403).

    Rationale:
        The sim cache returns a stored result whenever the content key
        matches; a ``SimulationConfig`` field the key function does
        not hash makes two *different* simulations collide — the cache
        then serves results for parameters that were never run.

    Example::

        def config_key(config, engine_version):
            payload = {"rates": config.rates,
                       "policy": config.policy}
            # every other field (seed, horizon, ...) collides
            return sha256(payload)

    Fix:
        Iterate ``dataclasses.fields(config)`` so new fields enter the
        key automatically; exclude a field only with an explicit
        ``spec.name == "..."`` comparison.  A key function may instead
        hand ``config`` to a module function that iterates its fields;
        a skip that function compares against a parameter is then a
        string the caller passes (``skip="horizon"`` in ``state_key``
        is the sanctioned example), and is checked the same way.
        Suppress only with a proof the field cannot affect results:
        ``# greedwork: ignore[GW403] -- <why>``.
    """

    rule_id = "GW403"
    name = "cache-key-completeness"
    description = ("key functions in repro.sim.cache must cover every "
                   "SimulationConfig field, via fields() iteration or "
                   "exhaustive explicit reads; skips must name real "
                   "fields")

    def check_project(self, project: ProjectContext
                      ) -> Iterable[Finding]:
        cache_info = project.modules.get(_CACHE_MODULE)
        if cache_info is None or cache_info.ctx.tree is None:
            return
        config_fields = self._config_fields(project)
        if config_fields is None:
            return
        functions = [node for node in cache_info.ctx.tree.body
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and "config" in {a.arg for a in (
                         list(node.args.posonlyargs)
                         + list(node.args.args))}]
        # Functions iterating fields(config), by name: the parameters
        # their loop compares field names against.
        walkers = {}
        for node in functions:
            loop = self._fields_loop(node)
            if loop is not None:
                walkers[node.name] = self._skip_params(loop)
        for node in functions:
            if "key" in node.name:
                yield from self._check_key_function(
                    cache_info, node, config_fields, walkers)

    @staticmethod
    def _config_fields(project: ProjectContext) -> Optional[Set[str]]:
        for info in project.modules.values():
            symbol = info.symbols.get(_CONFIG_CLASS)
            if symbol is not None \
                    and isinstance(symbol.node, ast.ClassDef) \
                    and _is_dataclass_symbol(symbol):
                return _dataclass_fields(symbol.node)
        return None

    def _check_key_function(self, info: ModuleInfo, func: ast.AST,
                            config_fields: Set[str],
                            walkers: Dict[str, Set[str]]
                            ) -> Iterable[Finding]:
        loop = self._fields_loop(func)
        call = None if loop is not None else self._delegation(func,
                                                               walkers)
        if loop is not None or call is not None:
            skipped = (self._skipped_names(loop) if loop is not None
                       else self._passed_skips(call,
                                               walkers[call.func.id]))
            for name, node in skipped:
                if name not in config_fields:
                    yield self.finding(
                        info.ctx, node,
                        f"{func.name} skips {name!r}, which is not a "
                        f"{_CONFIG_CLASS} field (typo?)")
            return
        covered: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "config":
                covered.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "getattr" \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == "config" \
                    and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                covered.add(node.args[1].value)
        missing = sorted(config_fields - covered)
        if missing:
            yield self.finding(
                info.ctx, func,
                f"{func.name} never reads config field(s) "
                f"{', '.join(missing)}; different simulations would "
                f"share one cache entry — iterate "
                f"dataclasses.fields(config) instead")

    @staticmethod
    def _fields_loop(func: ast.AST) -> Optional[ast.For]:
        for node in ast.walk(func):
            if isinstance(node, ast.For) \
                    and isinstance(node.iter, ast.Call):
                dotted = dotted_name(node.iter.func)
                if dotted.split(".")[-1] == "fields" and any(
                        isinstance(arg, ast.Name)
                        and arg.id == "config"
                        for arg in node.iter.args):
                    return node
        return None

    @staticmethod
    def _delegation(func: ast.AST, walkers: Dict[str, Set[str]]
                    ) -> Optional[ast.Call]:
        """A call in ``func`` handing ``config`` to a fields walker."""
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in walkers \
                    and node.func.id != getattr(func, "name", None) \
                    and any(isinstance(arg, ast.Name)
                            and arg.id == "config"
                            for arg in node.args + [kw.value for kw
                                                    in node.keywords]):
                return node
        return None

    @staticmethod
    def _skip_params(loop: ast.For) -> Set[str]:
        """Names a fields loop compares ``spec.name`` against."""
        return {node.comparators[0].id for node in ast.walk(loop)
                if isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.left, ast.Attribute)
                and node.left.attr == "name"
                and isinstance(node.comparators[0], ast.Name)}

    @staticmethod
    def _passed_skips(call: ast.Call, params: Set[str]):
        """String constants a call passes for a walker's skip
        parameters, with their nodes."""
        for kw in call.keywords:
            if kw.arg not in params:
                continue
            values = (kw.value.elts if isinstance(kw.value, (
                ast.Tuple, ast.List, ast.Set)) else [kw.value])
            for value in values:
                if isinstance(value, ast.Constant) \
                        and isinstance(value.value, str):
                    yield value.value, value

    @staticmethod
    def _skipped_names(loop: ast.For):
        for node in ast.walk(loop):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            left = node.left
            if not (isinstance(left, ast.Attribute)
                    and left.attr == "name"):
                continue
            comparator = node.comparators[0]
            if isinstance(node.ops[0], ast.Eq) \
                    and isinstance(comparator, ast.Constant) \
                    and isinstance(comparator.value, str):
                yield comparator.value, node
            elif isinstance(node.ops[0], ast.In) \
                    and isinstance(comparator, (ast.Tuple, ast.List,
                                                ast.Set)):
                for element in comparator.elts:
                    if isinstance(element, ast.Constant) \
                            and isinstance(element.value, str):
                        yield element.value, node
