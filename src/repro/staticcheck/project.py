"""Whole-program context for project-scoped rules.

:class:`ProjectContext` parses every file once and derives three
cross-file structures that per-file rules cannot see:

* a **symbol table** — every top-level function, class, and constant
  of every ``repro`` module, with its AST node and decorator/base
  names (:class:`Symbol`);
* an **alias table** per module — each bound import name mapped
  back to its defining module, with relative imports resolved; and
* an approximate **call graph** — for each top-level function and
  method, the set of callee names it invokes, resolved through the
  alias table to dotted ``module:name`` targets where possible.

On top of these sits the **state-flow layer** (PR 6), which the
state-contract and parallel-safety rule families consume:

* a per-class **attribute state model** (:class:`ClassStateModel`) —
  which attributes ``__init__`` assigns, which methods rebind or
  mutate them afterwards, and which methods read them — merged
  through in-project base classes;
* per-function **purity/escape summaries**
  (:class:`FunctionSummary`) — which module-level names a function
  reads or writes (rebinding via ``global``, assigning into, or
  calling a mutator method on); and
* **worker-entry reachability** — the callables handed to process
  pools (``multiprocessing.Pool`` / ``ProcessPoolExecutor``) and the
  transitive closure of the call graph from them, so rules can tell
  which code runs inside worker processes.

The context distinguishes *analyzed* files (those the user asked to
check, for which findings may be reported) from *reference-only* files
(extra roots such as ``examples/`` and ``benchmarks/`` scanned so that
whole-program rules see subclasses, callers and pool dispatchers the
user did not ask to check).  Files that fail to parse
contribute nothing here; the runner reports them as ``GW000``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.staticcheck.core import (
    FileContext,
    dotted_name,
    names_under,
    parameter_names,
    root_name,
    walk_nodes,
)

#: Directories under the project root that are scanned for *references*
#: even when the user only asked to check a subset of the tree.
REFERENCE_ROOTS: Tuple[str, ...] = ("src", "tests", "examples",
                                    "benchmarks")

#: Container methods that mutate their receiver in place; used by the
#: stateful-discipline rule to spot writes through module-level names.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "appendleft", "extendleft",
})

#: Pool constructors whose dispatched callables run in *other
#: processes* (shared-memory executors are deliberately absent);
#: ``WorkerPool`` is the library's own reusable handle.
_POOL_CONSTRUCTORS = frozenset({"Pool", "ProcessPoolExecutor",
                                "WorkerPool"})

#: Methods that ship a callable to pool workers; the callable is the
#: first positional argument for every one of them.
_POOL_DISPATCH_METHODS = frozenset({
    "map", "imap", "imap_unordered", "starmap", "starmap_async",
    "map_async", "submit", "apply_async",
})


@dataclass
class Symbol:
    """One top-level definition in a module."""

    module: str
    name: str
    kind: str                       # "function" | "class" | "constant"
    lineno: int
    col: int
    node: ast.AST
    decorators: List[str] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)


@dataclass
class ClassStateModel:
    """Attribute-level state model of one class (bases merged in).

    Built from ``self.<attr>`` traffic inside instance methods:
    stores, augmented assigns, subscript stores, and calls to known
    in-place mutators all count as *writes*; plain loads count as
    *reads*.  ``classmethod``/``staticmethod`` bodies are excluded
    (their attribute traffic does not target the instance).
    """

    module: str
    name: str
    #: Attribute -> line of its first assignment inside ``__init__``.
    init_assigned: Dict[str, int] = field(default_factory=dict)
    #: Method name -> attributes it writes (``__init__`` excluded).
    method_writes: Dict[str, Set[str]] = field(default_factory=dict)
    #: Method name -> attributes it reads.
    method_reads: Dict[str, Set[str]] = field(default_factory=dict)
    #: Method name -> its AST node (instance methods *and* class/
    #: static methods, so contract rules can inspect any of them).
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    #: Methods that pass ``self`` whole to a call (``deepcopy(self)``,
    #: ``pickle.dumps(self)``...): such a method covers every
    #: attribute by construction.
    whole_self_methods: Set[str] = field(default_factory=set)

    @property
    def stateful(self) -> Set[str]:
        """Every attribute the instance owns: init-assigned or written."""
        out = set(self.init_assigned)
        for attrs in self.method_writes.values():
            out.update(attrs)
        return out

    @property
    def mutated_after_init(self) -> Set[str]:
        """Attributes some non-``__init__`` method writes."""
        out: Set[str] = set()
        for attrs in self.method_writes.values():
            out.update(attrs)
        return out

    def reads_in(self, method: str) -> Set[str]:
        """Attributes of ``self`` the named method reads."""
        return self.method_reads.get(method, set())


@dataclass
class FunctionSummary:
    """Module-level state touched by one function (purity summary).

    ``global_writes`` maps each module-level name the function rebinds
    (``global``), assigns into, or calls a mutator method on, to the
    first node doing so; ``global_reads`` maps each module-level name
    it merely loads.  Imported names are excluded from reads — they
    are bindings, not state.
    """

    key: str                            # "module:qualname"
    module: str
    node: ast.AST
    global_reads: Dict[str, ast.AST] = field(default_factory=dict)
    global_writes: Dict[str, ast.AST] = field(default_factory=dict)


class _FunctionTables(NamedTuple):
    """What :func:`_scan_function` yields for every function, by key."""

    call_graph: Dict[str, Set[str]]
    summaries: Dict[str, FunctionSummary]
    worker_entries: Dict[str, str]


class ModuleInfo:
    """Per-file slice of the project: symbols and imports."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        #: Top-level functions/classes/constants by name.
        self.symbols: Dict[str, Symbol] = {}
        #: Every name bound at module level (defs, assigns, imports).
        self.module_level_names: Set[str] = set()
        #: Local alias -> dotted target: ``"pkg.mod"`` for module
        #: imports, ``"pkg.mod:attr"`` for from-imports.
        self.aliases: Dict[str, str] = {}
        #: Whether the module has a ``from ... import *``, which binds
        #: names no index can list.
        self.star_import = False
        if ctx.tree is not None:
            self._index(ctx.tree)

    # -- indexing -----------------------------------------------------------

    def _index(self, tree: ast.Module) -> None:
        for node in tree.body:
            self._index_toplevel(node)
        # Walk order matters: a later import of a name overrides an
        # earlier one in ``aliases``.
        for node in _statements(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._index_import(node)

    def _index_toplevel(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._add_symbol(node.name, "function", node,
                             decorators=node.decorator_list)
        elif isinstance(node, ast.ClassDef):
            self._add_symbol(node.name, "class", node,
                             decorators=node.decorator_list,
                             bases=node.bases)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name, anchor in _target_names(target):
                    self.module_level_names.add(name)
                    if name not in self.symbols:
                        self.symbols[name] = Symbol(
                            module=self.module or "", name=name,
                            kind="constant", lineno=anchor.lineno,
                            col=anchor.col_offset, node=anchor)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*":
                    self.module_level_names.add(bound)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / fallback-import blocks: index one level in.
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.stmt):
                    self._index_toplevel(sub)

    def _add_symbol(self, name: str, kind: str, node: ast.AST,
                    decorators: Sequence[ast.expr] = (),
                    bases: Sequence[ast.expr] = ()) -> None:
        self.module_level_names.add(name)
        self.symbols[name] = Symbol(
            module=self.module or "", name=name, kind=kind,
            lineno=node.lineno, col=node.col_offset, node=node,
            decorators=[dotted_name(_callee(d)) for d in decorators],
            bases=[dotted_name(_callee(b)) for b in bases])

    def _index_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                self.aliases[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = resolve_import_base(self.ctx, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    self.star_import = True
                    continue
                bound = alias.asname or alias.name
                self.aliases[bound] = f"{base}:{alias.name}"

    # -- queries ------------------------------------------------------------

    def resolve(self, name: str) -> Optional[str]:
        """Dotted ``module`` or ``module:attr`` target of a local name."""
        return self.aliases.get(name)

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Resolve ``a.b.c`` through the alias table.

        ``curve.value`` with ``curve`` unknown returns ``None``;
        ``mm1.mean_queue`` with ``mm1 -> repro.queueing.mm1`` returns
        ``"repro.queueing.mm1:mean_queue"``.
        """
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return None
        if not rest:
            return target
        if ":" in target:
            return f"{target}.{rest}"
        leaf, _, attr = rest.partition(".")
        resolved = f"{target}:{leaf}"
        return f"{resolved}.{attr}" if attr else resolved


def resolve_import_base(ctx: FileContext,
                        node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module a ``from ... import`` pulls from."""
    if node.level == 0:
        return node.module
    if ctx.module is None:
        return None
    base = ctx.module.split(".")
    drop = node.level - 1 if ctx.path.stem == "__init__" else node.level
    base = base[:len(base) - drop] if drop else base
    if not base:
        return None
    if node.module:
        return ".".join(base + node.module.split("."))
    return ".".join(base)


class ProjectContext:
    """The whole program, parsed once, with cross-file indexes."""

    def __init__(self, analyzed: Sequence[FileContext],
                 reference_only: Sequence[FileContext] = (),
                 project_root: Optional[Path] = None) -> None:
        self.project_root = project_root
        self.analyzed = list(analyzed)
        self.reference_only = list(reference_only)
        #: ModuleInfo for every parsed file, analyzed first.
        self.infos: List[ModuleInfo] = [
            ModuleInfo(ctx) for ctx in self.analyzed + self.reference_only
            if ctx.tree is not None]
        #: Dotted repro module name -> its ModuleInfo; an analyzed file
        #: wins over a reference-only file of the same module name.
        self.modules: Dict[str, ModuleInfo] = {}
        for info in self.infos:
            if info.module is not None:
                self.modules.setdefault(info.module, info)
        self._analyzed_paths = {ctx.display_path for ctx in self.analyzed}
        self._functions: Optional[_FunctionTables] = None
        self._class_states: Dict[str, Optional[ClassStateModel]] = {}
        self._mutable_globals: Dict[str, Set[str]] = {}
        self._worker_reachable: Optional[Dict[str, str]] = None

    # -- queries ------------------------------------------------------------

    def is_analyzed(self, display_path: str) -> bool:
        """Whether findings may be reported against this file."""
        return display_path in self._analyzed_paths

    @property
    def call_graph(self) -> Dict[str, Set[str]]:
        """Approximate caller -> callee map.

        Keys are ``module:qualname``; values contain resolved
        ``module:name`` targets where the alias table allows it and
        bare dotted names otherwise.  Built lazily and cached.
        """
        return self._function_tables().call_graph

    def _function_tables(self) -> _FunctionTables:
        """The call graph, the function summaries and the worker entry
        points, built together from one walk per function on first use.
        """
        if self._functions is None:
            graph: Dict[str, Set[str]] = {}
            summaries: Dict[str, FunctionSummary] = {}
            entries: Dict[str, str] = {}
            for info in self.infos:
                if info.module is None or info.ctx.tree is None:
                    continue
                for qual, func in _iter_functions(info.ctx.tree):
                    key = f"{info.module}:{qual}"
                    summaries[key], graph[key], targets = \
                        _scan_function(key, info, func)
                    for target in targets:
                        entries.setdefault(self._normalize_target(target),
                                           key)
            self._functions = _FunctionTables(graph, summaries, entries)
        return self._functions

    def subclasses_of(self, module: str, class_name: str) -> List[Symbol]:
        """Transitive subclasses of ``module:class_name`` project-wide."""
        wanted = {f"{module}:{class_name}"}
        out: List[Symbol] = []
        changed = True
        seen: Set[str] = set()
        while changed:
            changed = False
            for info in self.infos:
                if info.module is None:
                    continue
                for symbol in info.symbols.values():
                    if symbol.kind != "class":
                        continue
                    key = f"{info.module}:{symbol.name}"
                    if key in seen:
                        continue
                    for base in symbol.bases:
                        target = info.resolve_dotted(base) or \
                            (f"{info.module}:{base}"
                             if base in info.symbols else base)
                        if target in wanted or base in {
                                w.split(":")[-1] for w in wanted}:
                            wanted.add(key)
                            seen.add(key)
                            out.append(symbol)
                            changed = True
                            break
        return out

    # -- state-flow layer ---------------------------------------------------

    def class_state(self, module: str, class_name: str
                    ) -> Optional[ClassStateModel]:
        """Attribute state model of ``module:class_name``, bases merged.

        Only bases resolvable to in-project classes contribute; a base
        from outside the parsed tree is silently treated as stateless.
        Returns ``None`` when the class itself cannot be found.
        """
        return self._class_state(module, class_name, set())

    def _class_state(self, module: str, class_name: str,
                     visiting: Set[str]) -> Optional[ClassStateModel]:
        key = f"{module}:{class_name}"
        if key in self._class_states:
            return self._class_states[key]
        if key in visiting:             # inheritance cycle: stop
            return None
        visiting.add(key)
        info = self.modules.get(module)
        symbol = info.symbols.get(class_name) if info is not None else None
        if symbol is None or not isinstance(symbol.node, ast.ClassDef):
            self._class_states[key] = None
            return None
        model = _build_class_model(module, symbol.node)
        for base in symbol.bases:
            target = info.resolve_dotted(base)
            if target is None and base in info.symbols:
                target = f"{module}:{base}"
            if target is None or ":" not in target:
                continue
            base_mod, _, base_name = target.partition(":")
            if "." in base_name:
                continue
            parent = self._class_state(base_mod, base_name, visiting)
            if parent is not None:
                _merge_base_model(model, parent)
        self._class_states[key] = model
        return model

    @property
    def function_summaries(self) -> Dict[str, FunctionSummary]:
        """``module:qualname`` -> module-state purity summary."""
        return self._function_tables().summaries

    def module_mutable_globals(self, module: str) -> Set[str]:
        """Module-level names some function in ``module`` writes.

        This is the working definition of *worker-shared mutable
        state*: a module-level binding no function ever writes is
        configuration, not state.
        """
        if module not in self._mutable_globals:
            written: Set[str] = set()
            for summary in self.function_summaries.values():
                if summary.module == module:
                    written.update(summary.global_writes)
            self._mutable_globals[module] = written
        return self._mutable_globals[module]

    def worker_entry_points(self) -> Dict[str, str]:
        """Callable shipped to a process pool -> the dispatching scope.

        Keys are resolved ``module:qualname`` targets of the first
        positional argument of ``pool.map``/``submit``/... calls on
        receivers constructed from ``multiprocessing.Pool``,
        ``ProcessPoolExecutor`` or :class:`repro.parallel.WorkerPool`.
        """
        return self._function_tables().worker_entries

    def reachable_from_workers(self) -> Dict[str, str]:
        """Functions transitively callable inside pool workers.

        Maps each reachable ``module:qualname`` to the worker entry
        point it is reached from (first found; breadth-first, so the
        shortest chain wins).  Approximate by construction: calls
        through local variables or subscripts do not traverse.
        """
        if self._worker_reachable is None:
            graph = self.call_graph
            origin: Dict[str, str] = {}
            queue: List[Tuple[str, str]] = [
                (entry, entry) for entry in sorted(
                    self.worker_entry_points())]
            while queue:
                key, root = queue.pop(0)
                if key in origin:
                    continue
                origin[key] = root
                for callee in sorted(graph.get(key, ())):
                    for nxt in self._expand_callee(key, callee):
                        if nxt not in origin:
                            queue.append((nxt, root))
            self._worker_reachable = origin
        return self._worker_reachable

    def _normalize_target(self, target: str) -> str:
        """Re-root ``pkg:sub.attr`` to ``pkg.sub:attr`` for submodules.

        ``from repro.sim import cache as sim_cache`` aliases resolve
        to ``repro.sim:cache``; traffic through the alias then renders
        as ``repro.sim:cache.enabled`` while the call graph keys it as
        ``repro.sim.cache:enabled``.
        """
        while ":" in target:
            mod, _, rest = target.partition(":")
            head, _, tail = rest.partition(".")
            if tail and f"{mod}.{head}" in self.modules:
                target = f"{mod}.{head}:{tail}"
            else:
                break
        return target

    def _expand_callee(self, caller_key: str, callee: str) -> List[str]:
        """Graph keys a callee string may refer to (possibly none)."""
        caller_mod = caller_key.partition(":")[0]
        if ":" not in callee:
            info = self.modules.get(caller_mod)
            head = callee.split(".")[0]
            if head == "self" and "." in caller_key.partition(":")[2]:
                # self.method() inside a method: same class.
                cls = caller_key.partition(":")[2].split(".")[0]
                callee = f"{caller_mod}:{cls}.{callee.split('.', 1)[1]}"
            elif info is not None and head in info.symbols:
                callee = f"{caller_mod}:{callee}"
            else:
                return []
        callee = self._normalize_target(callee)
        graph = self.call_graph
        out: List[str] = []
        if callee in graph:
            out.append(callee)
        # Instantiating a class runs its __init__.
        if f"{callee}.__init__" in graph:
            out.append(f"{callee}.__init__")
        return out


def _callee(node: ast.expr) -> ast.expr:
    """A decorator or base written as a call stands for its callee
    (``@dataclass(frozen=True)`` is a ``dataclass`` decorator)."""
    return node.func if isinstance(node, ast.Call) else node


def _target_names(target: ast.expr) -> Iterable[Tuple[str, ast.expr]]:
    if isinstance(target, ast.Name):
        yield target.id, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


#: Nodes whose list fields hold statements: statements themselves,
#: ``except`` handlers and ``match`` cases (Python 3.10 and later).
_STATEMENT_HOLDERS: Tuple[type, ...] = (ast.stmt, ast.excepthandler) + (
    (ast.match_case,) if hasattr(ast, "match_case") else ())


def _statements(tree: ast.Module) -> List[ast.AST]:
    """The module's statements (and handlers and cases), in walk order.

    Statements sit only in the list fields of these nodes, so following
    those fields alone keeps the order of a full :func:`ast.walk`
    without visiting any expression.
    """
    out: List[ast.AST] = [tree]
    for node in out:
        for name in node._fields:
            value = getattr(node, name, None)
            if value.__class__ is list:
                out.extend(item for item in value
                           if isinstance(item, _STATEMENT_HOLDERS))
    return out


def _iter_functions(tree: ast.Module
                    ) -> Iterable[Tuple[str, ast.AST]]:
    """(qualname, node) for top-level functions and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


# -- state-flow builders ----------------------------------------------------

def _decorator_names(func: ast.AST) -> Set[str]:
    return {dotted_name(_callee(d)).split(".")[-1]
            for d in getattr(func, "decorator_list", [])}


def _self_parameter(func: ast.AST) -> Optional[str]:
    """The instance-receiver parameter name, or ``None``.

    ``staticmethod``/``classmethod`` bodies have no instance receiver:
    their attribute traffic must not be charged to the instance.
    """
    if _decorator_names(func) & {"staticmethod", "classmethod"}:
        return None
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if not positional:
        return None
    return positional[0].arg


def _self_attr_root(node: ast.expr, self_name: str) -> Optional[str]:
    """``attr`` when ``node`` is ``self.attr`` (through subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == self_name:
        return node.attr
    return None


def _build_class_model(module: str,
                       cls_node: ast.ClassDef) -> ClassStateModel:
    model = ClassStateModel(module=module, name=cls_node.name)
    for method in cls_node.body:
        if not isinstance(method, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
            continue
        model.methods[method.name] = method
        self_name = _self_parameter(method)
        if self_name is None:
            continue
        writes: Set[str] = set()
        reads: Set[str] = set()
        attr_value_ids: Set[int] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == self_name:
                attr_value_ids.add(id(node.value))
                if isinstance(node.ctx, ast.Store):
                    writes.add(node.attr)
                elif isinstance(node.ctx, ast.Del):
                    writes.add(node.attr)
                else:
                    reads.add(node.attr)
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = _self_attr_root(target, self_name)
                        if attr is not None:
                            writes.add(attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATOR_METHODS:
                attr = _self_attr_root(node.func.value, self_name)
                if attr is not None:
                    writes.add(attr)
        # A bare `self` load that is not the receiver of an attribute
        # access escapes whole (deepcopy(self), vars(self), ...).
        for node in ast.walk(method):
            if isinstance(node, ast.Name) and node.id == self_name \
                    and isinstance(node.ctx, ast.Load) \
                    and id(node) not in attr_value_ids:
                model.whole_self_methods.add(method.name)
                break
        if method.name == "__init__":
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == self_name \
                        and isinstance(node.ctx, ast.Store):
                    model.init_assigned.setdefault(node.attr,
                                                   node.lineno)
        else:
            if writes:
                model.method_writes[method.name] = writes
        if reads:
            model.method_reads[method.name] = reads
    return model


def _merge_base_model(model: ClassStateModel,
                      base: ClassStateModel) -> None:
    """Fold a base-class model into ``model`` (derived wins)."""
    for attr, lineno in base.init_assigned.items():
        model.init_assigned.setdefault(attr, lineno)
    for method, node in base.methods.items():
        if method in model.methods:
            continue                    # overridden: derived body wins
        model.methods[method] = node
        if method in base.method_writes:
            model.method_writes.setdefault(method,
                                           set(base.method_writes[method]))
        if method in base.method_reads:
            model.method_reads.setdefault(method,
                                          set(base.method_reads[method]))
        if method in base.whole_self_methods:
            model.whole_self_methods.add(method)


def _builds_pool(value: ast.expr) -> bool:
    """Whether ``value`` is ``Pool(...)``-like or ``<expr> or Pool(...)``."""
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        return any(_builds_pool(operand) for operand in value.values)
    return (isinstance(value, ast.Call)
            and dotted_name(value.func).split(".")[-1]
            in _POOL_CONSTRUCTORS)


def _scan_function(key: str, info: "ModuleInfo", func: ast.AST
                   ) -> Tuple[FunctionSummary, Set[str], List[str]]:
    """One walk of ``func``: its purity summary, callees and pool targets.

    Returns the :class:`FunctionSummary`, the call-graph callees
    (resolved ``module:name`` targets where the alias table allows it,
    bare dotted names otherwise) and the resolved ``module:name``
    callables the function ships to process pools.  Which names are
    local is known only after the walk, so the walk collects the
    candidate nodes, in walk order, and the helpers decide after it.
    """
    local = parameter_names(func)       # params, stores, loop targets...
    declared_global: Set[str] = set()
    writes: List[ast.AST] = []          # global, assignments, mutators
    loads: List[ast.Name] = []
    callees: Set[str] = set()
    pool_names: Set[str] = set()
    dispatches: List[ast.Call] = []
    for node in walk_nodes(func):
        kind = node.__class__
        if kind is ast.Name:
            if isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                loads.append(node)
        elif kind is ast.Call:
            dotted = dotted_name(node.func)
            if dotted:
                resolved = info.resolve_dotted(dotted)
                if resolved is None and dotted in info.symbols:
                    resolved = f"{info.module}:{dotted}"
                callees.add(resolved or dotted)
            callee = node.func
            if isinstance(callee, ast.Attribute):
                if callee.attr in MUTATOR_METHODS:
                    writes.append(node)
                if callee.attr in _POOL_DISPATCH_METHODS \
                        and isinstance(callee.value, ast.Name) \
                        and node.args:
                    dispatches.append(node)
        elif kind is ast.Assign or kind is ast.AugAssign \
                or kind is ast.AnnAssign:
            writes.append(node)
            if kind is ast.Assign and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _builds_pool(node.value):
                pool_names.add(node.targets[0].id)
        elif kind is ast.Global:
            declared_global.update(node.names)
            writes.append(node)
        elif kind is ast.For or kind is ast.comprehension:
            local.update(names_under(node.target))
        elif kind is ast.withitem:
            if node.optional_vars is not None:
                local.update(names_under(node.optional_vars))
                if isinstance(node.optional_vars, ast.Name) \
                        and _builds_pool(node.context_expr):
                    pool_names.add(node.optional_vars.id)
        elif (kind is ast.FunctionDef or kind is ast.AsyncFunctionDef) \
                and node is not func:
            local.add(node.name)
    summary = _summarize(key, info, func, local - declared_global,
                         writes, loads)
    targets = _dispatch_targets(info, [
        call for call in dispatches if call.func.value.id in pool_names])
    return summary, callees, targets


def _summarize(key: str, info: "ModuleInfo", func: ast.AST,
               local: Set[str], writes: List[ast.AST],
               loads: List[ast.Name]) -> FunctionSummary:
    """The purity summary from the candidates :func:`_scan_function`
    collected; the first write or read of a name in walk order wins."""
    summary = FunctionSummary(key=key, module=info.module or "",
                              node=func)
    module_names = info.module_level_names

    def module_state(root: str) -> bool:
        return bool(root) and root not in local \
            and root in module_names and root not in info.aliases

    for node in writes:
        if isinstance(node, ast.Global):
            for name in node.names:
                if name in module_names:
                    summary.global_writes.setdefault(name, node)
        elif isinstance(node, ast.Call):
            root = root_name(node.func.value)
            if module_state(root):
                summary.global_writes.setdefault(root, node)
        else:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = root_name(target)
                    if module_state(root):
                        summary.global_writes.setdefault(root, node)
    for name_node in loads:
        if module_state(name_node.id):
            summary.global_reads.setdefault(name_node.id, name_node)
    return summary


def _dispatch_targets(info: "ModuleInfo",
                      calls: List[ast.Call]) -> List[str]:
    """Resolved ``module:name`` callables that pool dispatch calls ship."""
    out: List[str] = []
    for call in calls:
        target = call.args[0]
        resolved: Optional[str] = None
        if isinstance(target, ast.Name):
            if target.id in info.symbols:
                resolved = f"{info.module}:{target.id}"
            else:
                resolved = info.resolve(target.id)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted:
                resolved = info.resolve_dotted(dotted)
        if resolved is not None and ":" in resolved:
            out.append(resolved)
    return out
