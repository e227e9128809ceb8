"""Shared infrastructure: findings, file contexts, suppression, registry.

A *rule* inspects one :class:`FileContext` (path, source, parsed AST,
module name) and yields :class:`Finding` objects.  The runner parses
``# greedwork: ignore[...]`` pragmas and drops findings they cover, so
rules never need to reason about suppression themselves.

Rules read a file's nodes from :attr:`FileContext.nodes`, a
:class:`NodeIndex` built by one walk of the tree the first time a rule
asks, instead of walking ``ctx.tree`` themselves.  The small AST
helpers the rules and the project layer share (:func:`dotted_name`,
:func:`root_name`, :func:`names_under`, :func:`parameter_names`,
:func:`own_method`) live here, once each.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    cast,
)

#: Sentinel rule id meaning "every rule" in a suppression pragma.
ALL_RULES = "*"

_PRAGMA = re.compile(
    r"#\s*greedwork:\s*ignore(?:\[(?P<ids>[^\]]*)\])?")

_T = TypeVar("_T")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        """Stable report ordering: path, then location, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        """GCC-style one-line rendering (``path:line:col: RULE msg``)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def fingerprint(self) -> str:
        """Location-insensitive identity for SARIF consumers.

        Deliberately omits the line/column so that unrelated edits
        moving a known finding keep its identity in code scanning.
        """
        return f"{self.rule_id}::{self.path}::{self.message}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the cache and JSON reporters."""
        return {"rule": self.rule_id, "path": self.path,
                "line": self.line, "col": self.col,
                "message": self.message}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(rule_id=str(payload["rule"]), path=str(payload["path"]),
                   line=int(payload["line"]), col=int(payload["col"]),
                   message=str(payload["message"]))


class FileContext:
    """Everything a rule may want to know about one source file.

    A file that does not parse still yields a usable context:
    ``tree`` is ``None`` and ``parse_error`` carries the
    ``SyntaxError``, so one broken file can be reported as a ``GW000``
    finding without aborting the rest of the run.  ``location`` is the
    file's :func:`locate` result when the caller has it; by default it
    is derived from ``path`` and ``project_root``.
    """

    def __init__(self, path: Path, source: str,
                 project_root: Optional[Path] = None, *,
                 location: Optional["Location"] = None) -> None:
        self.path = path
        self.project_root = project_root
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = exc
        if location is None:
            location = locate(path, path.resolve(),
                              project_root.resolve()
                              if project_root is not None else None)
        self.display_path, self.module = location
        self._suppressions = _parse_suppressions(self.lines)
        self._nodes: Optional[NodeIndex] = None

    @property
    def nodes(self) -> "NodeIndex":
        """The file's :class:`NodeIndex`, built on first use."""
        if self._nodes is None:
            self._nodes = NodeIndex(self.tree)
        return self._nodes

    def drop_nodes(self) -> None:
        """Release the node index; the next use of :attr:`nodes`
        rebuilds it.  The runner calls this when a file's rules finish,
        so per-node data never outlives the file phase."""
        self._nodes = None

    def suppressed_ids(self, line: int) -> FrozenSet[str]:
        """Rule ids suppressed on a 1-based source line.

        A pragma suppresses the line it sits on; a pragma on an
        otherwise-blank line also covers the line directly below it,
        so long statements can carry the comment above them.
        """
        return self._suppressions.get(line, frozenset())

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a pragma on the finding's line covers its rule."""
        ids = self.suppressed_ids(finding.line)
        return ALL_RULES in ids or finding.rule_id in ids


def walk_nodes(root: ast.AST) -> List[ast.AST]:
    """Every node under ``root`` (itself included), in ``ast.walk`` order.

    Breadth-first like :func:`ast.walk`, with the children of each node
    in field order, but built as one list without a generator per node,
    in about half the time of ``list(ast.walk(root))``.
    """
    nodes = [root]
    append = nodes.append
    node_type = ast.AST
    for node in nodes:
        for name in node._fields:
            value = getattr(node, name, None)
            if value.__class__ is list:
                for item in value:
                    if isinstance(item, node_type):
                        append(item)
            elif isinstance(value, node_type):
                append(value)
    return nodes


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def root_name(node: ast.AST) -> str:
    """The name under an Attribute/Subscript chain (``x`` for
    ``x.a[i]``), ``""`` when the chain does not start at a name."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def names_under(node: ast.AST) -> Set[str]:
    """Every ``Name`` id in the subtree of ``node`` (``a[i]`` gives
    both)."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def parameter_names(func: ast.AST) -> Set[str]:
    """Every parameter name of a function, ``*args`` and ``**kwargs``
    included."""
    args = func.args
    return {arg.arg for arg in (list(args.posonlyargs) + list(args.args)
                                + list(args.kwonlyargs)
                                + ([args.vararg] if args.vararg else [])
                                + ([args.kwarg] if args.kwarg else []))}


def own_method(cls: ast.AST, name: str) -> Optional[ast.AST]:
    """The method ``name`` defined in the body of class node ``cls``
    itself (not inherited), sync or async; ``None`` when there is none
    or ``cls`` is not a class."""
    if not isinstance(cls, ast.ClassDef):
        return None
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


class NodeIndex:
    """The nodes of one parsed file, grouped by type, from one walk.

    :meth:`of` lists the nodes of the given concrete node classes in
    ``ast.walk`` order; :meth:`parent` builds child-to-parent links the
    first time any rule asks for one; :meth:`shared` computes a
    derived structure once for every rule that reads it.  Node lists
    are shared between callers and must not be mutated.
    """

    def __init__(self, tree: Optional[ast.AST]) -> None:
        self.tree = tree
        #: Every node in ``ast.walk`` order.
        self.walk_order: List[ast.AST] = walk_nodes(tree) \
            if tree is not None else []
        by_type: Dict[type, List[ast.AST]] = {}
        for node in self.walk_order:
            bucket = by_type.get(node.__class__)
            if bucket is None:
                by_type[node.__class__] = [node]
            else:
                bucket.append(node)
        self._by_type = by_type
        self._merged: Dict[Tuple[type, ...], List[ast.AST]] = {}
        self._parents: Optional[Dict[int, ast.AST]] = None
        self._shared: Dict[Callable[["NodeIndex"], object], object] = {}

    def of(self, *types: type) -> Sequence[ast.AST]:
        """Nodes whose class is one of ``types``, in ``ast.walk`` order."""
        present = [t for t in types if t in self._by_type]
        if len(present) == 1:
            return self._by_type[present[0]]
        if not present:
            return ()
        merged = self._merged.get(types)
        if merged is None:
            wanted = frozenset(present)
            merged = [node for node in self.walk_order
                      if node.__class__ in wanted]
            self._merged[types] = merged
        return merged

    def scopes(self) -> List[ast.AST]:
        """The module, then every function and method in walk order."""
        if self.tree is None:
            return []
        return [self.tree,
                *self.of(ast.FunctionDef, ast.AsyncFunctionDef)]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The parent of ``node`` (``None`` for the root).

        The shared context and operator nodes (``ast.Load()``,
        ``ast.Add()``, ...) get the last of their parents in walk order.
        """
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for owner in self.walk_order:
                for child in ast.iter_child_nodes(owner):
                    parents[id(child)] = owner
            self._parents = parents
        return self._parents.get(id(node))

    def shared(self, build: Callable[["NodeIndex"], _T]) -> _T:
        """``build(self)``, computed once per index for every caller.

        Lets several rules share one derived structure (GW201 and
        GW202 share their per-scope guard indexes); it is dropped with
        the index.  The result must not refer back to the index: the
        runner pauses the cyclic garbage collector, so a cycle would
        outlive the file.
        """
        if build not in self._shared:
            self._shared[build] = build(self)
        return cast(_T, self._shared[build])


class Location(NamedTuple):
    """Where a checked file sits: its report path and module name."""

    display_path: str
    module: Optional[str]


def locate(path: Path, resolved: Path,
           resolved_root: Optional[Path]) -> Location:
    """A file's :class:`Location`, from its resolved path.

    The report path is relative to the resolved project root when the
    file lies under it, else ``path`` as given.  The module name uses
    the *last* path component named ``repro``, so that temporary
    project trees (``/tmp/.../src/repro/...``) resolve the same way as
    the real one; it is ``None`` for files outside any ``repro``
    package (rules that reason about the architecture skip those).
    Nothing is resolved here: a check run resolves its root once and
    each file once.
    """
    display_path = str(path)
    if resolved_root is not None:
        try:
            display_path = resolved.relative_to(resolved_root).as_posix()
        except ValueError:
            pass
    parts = resolved.with_suffix("").parts
    if "repro" not in parts:
        return Location(display_path, None)
    idx = len(parts) - 1 - parts[::-1].index("repro")
    dotted = list(parts[idx:])
    if dotted[-1] == "__init__":
        dotted.pop()
    return Location(display_path, ".".join(dotted))


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of a file under a ``repro`` package, or
    ``None`` (see :func:`locate`)."""
    return locate(path, path.resolve(), None).module


def _parse_suppressions(lines: List[str]) -> Dict[int, FrozenSet[str]]:
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        raw = match.group("ids")
        if raw is None:
            ids = frozenset({ALL_RULES})
        else:
            ids = frozenset(
                token.strip() for token in raw.split(",") if token.strip())
            if not ids:
                ids = frozenset({ALL_RULES})
        out[lineno] = out.get(lineno, frozenset()) | ids
        # A standalone pragma (comment-only line) covers the next
        # *statement* line: skip over blank and comment-only lines so
        # the pragma may sit above a decorated or documented target.
        if text[:match.start()].strip() == "":
            target = lineno + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
            out[target] = out.get(target, frozenset()) | ids
    return out


class Rule:
    """Base class for checks; subclasses set the class attributes."""

    rule_id: str = "GW000"
    name: str = "unnamed"
    description: str = ""
    #: ``"file"`` rules see one :class:`FileContext` and nothing else:
    #: their findings are cached under that file's content hash alone,
    #: so a fact from another file must come from a ``"project"`` rule,
    #: which sees the whole
    #: :class:`~repro.staticcheck.project.ProjectContext`.
    scope: str = "file"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one file (suppression handled upstream)."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(rule_id=self.rule_id, path=ctx.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


class ProjectRule(Rule):
    """Base class for whole-program checks.

    A project rule receives the full
    :class:`~repro.staticcheck.project.ProjectContext` — symbol table,
    import graph, call graph — and may relate facts across files.  Its
    findings still anchor to one location, so per-line suppression
    pragmas apply exactly as they do for file rules.
    """

    scope = "project"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Project rules do not run per file."""
        return ()

    def check_project(self, project: "ProjectContext"
                      ) -> Iterable[Finding]:
        """Yield findings for the whole program."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one registered rule by id."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {known}") from None


def _load_builtin_rules() -> None:
    # Imported lazily to avoid a cycle (rule modules import this one).
    import repro.staticcheck.rules  # noqa: F401


def select_rules(rules: Iterable[Rule],
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """Filter rules by id or family prefix.

    A selector matches a rule when the rule id starts with it, so
    ``GW1`` (or ``GW1xx``) selects the whole perf family while
    ``GW105`` selects one rule.  ``ignore`` wins over ``select``.
    Unknown selectors raise ``KeyError`` so typos fail loudly.
    """
    def normalize(tokens: Optional[Iterable[str]]) -> List[str]:
        out = []
        for token in tokens or ():
            token = token.strip().rstrip("x")
            if token:
                out.append(token)
        return out

    rules = list(rules)
    chosen = normalize(select)
    dropped = normalize(ignore)
    for selector in chosen + dropped:
        if not any(rule.rule_id.startswith(selector) for rule in rules):
            known = ", ".join(sorted(r.rule_id for r in rules))
            raise KeyError(f"unknown rule selector {selector!r}; "
                           f"known rules: {known}")
    out = []
    for rule in rules:
        if chosen and not any(rule.rule_id.startswith(s) for s in chosen):
            continue
        if any(rule.rule_id.startswith(s) for s in dropped):
            continue
        out.append(rule)
    return out


@dataclass
class CheckResult:
    """Outcome of running the suite over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files whose per-file rules actually ran this invocation.
    files_analyzed: int = 0
    #: Files served entirely from the incremental cache.
    files_from_cache: int = 0
    #: Whether the project rules were evaluated this invocation (not
    #: served from the project digest, and at least one was active).
    project_analyzed: bool = False
    #: Wall-clock duration of the run, in seconds.
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings
