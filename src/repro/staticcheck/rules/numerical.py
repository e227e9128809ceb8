"""GW2xx — numerical-safety dataflow near the g(x) = x/(1-x) pole.

Every allocation in the paper is pinned to the M/M/1 feasibility
constraint ``sum c_i = g(sum r_i)`` with ``g(x) = x/(1-x)``: the curve
has a pole at ``x -> 1``, and the heavy-traffic regime the ROADMAP
targets lives exactly there.  An unguarded ``1/(1 - rho)`` is
therefore not a style nit — it is an ``inf``/``nan`` factory that
corrupts whole experiment sweeps.

``GW201``  division whose denominator contains ``1 - x`` (directly,
           through a local alias like ``u = 1.0 - load``, or raised
           to a power) with no *dominating guard* on ``x`` along the
           path from function entry to the division;
``GW202``  ``log``/``sqrt`` of an expression containing a subtraction
           (possibly negative near saturation) with no dominating
           guard and no ``abs``/``clip``/``maximum`` wrapper.

A *dominating guard* is, approximately (source order stands in for
true dominance):

* an earlier ``if`` mentioning a dependency of the denominator whose
  body terminates (``if rho >= 1.0: return math.inf``);
* an enclosing ``if``/ternary/``while``/comprehension-``if`` whose
  condition mentions a dependency (``x/(1-x) if x < 1.0 else inf``);
* an ``assert`` mentioning a dependency; or
* an earlier call whose name matches the guard idiom
  (``require_domain``, ``admits``, ``assert_feasible``,
  ``validate...``, ``check...``) taking a dependency as argument.

Dependencies follow local assignments one level deep, so a guard on
``total`` covers a division by ``1 - rho`` after
``rho = total / service_rate``.  Both rules apply only to ``repro``
modules.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.core import (
    FileContext,
    Finding,
    NodeIndex,
    Rule,
    names_under,
    register_rule,
    walk_nodes,
)

#: Callee-name pattern recognized as a feasibility/domain guard.
GUARD_CALL_RE = re.compile(
    r"(require|validate|assert|admits|feasib|stable|check|clip)",
    re.IGNORECASE)

#: Wrappers that make a possibly-negative argument safe for log/sqrt.
SAFE_WRAPPERS = frozenset({"abs", "fabs", "maximum", "clip", "hypot"})

_LOG_SQRT = frozenset({"log", "log2", "log10", "sqrt"})

_DIVISIONS = (ast.Div, ast.FloorDiv, ast.Mod)

_NESTED_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``scope`` in source order, skipping nested defs."""
    stack: List[ast.stmt] = list(reversed(
        scope.body if hasattr(scope, "body") else []))
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, _NESTED_DEFS):
            continue
        yield stmt
        children = [child for child in ast.iter_child_nodes(stmt)
                    if isinstance(child, ast.stmt)]
        stack.extend(reversed(children))


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``scope`` exactly once, skipping nested defs."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_NESTED_DEFS, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _terminates(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _GuardIndex:
    """Guards of one scope, queryable by (line, dependency names)."""

    def __init__(self, scope: ast.AST) -> None:
        self.scope = scope
        #: (effective line, names the guard constrains)
        self.guards: List[Tuple[int, Set[str]]] = []
        #: name -> names appearing in its most recent assignment
        self.deps: Dict[str, Set[str]] = {}
        #: name -> subtrahend names when bound to a ``1 - x`` expr
        self.pole_aliases: Dict[str, Set[str]] = {}
        for stmt in _scope_statements(scope):
            self._index_statement(stmt)
        # Guard-idiom calls: one walk of each top-level statement covers
        # every statement ``_scope_statements`` yields.
        for stmt in scope.body:
            if isinstance(stmt, _NESTED_DEFS):
                continue
            for node in walk_nodes(stmt):
                if node.__class__ is not ast.Call:
                    continue
                callee = _callee_name(node)
                if callee and GUARD_CALL_RE.search(callee):
                    arg_names: Set[str] = set()
                    for arg in list(node.args) + \
                            [kw.value for kw in node.keywords]:
                        arg_names |= names_under(arg)
                    if arg_names:
                        self.guards.append((node.lineno, arg_names))

    def _index_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            names = names_under(stmt.value)
            subtrahend = _pole_subtrahend(stmt.value)
            if isinstance(stmt.value, ast.Compare):
                # ``stable = loads < 1.0``: binding a comparison is the
                # vectorized guard idiom (the mask selects the safe
                # elements downstream), so it dominates later uses.
                self.guards.append((stmt.lineno, names))
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.deps[target.id] = names
                    if subtrahend is not None:
                        self.pole_aliases[target.id] = subtrahend
        elif isinstance(stmt, ast.If):
            if _terminates(stmt.body):
                self.guards.append((stmt.body[-1].lineno,
                                    names_under(stmt.test)))
        elif isinstance(stmt, ast.Assert):
            self.guards.append((stmt.lineno, names_under(stmt.test)))

    def expand_deps(self, names: Set[str]) -> Set[str]:
        """Names plus what they were assigned from (two levels)."""
        out = set(names)
        for _ in range(2):
            extra: Set[str] = set()
            for name in out:
                extra |= self.deps.get(name, set())
            if extra <= out:
                break
            out |= extra
        return out

    def is_guarded(self, node: ast.AST, dep_names: Set[str],
                   nodes: NodeIndex) -> bool:
        deps = self.expand_deps(dep_names)
        # 1. an earlier terminating guard / assert / guard call
        for line, guard_names in self.guards:
            if node.lineno > line and guard_names & deps:
                return True
        # 2. an enclosing conditional mentioning a dependency, up to
        #    the scope itself: a nested def does not inherit the
        #    conditions around its definition.
        current: Optional[ast.AST] = node
        while current is not None and current is not self.scope:
            parent = nodes.parent(current)
            if isinstance(parent, (ast.If, ast.While)) \
                    and names_under(parent.test) & deps:
                return True
            if isinstance(parent, ast.IfExp) \
                    and names_under(parent.test) & deps:
                return True
            if isinstance(parent, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in parent.generators:
                    for cond in generator.ifs:
                        if names_under(cond) & deps:
                            return True
            current = parent
        return False


class _Scope:
    """One scope's own division and log/sqrt nodes, and its guards.

    GW201 and GW202 read the same :class:`_Scope` list per file (see
    :func:`_file_scopes`); the guard index is built the first time
    either rule needs it.
    """

    def __init__(self, node: ast.AST) -> None:
        self.node = node
        #: ``/``, ``//`` and ``%`` nodes, in :func:`_scope_walk` order
        self.divisions: List[ast.BinOp] = []
        #: ``math``/``np`` log and sqrt calls with an argument, likewise
        self.domain_calls: List[ast.Call] = []
        for sub in _scope_walk(node):
            if isinstance(sub, ast.BinOp):
                if isinstance(sub.op, _DIVISIONS):
                    self.divisions.append(sub)
            elif isinstance(sub, ast.Call):
                if sub.args and _log_sqrt_callee(sub) is not None:
                    self.domain_calls.append(sub)
        self._guards: Optional[_GuardIndex] = None

    @property
    def guards(self) -> _GuardIndex:
        if self._guards is None:
            self._guards = _GuardIndex(self.node)
        return self._guards


def _file_scopes(nodes: NodeIndex) -> List[_Scope]:
    """The module and every function of one file, in walk order."""
    return [_Scope(scope) for scope in nodes.scopes()]


def _callee_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _log_sqrt_callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _LOG_SQRT \
            and isinstance(func.value, ast.Name) \
            and func.value.id in ("math", "np", "numpy"):
        return f"{func.value.id}.{func.attr}"
    return None


def _is_pole_subtraction(node: ast.BinOp) -> bool:
    """Whether ``node`` is ``1 - <something>``."""
    return isinstance(node.op, ast.Sub) \
        and isinstance(node.left, ast.Constant) \
        and node.left.value in (1, 1.0)


def _pole_subtrahend(node: ast.expr) -> Optional[Set[str]]:
    """Names of ``x`` when ``node`` contains ``1 - x``; else ``None``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and _is_pole_subtraction(sub):
            names = names_under(sub.right)
            if names:
                return names
    return None


@register_rule
class UnguardedPoleDivisionRule(Rule):
    """Flag division by ``1 - x`` with no dominating guard (GW201)."""

    rule_id = "GW201"
    name = "unguarded-pole-division"
    description = ("division by a `1 - x` denominator needs a "
                   "dominating feasibility guard (x < 1 check, "
                   "assert, or require_domain/admits call) on every "
                   "path to it")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module is None \
                or not ctx.module.startswith("repro"):
            return
        nodes = ctx.nodes
        # Both a direct ``1 - x`` denominator and an alias of one need
        # a ``1 - x`` somewhere in the file.
        if not any(_is_pole_subtraction(node)
                   for node in nodes.of(ast.BinOp)):
            return
        for scope in nodes.shared(_file_scopes):
            for node in scope.divisions:
                dep_names = self._pole_denominator(node.right, scope)
                if dep_names is None:
                    continue
                if scope.guards.is_guarded(node, dep_names, nodes):
                    continue
                pretty = ", ".join(sorted(dep_names)) or "?"
                yield self.finding(
                    ctx, node,
                    f"division by `1 - x` (x depends on: {pretty}) "
                    f"with no dominating feasibility guard; check "
                    f"the load against capacity first (cf. "
                    f"g(x)=x/(1-x) diverging at x->1)")

    @staticmethod
    def _pole_denominator(denominator: ast.expr,
                          scope: _Scope) -> Optional[Set[str]]:
        subtrahend = _pole_subtrahend(denominator)
        if subtrahend is not None:
            return subtrahend
        for sub in ast.walk(denominator):
            if isinstance(sub, ast.Name) and \
                    sub.id in scope.guards.pole_aliases:
                return scope.guards.pole_aliases[sub.id] | {sub.id}
        return None


@register_rule
class UnguardedDomainCallRule(Rule):
    """Flag log/sqrt of possibly-negative expressions (GW202)."""

    rule_id = "GW202"
    name = "unguarded-domain-call"
    description = ("log/sqrt of an expression containing a "
                   "subtraction needs a dominating nonnegativity "
                   "guard or an abs/clip/maximum wrapper")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module is None \
                or not ctx.module.startswith("repro"):
            return
        nodes = ctx.nodes
        if not any(call.args and _log_sqrt_callee(call) is not None
                   for call in nodes.of(ast.Call)):
            return
        for scope in nodes.shared(_file_scopes):
            for node in scope.domain_calls:
                fn = _log_sqrt_callee(node)
                risky = self._risky_names(node.args[0], scope)
                if risky is None:
                    continue
                if scope.guards.is_guarded(node, risky, nodes):
                    continue
                pretty = ", ".join(sorted(risky)) or "?"
                yield self.finding(
                    ctx, node,
                    f"{fn}() of a subtraction (depends on: {pretty}) "
                    f"may go negative near saturation; guard the "
                    f"sign, or wrap in abs/clip if that is the "
                    f"intended semantics")

    @staticmethod
    def _risky_names(argument: ast.expr,
                     scope: _Scope) -> Optional[Set[str]]:
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Call):
                callee = _callee_name(sub)
                if callee in SAFE_WRAPPERS:
                    return None
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub):
                names = names_under(sub)
                if names:
                    return names
        for name in names_under(argument):
            if name in scope.guards.pole_aliases:
                return scope.guards.pole_aliases[name] | {name}
        return None
