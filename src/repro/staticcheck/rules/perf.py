"""GW1xx — cost contracts of the solver and experiment layers.

Each rule guards a speed-up this system is built on, not generic
numpy style:

``GW105``  a candidate-rate scan in the game layer — ``congestion_i``
           called in a loop that pokes candidates into a fixed rate
           vector (``base[i] = x``) with the user index held constant —
           where one batched ``congestion_grid`` call would do.
``GW106``  a direct fixed-horizon ``simulate()`` call in an experiment
           module — where a precision target exists,
           ``simulate_to_precision`` reaches the same CI with a
           fraction of the events; fixed horizons are only right when
           no CI target exists (divergent queues, loss fractions), and
           such sites must say so in a suppression.
``GW107``  a per-user API call (``congestion_i``, ``best_response``,
           ``utility_improvement``, ...) inside a loop in the
           class-space modules (``repro.game.classes`` /
           ``repro.game.meanfield``) — those modules exist to keep
           every path O(K); an O(N) per-user loop silently destroys
           the reduction.  Deliberately bounded spot checks carry a
           suppression saying so.

GW105 applies to ``repro.game``, GW106 to ``repro.experiments`` and
GW107 to the class-space modules.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from repro.staticcheck.core import FileContext, Finding, Rule, \
    register_rule, root_name


#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "sort", "reverse", "fill",
    "put", "resize", "setfield", "setflags",
})


def _stored_names(node: ast.AST) -> Set[str]:
    """Every name (possibly) written anywhere inside ``node``.

    Besides plain stores this includes the root of attribute or
    subscript stores (``x.field = ...``, ``x[i] = ...``) and the
    receiver of in-place mutator methods (``x.append(...)``), so a
    loop that pokes into a vector counts as writing it.
    """
    out: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)):
            out.add(sub.id)
        elif isinstance(sub, (ast.Attribute, ast.Subscript)) and \
                isinstance(sub.ctx, (ast.Store, ast.Del)):
            root = root_name(sub)
            if root:
                out.add(root)
        elif isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Attribute) and \
                sub.func.attr in MUTATOR_METHODS:
            root = root_name(sub.func.value)
            if root:
                out.add(root)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            out.update(sub.names)
    return out


def _loops(scope: ast.AST) -> Iterator[ast.AST]:
    """Loops belonging to ``scope`` itself (not to nested functions)."""
    stack: List[ast.AST] = list(
        scope.body if hasattr(scope, "body") else [])
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.For, ast.While)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class ScalarCandidateScanRule(Rule):
    """Flag scalar congestion scans over candidate rates (GW105)."""

    rule_id = "GW105"
    name = "scalar-candidate-scan"
    description = ("game-layer loops that evaluate `congestion_i` once "
                   "per candidate own-rate (poking each candidate into "
                   "a fixed rate vector) must use one batched "
                   "`congestion_grid` call instead")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module is None \
                or not ctx.module.startswith("repro.game"):
            return
        for scope in ctx.nodes.scopes():
            for loop in _loops(scope):
                written = _stored_names(loop)
                rebound = self._plain_rebinds(loop)
                for node in ast.walk(loop):
                    if not self._is_congestion_i_call(node):
                        continue
                    rates_arg, idx_arg = node.args[0], node.args[1]
                    # The user index must be loop-invariant: a loop
                    # *over users* (Gauss-Seidel sweeps, per-user
                    # certification) is not a candidate scan.
                    if any(isinstance(sub, ast.Name) and sub.id in written
                           for sub in ast.walk(idx_arg)):
                        continue
                    if not isinstance(rates_arg, ast.Name):
                        continue
                    # The scan signature: the same rate vector mutated
                    # in place each iteration (``base[i] = x``) — not
                    # rebound wholesale to a fresh vector.
                    if rates_arg.id in rebound:
                        continue
                    if rates_arg.id not in written:
                        continue
                    yield self.finding(
                        ctx, node,
                        "scalar congestion_i scan over candidate rates; "
                        "evaluate all candidates in one "
                        "congestion_grid call")

    @staticmethod
    def _is_congestion_i_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "congestion_i"
                and len(node.args) >= 2)

    @staticmethod
    def _plain_rebinds(loop: ast.AST) -> Set[str]:
        """Names wholly rebound (plain ``name = ...``) inside the loop."""
        out: Set[str] = set()
        for sub in ast.walk(loop):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)) and \
                    isinstance(sub.target, ast.Name):
                out.add(sub.target.id)
            elif isinstance(sub, ast.For) and \
                    isinstance(sub.target, ast.Name):
                out.add(sub.target.id)
        return out


#: Per-user evaluation entry points.  Each call costs O(N) (it walks a
#: full rate vector, or drives an O(N) congestion evaluation), so any
#: loop around one re-introduces exactly the per-user cost the
#: class-space reduction exists to remove.
PER_USER_API = frozenset({
    "congestion_i", "congestion", "congestion_grid", "grid_evaluator",
    "best_response", "best_response_map", "utility_improvement",
    "own_derivative", "gradient_i", "jacobian",
})

#: Modules contractually O(K): class-space solving and its mean-field
#: limit.
CLASS_SPACE_MODULES = frozenset({
    "repro.game.classes", "repro.game.meanfield",
})


@register_rule
class PerUserLoopInClassSpaceRule(Rule):
    """Flag O(N) per-user loops in class-space modules (GW107)."""

    rule_id = "GW107"
    name = "per-user-loop-in-class-space"
    description = ("the class-space modules promise O(K) solves; a "
                   "per-user API call (congestion_i, best_response, "
                   "utility_improvement, ...) inside a loop there is "
                   "an O(N) regression — use the class_* counterpart, "
                   "or suppress with the reason the loop is bounded")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module not in CLASS_SPACE_MODULES:
            return
        for scope in ctx.nodes.scopes():
            # One report per call, anchored to the outermost loop that
            # contains it (_loops yields outer loops first), so a
            # suppression above the loop covers the whole nest.
            reported: Set[int] = set()
            for loop in _loops(scope):
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call) \
                            or id(node) in reported:
                        continue
                    func = node.func
                    if isinstance(func, ast.Attribute):
                        name = func.attr
                    elif isinstance(func, ast.Name):
                        name = func.id
                    else:
                        continue
                    if name not in PER_USER_API:
                        continue
                    reported.add(id(node))
                    yield self.finding(
                        ctx, loop,
                        f"per-user call {name}(...) inside a loop in a "
                        f"class-space module re-introduces O(N) work; "
                        f"use the O(K) class_* path, or suppress with "
                        f"the reason the loop is bounded")


@register_rule
class FixedHorizonSimulateRule(Rule):
    """Flag fixed-horizon simulate() calls in experiments (GW106)."""

    rule_id = "GW106"
    name = "fixed-horizon-simulate"
    description = ("experiment modules calling `simulate()` directly "
                   "run a pessimistic fixed horizon every time; where "
                   "a precision target exists, "
                   "`simulate_to_precision` reaches the same CI "
                   "half-width with a fraction of the events")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module is None \
                or not ctx.module.startswith("repro.experiments"):
            return
        for node in ctx.nodes.of(ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name != "simulate":
                continue
            yield self.finding(
                ctx, node,
                "direct fixed-horizon simulate() in an experiment; "
                "use simulate_to_precision with a target half-width "
                "(or suppress with the reason no CI target exists)")
