"""GW003 — RNG discipline.

Reproducibility of the experiment tables requires a single randomness
policy (see :mod:`repro.numerics.rng`).  This rule rejects, anywhere in
the library:

* the stdlib ``random`` module (unseedable-by-convention global state);
* legacy NumPy global-state calls (``np.random.seed``,
  ``np.random.uniform``, ...);
* raw ``np.random.default_rng(...)`` construction — generators must
  either flow in as ``numpy.random.Generator`` parameters or be built
  by :func:`repro.numerics.default_rng`, the one documented fallback.

``np.random.Generator`` used as a *type annotation* is fine; only calls
are flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.staticcheck.core import FileContext, Finding, Rule, \
    dotted_name, register_rule

#: Legacy numpy.random module-level functions that mutate global state.
LEGACY_NP_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "ranf", "sample", "choice", "bytes", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "dirichlet", "multinomial",
    "multivariate_normal", "lognormal", "laplace", "logistic",
    "pareto", "weibull", "triangular", "vonmises", "rayleigh",
    "geometric", "hypergeometric", "negative_binomial", "chisquare",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_t", "zipf", "get_state", "set_state", "RandomState",
})


@register_rule
class RNGDisciplineRule(Rule):
    """Flag unseeded/global/raw randomness constructions (GW003)."""

    rule_id = "GW003"
    name = "rng-discipline"
    description = ("no stdlib random, no legacy np.random global state, "
                   "no raw np.random.default_rng: randomness enters as "
                   "Generator parameters or via repro.numerics.default_rng")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        nodes = ctx.nodes
        numpy_aliases, np_random_aliases, bare_default_rng, bare_legacy = \
            self._numpy_imports(nodes.of(ast.Import, ast.ImportFrom))
        for node in nodes.of(ast.Import, ast.ImportFrom, ast.Call):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            ctx, node,
                            "stdlib 'random' is banned; take a "
                            "numpy.random.Generator parameter instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random" \
                        and node.level == 0:
                    yield self.finding(
                        ctx, node,
                        "stdlib 'random' is banned; take a "
                        "numpy.random.Generator parameter instead")
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    ctx, node, numpy_aliases, np_random_aliases,
                    bare_default_rng, bare_legacy)

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    numpy_aliases: Set[str],
                    np_random_aliases: Set[str],
                    bare_default_rng: Set[str],
                    bare_legacy: Set[str]) -> Iterable[Finding]:
        dotted = dotted_name(node.func)
        if not dotted:
            return
        parts = dotted.split(".")
        if dotted in bare_default_rng or (
                len(parts) >= 2 and parts[-1] == "default_rng"
                and (".".join(parts[:-1]) in np_random_aliases
                     or (len(parts) >= 3
                         and parts[-2] == "random"
                         and ".".join(parts[:-2]) in numpy_aliases))):
            yield self.finding(
                ctx, node,
                "raw np.random.default_rng: use "
                "repro.numerics.default_rng so the seeding policy "
                "stays in one place")
            return
        if dotted in bare_legacy:
            yield self.finding(
                ctx, node,
                f"legacy global-state call numpy.random.{dotted}; "
                f"use an explicit numpy.random.Generator")
        elif len(parts) >= 3 and parts[-2] == "random" \
                and ".".join(parts[:-2]) in numpy_aliases \
                and parts[-1] in LEGACY_NP_RANDOM:
            yield self.finding(
                ctx, node,
                f"legacy global-state call np.random.{parts[-1]}; "
                f"use an explicit numpy.random.Generator")
        elif len(parts) >= 2 \
                and ".".join(parts[:-1]) in np_random_aliases \
                and parts[-1] in LEGACY_NP_RANDOM:
            yield self.finding(
                ctx, node,
                f"legacy global-state call numpy.random.{parts[-1]}; "
                f"use an explicit numpy.random.Generator")

    @staticmethod
    def _numpy_imports(imports: Iterable[ast.AST]):
        """Aliases of numpy and numpy.random, bare default_rng, bare
        legacy fns."""
        numpy_aliases: Set[str] = set()
        module_aliases: Set[str] = set()
        bare_default: Set[str] = set()
        bare_legacy: Set[str] = set()
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        module_aliases.add(alias.asname or "numpy.random")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            module_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            bare_default.add(alias.asname or alias.name)
                        elif alias.name in LEGACY_NP_RANDOM:
                            bare_legacy.add(alias.asname or alias.name)
        return numpy_aliases, module_aliases, bare_default, bare_legacy
