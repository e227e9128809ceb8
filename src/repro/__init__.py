"""greedwork: a reproduction of Shenker's "Making Greed Work in Networks"
(SIGCOMM 1994).

Selfish users share a single M/M/1 switch; the switch's service
discipline decides whether their greed wrecks the network or runs it
well.  This library implements the paper's entire apparatus — the
queueing feasibility theory, the allocation functions (FIFO's
proportional split, Fair Share / serial cost sharing, and more), the
game-theoretic analysis (Nash, Pareto, envy, Stackelberg, learning
dynamics, revelation mechanisms, protection), a packet-level simulator
realizing the disciplines, and the experiment harness that regenerates
the paper's table and verifies each theorem numerically.

Quick start::

    import numpy as np
    from repro import FairShareAllocation, LinearUtility, solve_nash

    switch = FairShareAllocation()
    users = [LinearUtility(gamma=g) for g in (0.5, 1.0, 4.0)]
    eq = solve_nash(switch, users)
    print(eq.rates, eq.congestion)

The names below are imported from their home package on first access
(PEP 562), so ``import repro.staticcheck`` or ``import repro.sim``
loads only what it uses.
"""

import importlib
from typing import Any, Dict, List, Tuple

__version__ = "1.0.0"

#: Each public package and the names it exports through ``repro``.
_EXPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.disciplines": (
        "AllocationFunction",
        "ProportionalAllocation",
        "FairShareAllocation",
        "PriorityAllocation",
        "SeparableAllocation",
        "WeightedProportionalAllocation",
        "check_mac",
        "make_discipline",
    ),
    "repro.game": (
        "NashResult",
        "solve_nash",
        "find_all_nash",
        "is_nash",
        "best_response",
        "solve_weighted_pareto",
        "pareto_improvement",
        "envy_matrix",
        "max_envy",
        "solve_stackelberg",
        "leader_advantage",
        "relaxation_matrix",
        "fdc_residuals",
        "protection_bound",
        "worst_case_congestion",
    ),
    "repro.network": ("NetworkAllocation", "Route"),
    "repro.queueing": (
        "MM1Curve",
        "MG1Curve",
        "FeasibilitySet",
        "mm1_mean_queue",
    ),
    "repro.users": (
        "Utility",
        "LinearUtility",
        "ExponentialUtility",
        "PowerUtility",
        "QuadraticUtility",
        "lemma5_profile",
    ),
}

_HOME: Dict[str, str] = {name: package
                         for package, names in _EXPORTS.items()
                         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> Any:
    """Import a public name from its home package on first access."""
    package = _HOME.get(name)
    if package is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(package), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    """The module's attributes plus every lazily exported name."""
    return sorted({*globals(), *__all__})
