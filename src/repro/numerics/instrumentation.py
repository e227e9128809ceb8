"""Solver observability: evaluation counters and the vectorization switch.

The analytic game layer is the hot path once the event engine is fast,
so every best response counts the objective/congestion evaluations it
spent and the batched grid calls it made.  The counts go to the
:mod:`repro.obs` registry as ``solver.<name>`` for each name in
:data:`COUNTERS`; ``greedwork run`` prints their totals on the
``[solver]`` stderr line, never in experiment stdout, so a solver
change that alters how often it evaluates leaves the paper output
alone.  Counts are per user: ``objective_evals`` and
``congestion_evals`` count candidate points scored, and
``grid_calls`` counts grid-zoom rounds (scan included) each user's
best response took.  A simultaneous best-response round batches all
N users into one evaluator call per zoom round, yet still adds each
user's own rounds and points — the same totals as N separate best
responses.  The module also owns the switch between the vectorized grid
evaluation core and the legacy scalar scan, so the two can be
A/B-timed on the same box (``benchmarks/bench_solver.py``) and the
scalar path stays available as a correctness oracle.

Mirrors the toggle idiom of :mod:`repro.sim.cache`:

* environment: ``GREEDWORK_SOLVER_VECTOR=off`` (or ``0``/``false``/
  ``no``) disables the vectorized paths for the whole process;
  ``GREEDWORK_SOLVER_VECTOR=auto`` selects per-call between the grid
  and scalar paths from the discipline's measured cost model;
* programmatic: :func:`set_vectorized` overrides the environment for
  the current process (``None`` restores environment control).

The switch is tri-state (:func:`mode`): ``"on"`` always uses the
batched grid when a discipline advertises one, ``"off"`` always scans
scalar, and ``"auto"`` consults the discipline's
:attr:`~repro.disciplines.base.AllocationFunction.grid_min_users`
cost hint — disciplines whose scalar objective is a single reduction
(FIFO's one ``sum``) beat the fixed numpy call overhead of the grid
path at small N, and auto keeps them on the faster path without
giving up the grid at scale.  Auto is a pure cost decision: its
output is bit-identical to whichever pure mode it selects (``"off"``
below the hint, ``"on"`` at or above it), and the two pure paths
themselves agree to within the maximizer tolerance (both refine
inside the same scan bracket).

Counting code reads the registry through :class:`repro.obs.Scope`;
:func:`track_solver` is a thin view over one, kept for the benchmark
harness.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterator, Optional

import repro.obs as obs

ENV_TOGGLE = "GREEDWORK_SOLVER_VECTOR"
_DISABLING_VALUES = {"0", "off", "false", "no"}
_AUTO_VALUES = {"auto", "cost", "adaptive"}

#: The solver's counters, ``solver.<name>`` in :mod:`repro.obs`, in
#: ``[solver]`` line order.
COUNTERS = ("objective_evals", "congestion_evals", "grid_calls")

_vector_override: Optional[str] = None


def mode() -> str:
    """The solver-vectorization mode: ``"on"``, ``"off"`` or ``"auto"``."""
    if _vector_override is not None:
        return _vector_override
    raw = os.environ.get(ENV_TOGGLE)
    if raw is None:
        return "on"
    cleaned = raw.strip().lower()
    if cleaned in _DISABLING_VALUES:
        return "off"
    if cleaned in _AUTO_VALUES:
        return "auto"
    return "on"


def vectorized() -> bool:
    """Whether solvers may use the batched grid evaluation core.

    True in both ``"on"`` and ``"auto"`` modes; ``"auto"`` additionally
    lets the call site fall back to the scalar path when the
    discipline's cost hint says the grid loses at the problem size.
    """
    return mode() != "off"


def set_vectorized(value) -> None:
    """Force the vectorization switch; ``None`` defers to the env.

    Accepts the historical booleans (``True`` → ``"on"``, ``False`` →
    ``"off"``) as well as the mode strings ``"on"``/``"off"``/
    ``"auto"``.
    """
    # greedwork: ignore[GW601] -- deliberately per-process: each worker
    # re-applies the parent's flag from its payload (registry._run_one).
    global _vector_override
    if value is None:
        _vector_override = None
    elif isinstance(value, bool):
        _vector_override = "on" if value else "off"
    elif value in ("on", "off", "auto"):
        _vector_override = value
    else:
        raise ValueError(
            f"expected True/False/None or 'on'/'off'/'auto', got {value!r}")


@contextmanager
def track_solver() -> Iterator[SimpleNamespace]:
    """A namespace whose :data:`COUNTERS` attributes hold the block's
    solver counts once the block exits (a :class:`repro.obs.Scope`)."""
    counts = SimpleNamespace(**dict.fromkeys(COUNTERS, 0))
    with obs.Scope() as scope:
        yield counts
    vars(counts).update(obs.group("solver", COUNTERS, scope.delta))
