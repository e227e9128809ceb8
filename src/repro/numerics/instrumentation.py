"""Solver observability: evaluation counters.

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
responses.

Counting code reads the registry through :class:`repro.obs.Scope`;
:func:`track_solver` is a thin view over one, kept for the benchmark
harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Iterator

import repro.obs as obs

#: The solver's counters, ``solver.<name>`` in :mod:`repro.obs`, in
#: ``[solver]`` line order.
COUNTERS = ("objective_evals", "congestion_evals", "grid_calls")


@contextmanager
def track_solver() -> Iterator[SimpleNamespace]:
    """A namespace whose :data:`COUNTERS` attributes hold the block's
    solver counts once the block exits (a :class:`repro.obs.Scope`)."""
    counts = SimpleNamespace(**dict.fromkeys(COUNTERS, 0))
    with obs.Scope() as scope:
        yield counts
    vars(counts).update(obs.group("solver", COUNTERS, scope.delta))
