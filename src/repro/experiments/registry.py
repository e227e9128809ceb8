"""Registry mapping experiment ids to their modules.

Besides the id -> ``run(seed, fast)`` lookup, this module owns
:func:`run_experiments`, the fan-out used by ``greedwork run`` and
``greedwork report``: it executes a list of experiments either serially
or across a :class:`~repro.parallel.WorkerPool` (``--jobs N``).
Experiments seed their own generators from the
``seed`` argument, so parallel execution returns byte-identical
reports in the submitted order; a crashing experiment is isolated into
a synthesized FAIL report carrying its traceback instead of killing
the pool.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.parallel import WorkerPool
from repro.sim import cache as sim_cache
from repro.experiments import (
    ablation_arrivals,
    ablation_costshare,
    c2_separable,
    coalition_resilience,
    finite_buffers,
    fq_vs_ladder,
    greed_endtoend,
    mg1_generality,
    network_extension,
    poa_sweep,
    scaling_regimes,
    sim_validation,
    stalling_pivot,
    subsystem_properties,
    t1_efficiency,
    t2_symmetric,
    t3_envy,
    t4_uniqueness,
    t5_stackelberg,
    t6_revelation,
    t7_dynamics,
    t8_protection,
    table1,
)
from repro.experiments.base import ExperimentReport

_MODULES = (
    table1,
    t1_efficiency,
    t2_symmetric,
    t3_envy,
    t4_uniqueness,
    t5_stackelberg,
    t6_revelation,
    t7_dynamics,
    t8_protection,
    c2_separable,
    sim_validation,
    greed_endtoend,
    ablation_costshare,
    network_extension,
    stalling_pivot,
    mg1_generality,
    fq_vs_ladder,
    coalition_resilience,
    poa_sweep,
    ablation_arrivals,
    subsystem_properties,
    finite_buffers,
    scaling_regimes,
)

_REGISTRY: Dict[str, Callable[..., ExperimentReport]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

_CLAIMS: Dict[str, str] = {
    module.EXPERIMENT_ID: module.CLAIM for module in _MODULES
}


def all_experiments() -> List[str]:
    """Experiment ids in paper order."""
    return [module.EXPERIMENT_ID for module in _MODULES]


def claim_of(experiment_id: str) -> str:
    """One-sentence paper claim for an experiment id."""
    try:
        return _CLAIMS[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(all_experiments())}") from None


def get_experiment(experiment_id: str) -> Callable[..., ExperimentReport]:
    """The ``run(seed, fast)`` callable for an experiment id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(all_experiments())}") from None


def _failure_report(experiment_id: str, trace: str) -> ExperimentReport:
    """A FAIL report standing in for an experiment that crashed."""
    return ExperimentReport(
        experiment_id=experiment_id,
        claim=claim_of(experiment_id),
        passed=False,
        notes=[f"experiment crashed:\n{trace.rstrip()}"])


def _run_one(experiment_id: str, seed: int, fast: bool,
             cache_enabled: Optional[bool] = None,
             ) -> Tuple[Optional[ExperimentReport], Optional[str]]:
    """Run one experiment; the pool-safe unit of work.

    Returns ``(report, traceback)`` where exactly one is set.
    ``cache_enabled`` pins the sim-cache override inside a worker
    process, where the parent's in-memory override is not inherited;
    ``None`` (the serial path) leaves it untouched.  The experiment's
    cache and solver counts go to the :mod:`repro.obs` registry, never
    into its report.
    """
    if cache_enabled is not None:
        sim_cache.set_enabled(cache_enabled)
    try:
        return _REGISTRY[experiment_id](seed=seed, fast=fast), None
    except Exception:
        return None, traceback.format_exc()


def run_experiments(experiment_ids: Sequence[str], seed: int = 0,
                    fast: bool = False, jobs: int = 1,
                    ) -> List[ExperimentReport]:
    """Run experiments, optionally in parallel; reports in input order.

    ``jobs > 1`` fans the experiments out over a
    :class:`~repro.parallel.WorkerPool` of up to ``jobs`` workers,
    built and shut down by this call.  Each experiment derives all
    randomness from ``seed``, so the reports are identical to a serial
    run — only wall time changes.
    Unknown ids raise :class:`~repro.exceptions.ReproError` up front
    (before any work starts); an experiment that *crashes* comes back
    as a FAIL report with the worker traceback in its notes.
    """
    ids = list(experiment_ids)
    for experiment_id in ids:           # validate before spawning
        get_experiment(experiment_id)
    if jobs > 1 and len(ids) > 1:
        with WorkerPool(min(jobs, len(ids))) as pool:
            outcomes = list(pool.map(
                _run_one, ids, [seed] * len(ids), [fast] * len(ids),
                [sim_cache.enabled()] * len(ids)))
    else:
        outcomes = [_run_one(experiment_id, seed, fast)
                    for experiment_id in ids]
    return [report if report is not None
            else _failure_report(experiment_id, trace)
            for experiment_id, (report, trace) in zip(ids, outcomes)]
