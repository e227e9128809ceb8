"""Reusable process-pool handles for every fan-out in the library.

:class:`WorkerPool` is a lazily started, explicitly reusable handle
that :func:`repro.experiments.registry.run_experiments`,
:func:`repro.sim.runner.replicate` and the sweep scheduler thread
through any number of batches, so pool spin-up (worker fork, imports)
is paid once per session rather than once per batch.

Two usage patterns::

    # One-shot (equivalent to the old per-call executor):
    with WorkerPool(jobs=4) as pool:
        outcomes = list(pool.map(work, payloads))

    # Reused across batches (orchestrator, report regeneration):
    pool = WorkerPool(jobs=4)
    try:
        run_experiments(ids_a, jobs=4, pool=pool)
        run_experiments(ids_b, jobs=4, pool=pool)
    finally:
        pool.shutdown()

Counts cross the process boundary here and nowhere else: every task
runs inside a :class:`repro.obs.Scope` in its worker, and the pool
folds the scope's delta into the parent before handing on the result.
Callers dispatch plain task functions and fold nothing themselves.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

import repro.obs as obs


def _counted(fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Tuple[Any, dict]:
    """Run one task in a worker; return its result and its counts."""
    with obs.Scope() as counted:
        result = fn(*args, **kwargs)
    return result, counted.delta


def _settle(settled: "Future[Any]", future: "Future[Any]") -> None:
    """Fold a finished task's counts, then complete ``settled``."""
    error = future.exception()
    if error is not None:
        if settled.set_running_or_notify_cancel():
            settled.set_exception(error)
        return
    result, delta = future.result()
    obs.merge(delta)
    if settled.set_running_or_notify_cancel():
        settled.set_result(result)


class WorkerPool:
    """A lazily started, reusable ``ProcessPoolExecutor`` handle.

    Parameters
    ----------
    jobs:
        Maximum worker processes.  Values below 2 still build a
        one-worker pool when :attr:`executor` is touched — callers
        that want a serial fast path should branch on ``jobs`` before
        constructing the pool (every call site in this repo does).

    The underlying executor is created on first use, so constructing a
    :class:`WorkerPool` is free and a pool that ends up serving only
    cache hits never forks at all.  ``shutdown`` is idempotent; a
    handle can also be used as a context manager.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def started(self) -> bool:
        """Whether the underlying executor has been created."""
        return self._executor is not None

    @property
    def executor(self) -> Executor:
        """The live executor (created on first access); tasks handed
        to it directly skip the count fold of :meth:`submit`."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> "Future[Any]":
        """Schedule ``fn(*args, **kwargs)``; the future completes with
        its result once the task's worker counts are folded in here."""
        settled: "Future[Any]" = Future()
        self.executor.submit(_counted, fn, *args, **kwargs) \
            .add_done_callback(partial(_settle, settled))
        return settled

    def map(self, fn: Callable[..., Any],
            *iterables: Iterable[Any]) -> Iterator[Any]:
        """``executor.map`` on the pool: ordered results, via :meth:`submit`."""
        futures = [self.submit(fn, *args) for args in zip(*iterables)]
        return (future.result() for future in futures)

    def shutdown(self) -> None:
        """Stop the workers (idempotent; handle may not be reused)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
