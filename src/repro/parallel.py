"""Reusable process-pool handles for every fan-out in the library.

Before this module, each parallel entry point
(:func:`repro.experiments.registry.run_experiments`,
:func:`repro.sim.runner.replicate`) created a fresh
``ProcessPoolExecutor`` per call and paid pool spin-up — worker fork,
interpreter warm-up, module imports — per *batch* rather than per
*session*.  The sweep orchestrator (:mod:`repro.sweep.scheduler`)
dispatches thousands of small tasks, so the spin-up cost had to move
out of the call path: :class:`WorkerPool` is a lazily started,
explicitly reusable handle that callers can thread through any number
of batches and shut down once.

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

The handle is deliberately thin: it does not reach into worker
processes, impose a task protocol, or touch module state — per-worker
statistics travel back through task return values and are merged by
the caller (the ``_stats`` + ``merge_stats`` delta protocol the sim
cache documents).
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Optional


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
        """The live executor, creating it on first access."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> "Future[Any]":
        """Schedule ``fn(*args, **kwargs)`` on the pool."""
        return self.executor.submit(fn, *args, **kwargs)

    def map(self, fn: Callable[..., Any],
            *iterables: Iterable[Any]) -> Iterator[Any]:
        """``executor.map`` on the pool (ordered results)."""
        return self.executor.map(fn, *iterables)

    def shutdown(self) -> None:
        """Stop the workers (idempotent; handle may not be reused)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
