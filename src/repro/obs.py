"""Per-process counters: the one registry behind every count a run reports.

A counter is a named integer that only grows (``sim.cache.hits``,
``solver.grid_calls``).  Work calls :func:`add`; reporting reads what a
block added through a nestable :class:`Scope`.  Counts are per
process: :class:`repro.parallel.WorkerPool` runs each task inside a
scope in its worker and folds the delta into the parent with
:func:`merge`, once and only for work done in another process.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Sequence

_COUNTS: Dict[str, int] = {}
#: Held by every access, so a delta folded from the pool's result
#: thread never loses a concurrent :func:`add`.
_LOCK = threading.Lock()


def add(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the counter ``name``."""
    with _LOCK:
        # greedwork: ignore[GW601] -- per process by design: WorkerPool
        # returns each task's delta with its result and folds it here.
        _COUNTS[name] = _COUNTS.get(name, 0) + amount


def merge(delta: Mapping[str, int]) -> None:
    """Fold counts made in another process into this one, atomically."""
    with _LOCK:
        for name, amount in delta.items():
            _COUNTS[name] = _COUNTS.get(name, 0) + amount


def totals() -> Dict[str, int]:
    """A copy of every counter in this process."""
    with _LOCK:
        return dict(_COUNTS)


class Scope:
    """What a ``with`` block adds: nothing before the block runs, live
    inside it, frozen at its exit."""

    def __init__(self) -> None:
        self._start: Dict[str, int] = {}
        self._frozen: Optional[Dict[str, int]] = {}

    def __enter__(self) -> "Scope":
        self._start, self._frozen = totals(), None
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._frozen = self.delta

    @property
    def delta(self) -> Dict[str, int]:
        """Counter name -> amount added in the scope (nonzero only)."""
        if self._frozen is not None:
            return dict(self._frozen)
        start = self._start
        return {name: value - start.get(name, 0)
                for name, value in totals().items()
                if value != start.get(name, 0)}

    def get(self, name: str) -> int:
        """What the scope added to one counter."""
        return self.delta.get(name, 0)


def group(prefix: str, names: Sequence[str],
          counts: Mapping[str, int]) -> Dict[str, int]:
    """``{name: count}`` of the counters ``prefix.name``, in order."""
    return {name: counts.get(f"{prefix}.{name}", 0) for name in names}


def line(label: str, values: Mapping[str, int]) -> str:
    """``[label] name=value ...``, the one-line stderr summary form."""
    return f"[{label}] " + " ".join(
        f"{name}={value}" for name, value in values.items())
