"""Append-only JSONL sweep journals: interrupted sweeps resume delta-only.

A sweep over hundreds of cells is exactly the kind of job that gets
killed halfway — CI timeouts, laptop lids, OOM reapers.  The journal
makes that cheap to survive: every completed cell appends one JSON
line (fsync-free, atomic at the line level for the append sizes
involved), and a resumed sweep replays the journal, keeps every
outcome whose content key still matches the catalog + engine version,
and schedules only the missing cells.

Layout: ``.greedwork_cache/sweeps/<catalog-digest>.jsonl`` under the
working directory (``$GREEDWORK_SWEEP_DIR`` overrides), one journal
per catalog digest — so ``sweep resume`` needs no bookkeeping beyond
the catalog itself.  Records::

    {"kind": "sweep", "digest": ..., "catalog": ..., "n_cells": ...,
     "engine": ...}
    {"kind": "cell", "key": ..., "outcome": {...}}

The header is written once per ``run``/``resume`` invocation (a
journal may carry several across restarts); a header whose digest or
engine tag disagrees with the resuming catalog invalidates all
*earlier* cell records, mirroring the sim cache's engine-version
policy.  A truncated trailing line (the kill arrived mid-write) is
ignored, not fatal, and a resume cuts it off before appending.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, TextIO

from repro.exceptions import SweepError
from repro.sim.runner import ENGINE_VERSION

#: Environment override for the journal directory.
ENV_DIR = "GREEDWORK_SWEEP_DIR"

#: Default location relative to the working directory (sibling of the
#: sim and staticcheck caches).
DEFAULT_SUBDIR = os.path.join(".greedwork_cache", "sweeps")


def sweep_dir() -> str:
    """Resolved journal directory (not necessarily existing yet)."""
    return os.environ.get(ENV_DIR) or os.path.join(os.getcwd(),
                                                   DEFAULT_SUBDIR)


def journal_path(digest: str) -> str:
    """Canonical journal path for a catalog digest."""
    return os.path.join(sweep_dir(), digest + ".jsonl")


def read_journal(path: str) -> Dict[str, Dict[str, Any]]:
    """Completed cell outcomes by key from a journal on disk.

    Returns an empty mapping when the journal does not exist.  A
    ``sweep`` header whose engine tag differs from the running one
    drops everything read so far (those outcomes came from an event
    core that no longer exists); malformed or truncated lines are
    skipped.
    """
    outcomes: Dict[str, Dict[str, Any]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue            # truncated trailing write
                kind = record.get("kind")
                if kind == "sweep":
                    if record.get("engine") != ENGINE_VERSION:
                        outcomes.clear()
                elif kind == "cell":
                    key = record.get("key")
                    outcome = record.get("outcome")
                    if isinstance(key, str) and isinstance(outcome,
                                                           dict):
                        outcomes[key] = outcome
    except OSError:
        return {}
    return outcomes


def _cut_torn_line(path: str) -> None:
    """Cut off the bytes after a journal's last newline, if any."""
    try:
        with open(path, "r+b") as handle:
            data = handle.read()
            whole = data.rfind(b"\n") + 1
            if whole < len(data):
                handle.truncate(whole)
    except FileNotFoundError:
        pass


class SweepJournal:
    """Append-only writer for one sweep's journal file.

    ``fresh=True`` truncates any existing journal (``sweep run``
    semantics); the default appends (``sweep resume``) after cutting
    off a torn last line, so the next record starts a line of its own.
    Each record is flushed immediately so a killed sweep loses at most
    the cell in flight.
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                raise SweepError(
                    f"cannot create sweep directory {directory!r}: "
                    f"{exc}") from exc
        mode = "w" if fresh else "a"
        try:
            if not fresh:
                _cut_torn_line(path)
            self._handle: Optional[TextIO] = open(
                path, mode, encoding="utf-8")
        except OSError as exc:
            raise SweepError(
                f"cannot open sweep journal {path!r}: {exc}") from exc

    def write_header(self, digest: str, catalog_name: str,
                     n_cells: int) -> None:
        """Record the catalog identity this journal extends."""
        self._write({"kind": "sweep", "digest": digest,
                     "catalog": catalog_name, "n_cells": n_cells,
                     "engine": ENGINE_VERSION})

    def write_cell(self, key: str, outcome: Dict[str, Any]) -> None:
        """Record one completed cell outcome."""
        self._write({"kind": "cell", "key": key, "outcome": outcome})

    def _write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise SweepError(
                f"sweep journal {self.path!r} is already closed")
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def list_journals() -> List[str]:
    """Journal digests present in the sweep directory (sorted)."""
    try:
        names = sorted(os.listdir(sweep_dir()))
    except OSError:
        return []
    return [name[:-len(".jsonl")] for name in names
            if name.endswith(".jsonl")]
