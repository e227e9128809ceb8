"""Persistent, content-keyed cache of simulation results.

Experiments, benchmarks, and report regeneration call
:func:`repro.sim.runner.simulate` with overlapping configurations; at
paper-table horizons each call costs seconds.  This module makes
repeated calls free: results are pickled under a key derived from the
*content* of the :class:`~repro.sim.runner.SimulationConfig` plus the
engine version tag, so a cached result is returned only when the exact
same simulation would be re-run by the exact same event core.

Layout and policy
-----------------
* Location: ``.greedwork_cache/sim/<key[:2]>/<key>.pkl`` under the
  working directory (same root as the static-analysis cache), or
  ``$GREEDWORK_SIM_CACHE_DIR`` when set.
* Key: SHA-256 of the canonical JSON of every ``SimulationConfig``
  field plus ``ENGINE_VERSION`` — bumping the tag in ``runner.py``
  invalidates everything the old event core produced.
* Only configs whose ``policy`` is a *name* are cacheable: a
  ``QueuePolicy`` instance carries arbitrary state the key cannot see.
* Opt-out: ``greedwork run/report --no-sim-cache``, or set
  ``GREEDWORK_SIM_CACHE=off`` (library users: :func:`set_enabled`).
* The cache is best-effort: unreadable or corrupt entries are treated
  as misses and I/O errors while storing are swallowed.

Resumable engine state
----------------------
Besides finished results, the cache stores *engine snapshots* for
configs that opted into a horizon-independent batch layout
(``batch_quota`` set): :func:`state_key` hashes every config field
**except** ``horizon``, so one entry serves every horizon of the same
run.  ``simulate`` restores the snapshot and simulates only the
``H -> H'`` delta, which is what makes sequential stopping
(:func:`repro.sim.runner.simulate_to_precision`) nearly free on warm
caches.  Snapshot entries live next to result entries under a
``state-`` prefixed key and obey the same engine-version
invalidation.

Statistics are kept per process (hits, misses, stores, uncacheable
lookups, and ``fresh_events`` — events simulated by cache-missing
runs).  ``greedwork run`` prints them to stderr; CI's warm-cache gate
asserts a second ``greedwork run table1`` reports ``fresh_events=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

#: Environment toggle; any of "0", "off", "false", "no" disables.
ENV_TOGGLE = "GREEDWORK_SIM_CACHE"

#: Environment override for the cache directory.
ENV_DIR = "GREEDWORK_SIM_CACHE_DIR"

#: Default location relative to the working directory.
DEFAULT_SUBDIR = os.path.join(".greedwork_cache", "sim")

_DISABLING_VALUES = frozenset({"0", "off", "false", "no"})


@dataclass
class CacheStats:
    """Per-process counters for cache behaviour."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    #: Events (arrivals + departures) processed by fresh simulate runs.
    #: A resumed run contributes only its extension delta.
    fresh_events: int = 0
    #: Engine snapshots restored (each one turned a fresh run into a
    #: delta run) and snapshots written.
    state_hits: int = 0
    state_stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (snapshot/merge currency)."""
        return asdict(self)

    def line(self) -> str:
        """One-line summary, greppable by the CI warm-cache gate."""
        return (f"[sim-cache] hits={self.hits} misses={self.misses} "
                f"stores={self.stores} uncacheable={self.uncacheable} "
                f"state_hits={self.state_hits} "
                f"state_stores={self.state_stores} "
                f"fresh_events={self.fresh_events}")


_stats = CacheStats()
_enabled_override: Optional[bool] = None


def enabled() -> bool:
    """Whether simulate() should consult the cache."""
    # greedwork: ignore[GW601] -- the override is deliberately
    # per-process; workers re-apply the parent's flag from their
    # payload (registry._run_one ships cache_enabled explicitly).
    if _enabled_override is not None:
        return _enabled_override
    raw = os.environ.get(ENV_TOGGLE, "").strip().lower()
    return raw not in _DISABLING_VALUES


def set_enabled(flag: Optional[bool]) -> None:
    """Force the cache on/off; ``None`` returns control to the env."""
    # greedwork: ignore[GW601] -- see enabled(): per-process override,
    # re-applied in each worker from the dispatch payload.
    global _enabled_override
    _enabled_override = flag


def cache_dir() -> str:
    """Resolved cache directory (not necessarily existing yet)."""
    return os.environ.get(ENV_DIR) or os.path.join(os.getcwd(),
                                                   DEFAULT_SUBDIR)


def _canonical_value(value: Any) -> Any:
    """JSON-stable form of one config field; raises TypeError if none."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if hasattr(value, "tolist"):        # numpy array or scalar
        return _canonical_value(value.tolist())
    raise TypeError(f"uncacheable config value {value!r}")


def config_key(config: Any, engine_version: str) -> Optional[str]:
    """Content hash of a config, or ``None`` when it is uncacheable.

    Iterates the dataclass fields, so any field added to
    ``SimulationConfig`` later is automatically part of the key (a
    field the canonicalizer does not understand makes the config
    uncacheable rather than silently colliding).
    """
    if not isinstance(getattr(config, "policy", None), str):
        return None
    payload: Dict[str, Any] = {"__engine__": engine_version}
    try:
        for spec in fields(config):
            payload[spec.name] = _canonical_value(
                getattr(config, spec.name))
    except TypeError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_key(config: Any, engine_version: str) -> Optional[str]:
    """Content hash of a config *minus its horizon*, or ``None``.

    Horizon-independent keying is what lets one snapshot entry serve a
    whole family of extensions of the same run; it is only sound when
    the batch layout is itself horizon-independent, so configs without
    an explicit ``batch_quota`` are not state-cacheable.
    """
    if getattr(config, "batch_quota", None) is None:
        return None
    if not isinstance(getattr(config, "policy", None), str):
        return None
    payload: Dict[str, Any] = {"__engine__": engine_version,
                               "__kind__": "state"}
    try:
        for spec in fields(config):
            if spec.name == "horizon":
                continue
            payload[spec.name] = _canonical_value(
                getattr(config, spec.name))
    except TypeError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "state-" + hashlib.sha256(
        blob.encode("utf-8")).hexdigest()


def precision_key(config: Any, engine_version: str,
                  target_halfwidth: float, confidence: float,
                  growth: float, max_horizon: float,
                  use_control_variates: bool) -> Optional[str]:
    """Content hash of one sequential-stopping schedule, or ``None``.

    Keys the tiny precision-index entry
    :func:`repro.sim.runner.simulate_to_precision` stores alongside
    its chunk results: the *initial* config (all fields — the ladder
    schedule is a pure function of it) plus every argument that
    shapes the ladder.  A warm replayer that hits the index can jump
    straight to the final rung instead of re-walking and re-summarizing
    every chunk.
    """
    if not isinstance(getattr(config, "policy", None), str):
        return None
    payload: Dict[str, Any] = {
        "__engine__": engine_version,
        "__kind__": "precision",
        "__target__": float(target_halfwidth),
        "__confidence__": float(confidence),
        "__growth__": float(growth),
        "__max_horizon__": float(max_horizon),
        "__controls__": bool(use_control_variates),
    }
    try:
        for spec in fields(config):
            payload[spec.name] = _canonical_value(
                getattr(config, spec.name))
    except TypeError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "prec-" + hashlib.sha256(
        blob.encode("utf-8")).hexdigest()


def store_meta(key: str, payload: Any) -> None:
    """Persist a small metadata entry without touching the counters.

    Index entries describe other cache entries rather than simulation
    results; counting them as stores would skew the result-cache
    accounting the CI gates read.
    """
    _write_entry(key, payload)


def load_state(key: str) -> Optional[Any]:
    """The cached engine snapshot for ``key``, or ``None``.

    Unlike :func:`load`, a miss here is not counted as a cache miss —
    the result-cache counters keep their original meaning; restored
    snapshots increment ``state_hits`` instead.
    """
    path = _entry_path(key)
    try:
        with open(path, "rb") as handle:
            state = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    # greedwork: ignore[GW601] -- _stats is per-process by design;
    # merge_stats folds worker deltas back into the parent.
    _stats.state_hits += 1
    return state


def store_state(key: str, state: Any) -> None:
    """Persist an engine snapshot under ``key`` (atomic, best-effort).

    The caller is responsible for only overwriting an entry with a
    snapshot at a *later* horizon (a race losing that property costs
    performance on the next resume, never correctness).
    """
    before = _stats.stores
    store(key, state)
    if _stats.stores > before:
        # greedwork: ignore[GW601] -- per-process _stats; see
        # merge_stats.
        _stats.stores = before
        _stats.state_stores += 1


def _entry_path(key: str) -> str:
    return os.path.join(cache_dir(), key[:2], key + ".pkl")


def peek(key: str) -> Optional[Any]:
    """The cached result for ``key`` without touching the counters.

    The sweep scheduler's dedup-before-dispatch probe replays a cell's
    chunk ladder against the cache to decide whether a worker
    round-trip is needed at all; counting those probes as hits/misses
    would double-book the cells that then go on to call
    :func:`repro.sim.runner.simulate` for real.
    """
    try:
        with open(_entry_path(key), "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None


def load(key: str) -> Optional[Any]:
    """The cached result for ``key``, or ``None`` (counts hit/miss)."""
    path = _entry_path(key)
    try:
        with open(path, "rb") as handle:
            result = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        _stats.misses += 1
        return None
    # greedwork: ignore[GW601] -- per-process _stats; see merge_stats.
    _stats.hits += 1
    return result


def _write_entry(key: str, obj: Any) -> bool:
    """Atomically pickle ``obj`` under ``key``; True on success.

    The shard directory is created only when the temporary file
    cannot be: after a cache's first writes every shard exists.
    """
    path = _entry_path(key)
    directory = os.path.dirname(path)
    try:
        try:
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(obj, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError:
        return False
    return True


def store(key: str, result: Any) -> None:
    """Persist ``result`` under ``key`` (atomic, best-effort)."""
    if not _write_entry(key, result):
        return
    # greedwork: ignore[GW601] -- per-process _stats; see merge_stats.
    _stats.stores += 1


def record_uncacheable() -> None:
    """Note a lookup that could not be keyed (policy instance...)."""
    # greedwork: ignore[GW601] -- per-process _stats; see merge_stats.
    _stats.uncacheable += 1


def record_fresh_events(n_events: int) -> None:
    """Note events processed by a fresh (non-cached) simulation."""
    # greedwork: ignore[GW601] -- per-process _stats; see merge_stats.
    _stats.fresh_events += n_events


def stats() -> CacheStats:
    """The live per-process counters."""
    return _stats


def snapshot() -> Dict[str, int]:
    """Copy of the counters (for deltas across a task)."""
    # greedwork: ignore[GW601] -- reads the per-process counters to
    # build exactly the delta merge_stats later folds into the parent.
    return _stats.as_dict()


def merge_stats(delta: Dict[str, int]) -> None:
    """Fold counters from a worker process into this process."""
    _stats.hits += delta.get("hits", 0)
    _stats.misses += delta.get("misses", 0)
    _stats.stores += delta.get("stores", 0)
    _stats.uncacheable += delta.get("uncacheable", 0)
    _stats.fresh_events += delta.get("fresh_events", 0)
    _stats.state_hits += delta.get("state_hits", 0)
    _stats.state_stores += delta.get("state_stores", 0)


def reset_stats() -> None:
    """Zero the counters (tests)."""
    global _stats
    _stats = CacheStats()
