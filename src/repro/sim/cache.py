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
* Location: ``.greedwork_cache/sim/`` under the working directory
  (same root as the static-analysis cache), or
  ``$GREEDWORK_SIM_CACHE_DIR`` when set.  Entries are records in the
  append-only segment files ``seg-<n>.log`` of a
  :class:`~repro.sim.store.RecordStore`: each writing process appends
  to its own segment, each record carries the SHA-256 of its key and
  pickled payload, and a reader indexes records in memory.  Caches
  from before the store (one ``<key[:2]>/<key>.pkl`` file per entry)
  are not read: such a directory goes cold once.
* Key: SHA-256 of the canonical JSON of every ``SimulationConfig``
  field plus ``ENGINE_VERSION`` — bumping the tag in ``runner.py``
  invalidates everything the old event core produced.
* Only configs whose ``policy`` is a *name* are cacheable: a
  ``QueuePolicy`` instance carries arbitrary state the key cannot see.
* Opt-out: ``greedwork run/report --no-sim-cache``, or set
  ``GREEDWORK_SIM_CACHE=off`` (library users: :func:`set_enabled`).
* The cache is best-effort and never serves wrong bytes: a record
  that fails its checksum and a torn segment tail are misses, and a
  failed write (a full disk) is a lost store; each counts a
  ``sim.store.*`` event (see :mod:`repro.sim.store`).  A payload that
  no longer unpickles is a plain miss.

Resumable engine state
----------------------
Besides finished results, the cache stores *engine snapshots* for
configs that opted into a horizon-independent batch layout
(``batch_quota`` set): :func:`state_key` hashes every config field
**except** ``horizon``, so one entry serves every horizon of the same
run.  ``simulate`` restores the snapshot and simulates only the
``H -> H'`` delta, which is what makes sequential stopping
(:func:`repro.sim.runner.simulate_to_precision`) nearly free on warm
caches.  A ladder stores one snapshot, at its final rung; a later
record under the same ``state-`` key supersedes an earlier one.
Snapshots obey the same engine-version invalidation as results.

Counts go to :mod:`repro.obs` as ``sim.cache.<name>`` for each name in
:data:`COUNTERS` (``fresh_events`` counts events simulated by
cache-missing runs).  ``greedwork run`` prints them to stderr as the
``[sim-cache]`` line; CI's warm-cache gate asserts a second
``greedwork run table1`` reports ``fresh_events=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import fields
from typing import Any, Dict, Optional

import repro.obs as obs
from repro.sim.store import RecordStore

#: Environment toggle; any of "0", "off", "false", "no" disables.
ENV_TOGGLE = "GREEDWORK_SIM_CACHE"

#: Environment override for the cache directory.
ENV_DIR = "GREEDWORK_SIM_CACHE_DIR"

#: Default location relative to the working directory.
DEFAULT_SUBDIR = os.path.join(".greedwork_cache", "sim")

_DISABLING_VALUES = frozenset({"0", "off", "false", "no"})


#: The cache's counters, ``sim.cache.<name>`` in :mod:`repro.obs`, in
#: ``[sim-cache]`` line order.
COUNTERS = ("hits", "misses", "stores", "uncacheable", "state_hits",
            "state_stores", "fresh_events")

_enabled_override: Optional[bool] = None
_records: Optional[RecordStore] = None


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


def _key(config: Any, header: Dict[str, Any], prefix: str = "",
         skip: str = "") -> Optional[str]:
    """``prefix`` plus the SHA-256 of ``header`` and every dataclass
    field of ``config`` but ``skip``, as canonical JSON; ``None`` when a
    name-configured policy or a canonical field value is missing."""
    if not isinstance(getattr(config, "policy", None), str):
        return None
    payload = dict(header)
    try:
        for spec in fields(config):
            if spec.name != skip:
                payload[spec.name] = _canonical_value(
                    getattr(config, spec.name))
    except TypeError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return prefix + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_key(config: Any, engine_version: str) -> Optional[str]:
    """Content hash of a config, or ``None`` when it is uncacheable.

    Iterates the dataclass fields, so any field added to
    ``SimulationConfig`` later is automatically part of the key (a
    field the canonicalizer does not understand makes the config
    uncacheable rather than silently colliding).
    """
    return _key(config, {"__engine__": engine_version})


def state_key(config: Any, engine_version: str) -> Optional[str]:
    """Content hash of a config *minus its horizon*, or ``None``.

    Horizon-independent keying is what lets one snapshot entry serve a
    whole family of extensions of the same run; it is only sound when
    the batch layout is itself horizon-independent, so configs without
    an explicit ``batch_quota`` are not state-cacheable.
    """
    if getattr(config, "batch_quota", None) is None:
        return None
    return _key(config, {"__engine__": engine_version, "__kind__": "state"},
                prefix="state-", skip="horizon")


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
    return _key(config, {
        "__engine__": engine_version,
        "__kind__": "precision",
        "__target__": float(target_halfwidth),
        "__confidence__": float(confidence),
        "__growth__": float(growth),
        "__max_horizon__": float(max_horizon),
        "__controls__": bool(use_control_variates),
    }, prefix="prec-")


def _store() -> RecordStore:
    """This process's record store for the current cache directory."""
    # greedwork: ignore[GW601] -- per process by design: each worker
    # opens its own store (a forked child closes the handles it
    # inherits), and the directory comes from the dispatch payload.
    global _records
    directory = cache_dir()
    if _records is None or _records.directory != directory:
        if _records is not None:
            _records.close()
        _records = RecordStore(directory)
    return _records


def _get(key: str) -> Optional[Any]:
    """The entry under ``key``, or ``None`` if absent or unreadable."""
    payload = _store().get(key)
    if payload is None:
        return None
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None


def _put(key: str, obj: Any) -> bool:
    """Append ``obj`` pickled under ``key``; True on success."""
    return _store().put(key, pickle.dumps(
        obj, protocol=pickle.HIGHEST_PROTOCOL))


def _entry_path(key: str) -> str:
    # Never exists: entries are store records.  Kept because perfbench's
    # traced run sizes each write with
    # ``os.path.getsize(cache._entry_path(key))`` and catches only
    # OSError, so those sizes now read 0.
    return os.path.join(cache_dir(), key[:2], key + ".pkl")


def store_meta(key: str, payload: Any) -> None:
    """Persist a small metadata entry without touching the counters.

    Index entries describe other cache entries rather than simulation
    results; counting them as stores would skew the result-cache
    accounting the CI gates read.
    """
    _put(key, payload)


def load_state(key: str) -> Optional[Any]:
    """The cached engine snapshot for ``key``, or ``None``.

    Unlike :func:`load`, a miss here is not counted as a cache miss —
    the result-cache counters keep their original meaning; restored
    snapshots increment ``state_hits`` instead.
    """
    state = _get(key)
    if state is not None:
        obs.add("sim.cache.state_hits")
    return state


def store_state(key: str, state: Any) -> None:
    """Persist an engine snapshot under ``key`` (best-effort).

    The caller is responsible for only superseding an entry with a
    snapshot at a *later* horizon (a race losing that property costs
    performance on the next resume, never correctness).  :func:`store`
    counts ``state-`` keys as ``state_stores``.
    """
    store(key, state)


def peek(key: str) -> Optional[Any]:
    """The cached result for ``key`` without touching the counters.

    The sweep scheduler's dedup-before-dispatch probe replays a cell's
    chunk ladder against the cache to decide whether a worker
    round-trip is needed at all; counting those probes as hits/misses
    would double-book the cells that then go on to call
    :func:`repro.sim.runner.simulate` for real.
    """
    return _get(key)


def load(key: str) -> Optional[Any]:
    """The cached result for ``key``, or ``None`` (counts hit/miss)."""
    result = _get(key)
    obs.add("sim.cache.misses" if result is None else "sim.cache.hits")
    return result


def store(key: str, result: Any) -> None:
    """Persist ``result`` under ``key`` (best-effort)."""
    if _put(key, result):
        obs.add("sim.cache.state_stores" if key.startswith("state-")
                else "sim.cache.stores")
