"""Shared fixtures for the test suite, and helpers that reach sim-cache
records through the record store."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.sim.store import RecordStore
from repro.disciplines import (
    FairShareAllocation,
    PriorityAllocation,
    ProportionalAllocation,
    SeparableAllocation,
)
from repro.numerics import default_rng
from repro.users.families import LinearUtility, PowerUtility


@pytest.fixture(autouse=True)
def _isolated_sim_cache(tmp_path, monkeypatch):
    """Keep the persistent sim cache out of the test suite.

    Tests that exercise determinism must re-simulate, not replay a
    pickle, so the cache is disabled by default; tests of the cache
    itself re-enable it via ``repro.sim.cache.set_enabled`` (the
    override beats the environment).  The directory override keeps any
    enabled test from writing into the developer's working tree.
    """
    from repro.sim import cache as sim_cache

    monkeypatch.setenv(sim_cache.ENV_DIR, str(tmp_path / "sim-cache"))
    monkeypatch.setenv(sim_cache.ENV_TOGGLE, "off")
    yield
    sim_cache.set_enabled(None)


def record_keys(directory):
    """Every key with a record in a sim-cache directory, sorted."""
    with RecordStore(str(directory)) as records:
        return records.keys()


def corrupt_record(directory, key):
    """Flip the last byte of ``key``'s record, so that reading it fails
    its checksum: how a test drops a cache entry."""
    with RecordStore(str(directory)) as records:
        path, offset, length = records.locate(key)
    with open(path, "r+b") as handle:
        handle.seek(offset + length - 1)
        last = handle.read(1)[0]
        handle.seek(offset + length - 1)
        handle.write(bytes([last ^ 0xFF]))


@pytest.fixture
def counted():
    """What the test adds to the :mod:`repro.obs` registry (live)."""
    with obs.Scope() as scope:
        yield scope


@pytest.fixture
def rng():
    """A fresh, fixed-seed generator per test."""
    return default_rng(1234)


@pytest.fixture
def fifo():
    return ProportionalAllocation()


@pytest.fixture
def fair_share():
    return FairShareAllocation()


@pytest.fixture
def priority():
    return PriorityAllocation()


@pytest.fixture
def separable():
    return SeparableAllocation()


@pytest.fixture
def rates3():
    """A canonical 3-user interior rate vector (distinct rates)."""
    return np.array([0.1, 0.2, 0.3])


@pytest.fixture
def linear_profile3():
    """Three linear users with interior equilibria (gamma < 1)."""
    return [LinearUtility(gamma=0.2), LinearUtility(gamma=0.4),
            LinearUtility(gamma=0.7)]


@pytest.fixture
def power_profile2():
    return [PowerUtility(gamma=0.35, q=0.8),
            PowerUtility(gamma=0.6, q=0.9)]
