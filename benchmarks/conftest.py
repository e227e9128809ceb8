"""Shared fixtures for the pytest-benchmark microbenchmarks.

``bench_micro.py`` and ``bench_solver.py`` time the hot code paths
under ``make bench``.  The paper's experiments are not benchmarked
here: ``tests/test_experiments_fast.py`` asserts every fast-mode
verdict and ``make report`` records the full-mode run.
"""

import pytest

from repro.sim import cache as sim_cache


@pytest.fixture(autouse=True)
def _sim_cache_off():
    """Benchmarks measure the engine, never the simulation cache.

    Without this, every round after the first would return the cached
    result of the first and the benchmark would time pickle loading.
    """
    sim_cache.set_enabled(False)
    yield
    sim_cache.set_enabled(None)

