"""Sequential stopping, CRN pairing, and replication statistics.

Pins the three behavioural contracts the adaptive-precision layer
adds on top of the event engine:

* the **CRN contract** — same seed, same rates, different policy ⇒
  identical arrival variate consumption (golden per-stream draw
  counts), which is what keeps paired discipline comparisons paired
  across engine versions;
* **sequential stopping** — ``simulate_to_precision`` /
  ``replicate_to_precision`` grow deterministically and stop at the
  target (or the cap, with ``achieved=False``), and
  ``cached_precision`` replays a finished schedule from the cache;
* **replication CIs** — Student-t half-widths (the 1.96 hardcode is
  gone), ``"n/a"`` rendering for a single replication, antithetic
  pair mechanics.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.obs as obs
from repro.exceptions import SimulationError
from repro.sim.runner import (
    SimulationConfig,
    antithetic_configs,
    cached_precision,
    control_variate_summary,
    paired_configs,
    replicate,
    replicate_to_precision,
    simulate,
    simulate_to_precision,
)
from repro.sim.stats import t_quantile

RATES = (0.1, 0.2, 0.3)

#: Golden arrival-stream draw counts at seed 0, rates (0.1, 0.2, 0.3),
#: horizon 20000, batch quota 950 — identical for every policy by the
#: draw-order contract.  A change here means CRN pairing broke.
GOLDEN_ARRIVAL_DRAWS = (2012, 4080, 5813)

BASE = SimulationConfig(rates=RATES, policy="fifo", horizon=20000.0,
                        warmup=1000.0, seed=0, batch_quota=950.0)


class TestCRNContract:
    def test_arrival_draws_identical_across_policies(self):
        draws = {}
        for config in paired_configs(BASE, ("fifo", "fair-share",
                                            "fair-queueing")):
            result = simulate(config)
            arrivals = result.variate_draws[:len(RATES)]
            assert arrivals == GOLDEN_ARRIVAL_DRAWS
            draws[config.policy] = result.variate_draws
        # Work-conserving memoryless policies also share the service
        # redraw count (same busy periods); sized SFQ draws one size
        # per arrival instead and must differ.
        assert draws["fifo"][-1] == draws["fair-share"][-1]
        assert draws["fair-queueing"][-1] != draws["fifo"][-1]

    def test_paired_configs_vary_policy_only(self):
        configs = paired_configs(BASE, ("fifo", "lifo"))
        assert [c.policy for c in configs] == ["fifo", "lifo"]
        for config in configs:
            assert replace(config, policy="fifo") == BASE

    def test_paired_difference_variance_shrinks(self):
        # The point of CRN: the fifo-lifo mean-queue difference over
        # paired seeds has (much) lower variance than over independent
        # seeds.  Both policies share the proportional mean, so the
        # difference is pure noise either way.
        paired_diffs, indep_diffs = [], []
        for seed in range(4):
            cfg = replace(BASE, seed=seed, horizon=10000.0)
            a = simulate(cfg)
            b = simulate(replace(cfg, policy="lifo"))
            c = simulate(replace(cfg, policy="lifo", seed=seed + 100))
            paired_diffs.append(a.mean_queues - b.mean_queues)
            indep_diffs.append(a.mean_queues - c.mean_queues)
        paired_spread = float(np.abs(np.array(paired_diffs)).mean())
        indep_spread = float(np.abs(np.array(indep_diffs)).mean())
        assert paired_spread < indep_spread


class TestSimulateToPrecision:
    def test_stops_at_target_and_reports_schedule(self):
        precision = simulate_to_precision(BASE, target_halfwidth=0.08)
        assert precision.achieved
        assert np.max(precision.summary.half_widths) <= 0.08
        # Geometric schedule from the config's own horizon.
        assert precision.horizons[0] == BASE.horizon
        assert precision.horizons == sorted(precision.horizons)
        assert precision.events == precision.result.events

    def test_unreachable_target_caps_out_honestly(self):
        precision = simulate_to_precision(
            replace(BASE, horizon=3000.0), target_halfwidth=1e-6,
            max_horizon=6000.0)
        assert not precision.achieved
        assert precision.horizons[-1] == 6000.0
        assert np.all(np.isfinite(precision.summary.half_widths))

    def test_control_variates_engage_on_the_mm1_path(self):
        precision = simulate_to_precision(BASE, target_halfwidth=0.08)
        assert precision.summary.applied
        assert "total-queue-law" in precision.summary.control_names
        # And they genuinely help on this config.
        assert precision.summary.events_equivalent_factor > 1.5

    def test_can_opt_out_of_control_variates(self):
        raw = simulate_to_precision(BASE, target_halfwidth=0.2,
                                    use_control_variates=False)
        assert not raw.summary.applied

    def test_rejects_bad_arguments(self):
        with pytest.raises(SimulationError):
            simulate_to_precision(BASE, target_halfwidth=0.0)
        with pytest.raises(SimulationError):
            simulate_to_precision(BASE, target_halfwidth=0.1,
                                  growth=1.0)

    def test_schedule_is_deterministic(self):
        first = simulate_to_precision(BASE, target_halfwidth=0.08)
        second = simulate_to_precision(BASE, target_halfwidth=0.08)
        assert first.horizons == second.horizons
        np.testing.assert_array_equal(first.summary.means,
                                      second.summary.means)

    def test_cached_replay_matches_without_moving_counters(self):
        from repro.sim import cache as sim_cache

        config = replace(BASE, horizon=3000.0, warmup=300.0, seed=2,
                         batch_quota=None)
        sim_cache.set_enabled(True)
        assert cached_precision(config, target_halfwidth=0.03) is None
        cold = simulate_to_precision(config, target_halfwidth=0.03)
        assert len(cold.horizons) >= 2
        with obs.Scope() as counted:
            warm = cached_precision(config, target_halfwidth=0.03)
        assert counted.delta == {}
        assert warm.horizons == cold.horizons
        assert warm.achieved == cold.achieved
        np.testing.assert_array_equal(warm.summary.half_widths,
                                      cold.summary.half_widths)
        np.testing.assert_array_equal(warm.result.mean_queues,
                                      cold.result.mean_queues)

    def test_instance_policy_caller_object_untouched(self):
        from repro.sim.queues import FIFOQueue

        policy = FIFOQueue()
        config = replace(BASE, policy=policy, horizon=4000.0)
        simulate_to_precision(config, target_halfwidth=0.2)
        assert len(policy) == 0


class TestControlVariateSummaryAPI:
    def test_requires_batch_matrices(self):
        result = simulate(replace(BASE, batch_quota=None))
        summary = control_variate_summary(result)
        assert summary.n_batches == result.batch.n_batches

    def test_sized_policy_drops_the_total_queue_law(self):
        result = simulate(replace(BASE, policy="fair-queueing"))
        summary = control_variate_summary(result)
        assert "total-queue-law" not in summary.control_names

    def test_sized_policy_gains_from_arrived_work_controls(self):
        # SFQ's virtual time integrates the arrived work, so the
        # compound-Poisson regressors must engage AND pay: strictly
        # better than the raw estimator on this config.
        result = simulate(replace(BASE, policy="fair-queueing",
                                  horizon=30000.0, seed=3))
        summary = control_variate_summary(result)
        assert summary.applied
        assert all(name.startswith("arrived-work")
                   for name in summary.control_names)
        assert summary.events_equivalent_factor > 1.0


class TestReplicationCI:
    def test_student_t_replaces_the_normal_hardcode(self):
        config = replace(BASE, horizon=4000.0, batch_quota=None)
        for n in (2, 3, 5):
            summary = replicate(config, n_replications=n)
            queues = np.vstack([r.mean_queues for r in summary.runs])
            expected = (t_quantile(0.95, n - 1)
                        * queues.std(axis=0, ddof=1) / math.sqrt(n))
            np.testing.assert_allclose(summary.half_widths, expected)
            assert summary.n_replications == n

    def test_single_replication_renders_na_not_nan(self):
        config = replace(BASE, horizon=4000.0, batch_quota=None)
        summary = replicate(config, n_replications=1)
        assert np.all(np.isnan(summary.half_widths))
        assert summary.half_width_labels() == ["n/a"] * len(RATES)

    def test_multi_replication_labels_are_numeric(self):
        config = replace(BASE, horizon=4000.0, batch_quota=None)
        summary = replicate(config, n_replications=3)
        for label in summary.half_width_labels():
            float(label)  # must parse


class TestAntithetic:
    def test_configs_pair_seeds_and_mirror_modes(self):
        configs = antithetic_configs(BASE, 6)
        assert [c.variate_mode for c in configs] == \
            ["inverse", "antithetic"] * 3
        seeds = [c.seed for c in configs]
        assert seeds[0] == seeds[1]
        assert seeds[2] == seeds[3]
        assert len(set(seeds)) == 3

    def test_odd_count_rejected(self):
        with pytest.raises(SimulationError, match="even"):
            antithetic_configs(BASE, 5)

    def test_non_default_mode_rejected(self):
        with pytest.raises(SimulationError, match="variate mode"):
            antithetic_configs(replace(BASE, variate_mode="inverse"), 4)

    def test_pair_members_negatively_correlated(self):
        config = replace(BASE, horizon=6000.0, batch_quota=None)
        summary = replicate(config, n_replications=6, antithetic=True)
        assert summary.antithetic
        queues = np.vstack([r.mean_queues for r in summary.runs])
        totals = queues.sum(axis=1)
        pairs = totals.reshape(3, 2)
        # Mirrored inversion: a heavy realization pairs with a light
        # one, so within-pair spread exceeds the pair-mean spread.
        assert np.std(pairs.mean(axis=1)) < np.std(totals)

    def test_ci_uses_pair_averages(self):
        config = replace(BASE, horizon=4000.0, batch_quota=None)
        summary = replicate(config, n_replications=4, antithetic=True)
        queues = np.vstack([r.mean_queues for r in summary.runs])
        pair_avg = queues.reshape(2, 2, -1).mean(axis=1)
        expected = (t_quantile(0.95, 1)
                    * pair_avg.std(axis=0, ddof=1) / math.sqrt(2))
        np.testing.assert_allclose(summary.half_widths, expected)


class TestReplicateToPrecision:
    CONFIG = SimulationConfig(rates=RATES, policy="fifo",
                              horizon=4000.0, warmup=500.0, seed=5)

    def test_grows_until_target(self):
        precision = replicate_to_precision(
            self.CONFIG, target_halfwidth=0.2, n_initial=2,
            max_replications=32)
        assert precision.achieved
        assert np.max(precision.summary.half_widths) <= 0.2
        assert precision.schedule == sorted(precision.schedule)
        assert precision.schedule[0] == 2

    def test_cap_reported_as_not_achieved(self):
        precision = replicate_to_precision(
            self.CONFIG, target_halfwidth=1e-9, n_initial=2,
            max_replications=4)
        assert not precision.achieved
        assert precision.schedule[-1] == 4

    def test_antithetic_keeps_counts_even(self):
        precision = replicate_to_precision(
            self.CONFIG, target_halfwidth=1e-9, n_initial=3,
            max_replications=7, antithetic=True)
        assert all(n % 2 == 0 for n in precision.schedule)
        assert precision.schedule[-1] == 6  # odd cap rounded down

    def test_rejects_bad_arguments(self):
        with pytest.raises(SimulationError):
            replicate_to_precision(self.CONFIG, target_halfwidth=0.0)
        with pytest.raises(SimulationError):
            replicate_to_precision(self.CONFIG, target_halfwidth=0.1,
                                   n_initial=1)
        with pytest.raises(SimulationError):
            replicate_to_precision(self.CONFIG, target_halfwidth=0.1,
                                   growth=0.5)
