"""Tests for switch-centric metrics (the paper's principle-3 contrast)."""

import math

import pytest

from repro.analysis.metrics import switch_metrics
from repro.experiments.poa_sweep import (
    fifo_symmetric_linear_nash,
    optimal_total,
)


class TestSwitchMetrics:
    def test_mm1_scorecard(self):
        metrics = switch_metrics([0.25, 0.25])
        assert metrics.utilization == pytest.approx(0.5)
        assert metrics.total_queue == pytest.approx(1.0)
        assert metrics.mean_delay == pytest.approx(2.0)
        assert metrics.power == pytest.approx(0.25)

    def test_power_closed_form(self):
        # Power = S (1 - S) for the M/M/1 curve.
        for load in (0.2, 0.5, 0.8):
            metrics = switch_metrics([load])
            assert metrics.power == pytest.approx(load * (1.0 - load))

    def test_explicit_congestion_respected(self):
        metrics = switch_metrics([0.25, 0.25], congestion=[2.0, 2.0])
        assert metrics.total_queue == pytest.approx(4.0)
        assert metrics.mean_delay == pytest.approx(8.0)

    def test_idle_switch(self):
        metrics = switch_metrics([0.0, 0.0])
        assert metrics.power == 0.0
        assert metrics.mean_delay == 0.0

    def test_overloaded_switch(self):
        metrics = switch_metrics([0.7, 0.7])
        assert math.isinf(metrics.total_queue)
        assert metrics.power == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            switch_metrics([-0.1])


class TestPrincipleThreeBlindness:
    def test_power_cannot_separate_fifo_from_fs(self):
        """At their respective equilibria (gamma=0.3, N=3), FIFO's and
        Fair Share's power differ by ~1% while welfare differs by ~15%
        — the quantitative case for judging switches by utilities."""
        gamma, n = 0.3, 3
        s_fs = optimal_total(gamma)
        s_fifo = n * fifo_symmetric_linear_nash(n, gamma)
        power_fs = switch_metrics([s_fs / n] * n).power
        power_fifo = switch_metrics([s_fifo / n] * n).power
        assert abs(power_fs - power_fifo) / power_fs < 0.02

    def test_power_is_split_blind(self):
        """Any split of the same total load scores identical power."""
        balanced = switch_metrics([0.2, 0.2, 0.2])
        skewed = switch_metrics([0.55, 0.04, 0.01])
        assert balanced.power == pytest.approx(skewed.power)
