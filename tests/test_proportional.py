"""Tests for the proportional (FIFO) allocation function."""

import math

import numpy as np
import pytest

from repro.disciplines.proportional import ProportionalAllocation
from repro.queueing.service_curves import MG1Curve
from tests.oracles import numeric_jacobian, numeric_second_partial


class TestValues:
    def setup_method(self):
        self.alloc = ProportionalAllocation()

    def test_closed_form(self, rates3):
        congestion = self.alloc.congestion(rates3)
        assert np.allclose(congestion, rates3 / (1.0 - rates3.sum()))

    def test_work_conserving(self, rates3):
        assert self.alloc.is_feasible_at(rates3)

    def test_symmetry(self, rates3, rng):
        assert self.alloc.check_symmetry(rates3, rng=rng)

    def test_overload_everyone_suffers(self):
        congestion = self.alloc.congestion([0.6, 0.7])
        assert np.all(np.isinf(congestion))

    def test_congestion_i_shortcut(self, rates3):
        full = self.alloc.congestion(rates3)
        for i in range(3):
            assert self.alloc.congestion_i(rates3, i) == pytest.approx(
                float(full[i]))

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            self.alloc.congestion([-0.1, 0.2])


class TestDerivatives:
    def setup_method(self):
        self.alloc = ProportionalAllocation()

    def test_jacobian_matches_numeric(self, rates3):
        numeric = numeric_jacobian(self.alloc, rates3)
        analytic = self.alloc.jacobian(rates3)
        assert np.allclose(numeric, analytic, atol=1e-6)

    def test_own_derivative_closed_form(self, rates3):
        total = rates3.sum()
        for i in range(3):
            expected = (1.0 - total + rates3[i]) / (1.0 - total) ** 2
            assert self.alloc.own_derivative(rates3, i) == pytest.approx(
                expected)

    def test_cross_derivative_closed_form(self, rates3):
        total = rates3.sum()
        expected = rates3[0] / (1.0 - total) ** 2
        assert self.alloc.cross_derivative(rates3, 0, 2) == pytest.approx(
            expected)

    def test_second_derivatives_match_numeric(self, rates3):
        for i in range(3):
            numeric = numeric_second_partial(self.alloc, rates3, i, i)
            assert self.alloc.own_second_derivative(
                rates3, i) == pytest.approx(numeric, rel=1e-3)
            for j in range(3):
                numeric_mixed = numeric_second_partial(
                    self.alloc, rates3, i, j)
                assert self.alloc.mixed_second_derivative(
                    rates3, i, j) == pytest.approx(numeric_mixed,
                                                   rel=1e-3, abs=1e-4)

    def test_all_cross_derivatives_positive(self, rates3):
        jac = self.alloc.jacobian(rates3)
        assert np.all(jac > 0)

    def test_overload_derivatives(self):
        assert self.alloc.own_derivative([0.6, 0.6], 0) == math.inf


class TestOtherCurves:
    def test_md1_totals(self):
        alloc = ProportionalAllocation(curve=MG1Curve(cv=0.0))
        rates = np.array([0.2, 0.4])
        congestion = alloc.congestion(rates)
        assert congestion.sum() == pytest.approx(
            alloc.curve.value(0.6))
        assert congestion[1] == pytest.approx(2.0 * congestion[0])

    def test_md1_jacobian_matches_numeric(self):
        alloc = ProportionalAllocation(curve=MG1Curve(cv=0.0))
        rates = np.array([0.2, 0.4])
        numeric = numeric_jacobian(alloc, rates)
        assert np.allclose(alloc.jacobian(rates), numeric, atol=1e-6)


class TestSubsystem:
    def test_induced_allocation(self, rates3):
        alloc = ProportionalAllocation()
        sub = alloc.subsystem({1: 0.2})
        free = np.array([0.1, 0.3])
        congestion = sub.congestion(free)
        full = alloc.congestion(rates3)
        assert np.allclose(congestion, [full[0], full[2]])

    def test_embed(self, rates3):
        alloc = ProportionalAllocation()
        sub = alloc.subsystem({0: 0.1, 2: 0.3})
        assert np.allclose(sub.embed([0.2]), rates3)

    def test_requires_frozen_users(self):
        alloc = ProportionalAllocation()
        with pytest.raises(ValueError):
            alloc.subsystem({})

    def test_curve_delegation(self):
        alloc = ProportionalAllocation()
        sub = alloc.subsystem({0: 0.1})
        assert sub.curve is alloc.curve
