"""Tests for the Corollary-2 separable allocation."""

import numpy as np
import pytest

from repro.disciplines.separable import (
    SeparableAllocation,
    SumOfSquaresConstraint,
    mm1_is_not_separable,
)


class TestConstraint:
    def test_total(self):
        constraint = SumOfSquaresConstraint(a=2.0)
        assert constraint.total([1.0, 2.0]) == pytest.approx(10.0)

    def test_partial(self):
        constraint = SumOfSquaresConstraint()
        assert constraint.partial([0.5, 0.25], 0) == pytest.approx(1.0)
        assert constraint.partial([0.5, 0.25], 1) == pytest.approx(0.5)

    def test_share_independent_of_own_rate(self):
        constraint = SumOfSquaresConstraint()
        a = constraint.share([0.5, 0.25], 0)
        b = constraint.share([0.9, 0.25], 0)
        assert a == pytest.approx(b)

    def test_decomposition_identity(self):
        # (N-1) f = sum h_i.
        constraint = SumOfSquaresConstraint()
        rates = [0.3, 0.7, 0.2]
        total = constraint.total(rates)
        shares = sum(constraint.share(rates, i) for i in range(3))
        assert shares == pytest.approx(2.0 * total)

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            SumOfSquaresConstraint(a=0.0)


class TestAllocation:
    def setup_method(self):
        self.alloc = SeparableAllocation()

    def test_congestion_is_own_square(self):
        assert np.allclose(self.alloc.congestion([0.5, 2.0]),
                           [0.25, 4.0])

    def test_no_coupling(self):
        jac = self.alloc.jacobian(np.array([0.5, 2.0]))
        assert jac[0, 1] == 0.0
        assert jac[1, 0] == 0.0
        assert jac[0, 0] == pytest.approx(1.0)

    def test_own_derivative_equals_constraint_partial(self):
        # The Corollary-2 alignment: dC_i/dr_i = df/dr_i.
        rates = [0.7, 1.3]
        for i in range(2):
            assert self.alloc.own_derivative(
                rates, i) == pytest.approx(
                    self.alloc.constraint.partial(rates, i))

    def test_feasible_against_own_constraint(self):
        assert self.alloc.is_feasible_at([0.5, 1.5])

    def test_no_capacity_pole(self):
        assert self.alloc.in_domain([3.0, 5.0])
        assert np.isinf(self.alloc.curve.capacity)

    def test_second_derivatives(self):
        assert self.alloc.own_second_derivative([1.0], 0) == 2.0
        assert self.alloc.mixed_second_derivative([1.0, 1.0], 0, 1) == 0.0


class TestNonSeparabilityWitness:
    def test_mm1_mixed_partial_nonzero(self):
        mixed = mm1_is_not_separable(3, at_load=0.5)
        # Analytic value: g'''(0.5) = 6/(1-0.5)^4 = 96.
        assert mixed == pytest.approx(96.0, rel=0.05)

    def test_two_users(self):
        mixed = mm1_is_not_separable(2, at_load=0.4)
        # g''(0.4) = 2 / 0.6^3.
        assert mixed == pytest.approx(2.0 / 0.6 ** 3, rel=0.05)

    def test_separable_constraint_has_zero_mixed_partial(self):
        # Sanity: the same stencil applied to sum r_i^2 vanishes.
        import numpy as np

        n = 3
        base = np.full(n, 0.2)
        probe = 1e-3
        total = 0.0
        for mask in range(1 << n):
            signs = np.array([1.0 if (mask >> b) & 1 else -1.0
                              for b in range(n)])
            n_minus = n - bin(mask).count("1")
            parity = 1.0 if n_minus % 2 == 0 else -1.0
            point = base + probe * signs
            total += parity * float(np.sum(point ** 2))
        mixed = total / (2.0 * probe) ** n
        assert mixed == pytest.approx(0.0, abs=1e-6)

    def test_single_user_rejected(self):
        with pytest.raises(ValueError):
            mm1_is_not_separable(1)
