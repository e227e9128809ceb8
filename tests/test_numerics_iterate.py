"""Tests for damped fixed-point iteration."""

import numpy as np
import pytest

from repro.numerics.iterate import damped_fixed_point


class TestDampedFixedPoint:
    def test_linear_contraction(self):
        # x -> 0.5 x + 1 has fixed point 2.
        result = damped_fixed_point(lambda x: 0.5 * x + 1.0,
                                    np.array([0.0]), damping=1.0)
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-8)

    def test_vector_map(self):
        matrix = np.array([[0.2, 0.1], [0.0, 0.3]])
        offset = np.array([1.0, 2.0])
        result = damped_fixed_point(lambda x: matrix @ x + offset,
                                    np.zeros(2))
        expected = np.linalg.solve(np.eye(2) - matrix, offset)
        assert result.converged
        assert np.allclose(result.x, expected, atol=1e-7)

    def test_damping_stabilizes_oscillation(self):
        # x -> -1.5 x + 5 diverges undamped; damping 0.3 converges.
        mapping = lambda x: -1.5 * x + 5.0
        result = damped_fixed_point(mapping, np.array([0.0]),
                                    damping=0.3)
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-7)

    def test_adaptive_damping_rescues_strong_oscillation(self):
        mapping = lambda x: -3.0 * x + 8.0
        result = damped_fixed_point(mapping, np.array([0.0]),
                                    damping=0.9, max_iter=2000)
        assert result.converged
        assert result.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_nonconvergence_reported(self):
        result = damped_fixed_point(lambda x: x + 1.0, np.array([0.0]),
                                    max_iter=10)
        assert not result.converged
        assert result.iterations == 10

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            damped_fixed_point(lambda x: x, np.array([0.0]), damping=0.0)
        with pytest.raises(ValueError):
            damped_fixed_point(lambda x: x, np.array([0.0]), damping=1.5)

    def test_start_at_fixed_point(self):
        result = damped_fixed_point(lambda x: x.copy(), np.array([3.0]))
        assert result.converged
        assert result.iterations == 1
