"""Shared numerical routines.

The game-theoretic layers need reliable derivatives of allocation
functions and utilities, robust one-dimensional maximization for best
responses, and damped iteration helpers for equilibrium computation.
They are collected here so every subsystem differentiates and optimizes
the same way.
"""

from repro.numerics.diff import (
    gradient,
    hessian,
    partial_derivative,
    second_partial,
)
from repro.numerics.optimize import (
    ScalarMaxResult,
    golden_section_max,
    multistart_maximize,
)
from repro.numerics.iterate import (
    FixedPointResult,
    damped_fixed_point,
)
from repro.numerics.rng import DEFAULT_SEED, default_rng
from repro.numerics.tolerances import (
    ABS_TOL,
    REL_TOL,
    ZERO_ATOL,
    is_zero,
    isclose,
)

__all__ = [
    "gradient",
    "hessian",
    "partial_derivative",
    "second_partial",
    "ScalarMaxResult",
    "golden_section_max",
    "multistart_maximize",
    "FixedPointResult",
    "damped_fixed_point",
    "DEFAULT_SEED",
    "default_rng",
    "ABS_TOL",
    "REL_TOL",
    "ZERO_ATOL",
    "is_zero",
    "isclose",
]
