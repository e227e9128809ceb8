"""User model: utility functions over (throughput, congestion).

The paper's users are characterized by private utility functions
``U_i(r_i, c_i)`` — strictly increasing in throughput ``r``, strictly
decreasing in congestion ``c``, convex, and C^2 (the acceptance set
``AU``).  Utilities are ordinal: all results must be invariant under
monotone transformations, which the tests verify.

This package provides the utility interface, the concrete families used
throughout the experiments (linear, the Lemma-5 exponential family,
power, quadratic, plus a deliberately *inadmissible* threshold utility
for negative tests), acceptance checking, and seeded random profile
generators.
"""

from repro.users.utility import Utility, check_acceptable
from repro.users.families import (
    BiconvexUtility,
    DelayBasedUtility,
    ExponentialUtility,
    LinearUtility,
    MonotoneTransformedUtility,
    PowerUtility,
    QuadraticUtility,
    ThresholdUtility,
    value_grid_rows,
)
from repro.users.profiles import (
    lemma5_profile,
    random_exponential_profile,
    random_linear_profile,
    random_mixed_profile,
    random_power_profile,
)

__all__ = [
    "Utility",
    "check_acceptable",
    "LinearUtility",
    "ExponentialUtility",
    "BiconvexUtility",
    "DelayBasedUtility",
    "PowerUtility",
    "QuadraticUtility",
    "ThresholdUtility",
    "MonotoneTransformedUtility",
    "value_grid_rows",
    "lemma5_profile",
    "random_linear_profile",
    "random_exponential_profile",
    "random_power_profile",
    "random_mixed_profile",
]
