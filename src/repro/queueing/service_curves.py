"""Service curves: total mean queue as a function of total load.

The paper's constraint is ``sum_i c_i = f(r) = g(sum_i r_i)`` with
``g(x) = x / (1 - x)`` for the preemptive M/M/1 switch.  Footnote 5
notes that every result holds for any strictly increasing, strictly
convex ``g`` — covering nonpreemptive M/M/1 and M/G/1 systems — and
Corollary 2 analyzes a quadratic ``f``.  We therefore make the curve an
explicit object that the constraint set, the disciplines, and the
Pareto machinery are all parameterized by.

Each curve writes its value, first and second derivatives and
capacity (the load at which the queue diverges; ``inf`` for curves
without a pole), and ``values``, the value over a whole numpy array
of loads at once, so the vectorized solver core never pays a Python
call per grid point.  ``values`` computes the stable region with
masked ufuncs (``out=``/``where=``) rather than a boolean gather and
scatter: loads at or beyond capacity (and NaN) map to ``inf``, and
every stable entry gets the scalar formula's exact arithmetic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


class ServiceCurve(ABC):
    """Strictly increasing, strictly convex map from load to mean queue."""

    #: Load at which the mean queue diverges (``inf`` if never).
    capacity: float = math.inf

    @abstractmethod
    def value(self, load: float) -> float:
        """Total mean queue at total offered ``load``."""

    @abstractmethod
    def derivative(self, load: float) -> float:
        """``g'(load)``."""

    @abstractmethod
    def second_derivative(self, load: float) -> float:
        """``g''(load)``."""

    @abstractmethod
    def values(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over an array of loads, bit-identical
        to the scalar method."""

    def __call__(self, load: float) -> float:
        return self.value(load)

    def admits(self, load: float) -> bool:
        """Whether ``load`` lies strictly inside the stable region."""
        return 0.0 <= load < self.capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MM1Curve(ServiceCurve):
    """The paper's curve: ``g(x) = x / (1 - x)`` (preemptive M/M/1).

    Loads at or beyond capacity map to ``inf``, matching the paper's
    extension of allocation functions outside the natural domain ``D``
    (footnote 6 / Section 4.2.2).
    """

    capacity = 1.0

    def value(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        return load / (1.0 - load)

    def derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        return 1.0 / (1.0 - load) ** 2

    def second_derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        return 2.0 / (1.0 - load) ** 3

    def values(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        return np.divide(arr, 1.0 - arr, out=np.full(arr.shape, math.inf),
                         where=arr < 1.0)


def _check_nonnegative(arr: np.ndarray) -> None:
    """Match the scalar methods' rejection of negative loads."""
    if arr.size and float(arr.min()) < 0.0:
        raise ValueError(
            f"load must be nonnegative, got {float(arr.min())}")


class MG1Curve(ServiceCurve):
    """Mean number in system of an M/G/1 queue (Pollaczek-Khinchine).

    ``g(x) = x + x^2 (1 + cv^2) / (2 (1 - x))`` where ``cv`` is the
    coefficient of variation of the service distribution.  ``cv = 1``
    recovers the M/M/1 curve; ``cv = 0`` is M/D/1.
    """

    capacity = 1.0

    def __init__(self, cv: float = 1.0) -> None:
        if cv < 0.0:
            raise ValueError(f"coefficient of variation must be >= 0, got {cv}")
        self.cv = float(cv)
        self._k = (1.0 + cv * cv) / 2.0

    def value(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        return load + self._k * load * load / (1.0 - load)

    def derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        u = 1.0 - load
        return 1.0 + self._k * (2.0 * load * u + load * load) / (u * u)

    def second_derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        if load >= 1.0:
            return math.inf
        u = 1.0 - load
        return self._k * 2.0 / (u * u * u)

    def values(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        stable = arr < 1.0
        # Unstable loads become 0 first, so no overflow warning comes
        # from a load the result discards.
        x = np.where(stable, arr, 0.0)
        return np.add(x, self._k * x * x / (1.0 - x),
                      out=np.full(arr.shape, math.inf), where=stable)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MG1Curve(cv={self.cv})"


class MD1Curve(MG1Curve):
    """M/D/1 mean number in system (deterministic service)."""

    def __init__(self) -> None:
        super().__init__(cv=0.0)


class QuadraticCurve(ServiceCurve):
    """The Corollary-2 curve ``g(x) = a x^2``.

    With the *separable* constraint ``f(r) = sum_i r_i^2`` (note: sum of
    squares, not the square of the sum), the allocation ``C_i = r_i^2``
    makes every Nash equilibrium Pareto optimal.  This class is the
    square-of-total variant used when the constraint really is a curve
    of total load; the separable constraint itself lives in
    :class:`repro.queueing.constraints.FeasibilitySet` via per-user
    curves.
    """

    capacity = math.inf

    def __init__(self, a: float = 1.0) -> None:
        if a <= 0.0:
            raise ValueError(f"coefficient must be positive, got {a}")
        self.a = float(a)

    def value(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        return self.a * load * load

    def derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        return 2.0 * self.a * load

    def second_derivative(self, load: float) -> float:
        if load < 0.0:
            raise ValueError(f"load must be nonnegative, got {load}")
        return 2.0 * self.a

    def values(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        return self.a * arr * arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuadraticCurve(a={self.a})"
