"""Service curves: total mean queue as a function of total load.

The paper's constraint is ``sum_i c_i = f(r) = g(sum_i r_i)`` with
``g(x) = x / (1 - x)`` for the preemptive M/M/1 switch.  Footnote 5
notes that every result holds for any strictly increasing, strictly
convex ``g`` — covering nonpreemptive M/M/1 and M/G/1 systems — and
Corollary 2 analyzes a quadratic ``f``.  We therefore make the curve an
explicit object that the constraint set, the disciplines, and the
Pareto machinery are all parameterized by.

Each curve exposes value, first and second derivatives, and its
capacity (the load at which the queue diverges; ``inf`` for curves
without a pole).  The batched counterparts (``values``,
``derivatives``, ``second_derivatives``) evaluate a whole numpy array
of loads at once; the concrete curves override them with masked
vector formulas so the vectorized solver core never pays a Python
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

    def values(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over an array of loads.

        The default delegates to the scalar method elementwise;
        concrete curves override it with a masked vector formula that
        is bit-identical to the scalar one.
        """
        arr = np.asarray(loads, dtype=float)
        flat = [self.value(x) for x in arr.ravel().tolist()]
        return np.asarray(flat, dtype=float).reshape(arr.shape)

    def derivatives(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`derivative` over an array of loads."""
        arr = np.asarray(loads, dtype=float)
        flat = [self.derivative(x) for x in arr.ravel().tolist()]
        return np.asarray(flat, dtype=float).reshape(arr.shape)

    def second_derivatives(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`second_derivative` over an array of loads."""
        arr = np.asarray(loads, dtype=float)
        flat = [self.second_derivative(x) for x in arr.ravel().tolist()]
        return np.asarray(flat, dtype=float).reshape(arr.shape)

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

    def derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        out = np.full(arr.shape, math.inf)
        stable = arr < 1.0
        out[stable] = 1.0 / (1.0 - arr[stable]) ** 2
        return out

    def second_derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        out = np.full(arr.shape, math.inf)
        stable = arr < 1.0
        out[stable] = 2.0 / (1.0 - arr[stable]) ** 3
        return out


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

    def derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        out = np.full(arr.shape, math.inf)
        stable = arr < 1.0
        x = arr[stable]
        u = 1.0 - x
        out[stable] = 1.0 + self._k * (2.0 * x * u + x * x) / (u * u)
        return out

    def second_derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        out = np.full(arr.shape, math.inf)
        stable = arr < 1.0
        u = 1.0 - arr[stable]
        out[stable] = self._k * 2.0 / (u * u * u)
        return out

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

    def derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        return 2.0 * self.a * arr

    def second_derivatives(self, loads: np.ndarray) -> np.ndarray:
        arr = np.asarray(loads, dtype=float)
        _check_nonnegative(arr)
        return np.full(arr.shape, 2.0 * self.a)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuadraticCurve(a={self.a})"
