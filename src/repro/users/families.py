"""Concrete utility families.

A note on curvature.  The paper's Section 3.2 says utilities are
"convex functions", but its own Lemma-5 construction is a strictly
*concave* function and the appendix proofs compose utilities with
convex allocation functions in the way that needs concavity — the
intended class is convex *preferences*.  This library's default AU
reading is therefore concave (see
:func:`repro.users.utility.check_acceptable`):

* in concave AU: :class:`LinearUtility`, :class:`ExponentialUtility`,
  :class:`PowerUtility` with ``p <= 1 <= q``, :class:`QuadraticUtility`
  with ``b <= 0``;
* convex as a function (the paper's literal wording):
  :class:`LinearUtility`, :class:`BiconvexUtility`,
  :class:`PowerUtility` with ``p >= 1 >= q``,
  :class:`QuadraticUtility` with ``b >= 0``;
* outside AU on any reading: :class:`ThresholdUtility` (the
  Ferguson-style preferences of Section 5.3; it is not strictly
  monotone in ``r`` past the threshold and not C^2) — kept for
  negative tests and the related-work comparison.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from repro.users.utility import Utility

#: Row-wise utility values: ``(X, C) -> Y`` over ``(B, K)`` arrays.
RowValues = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: A formula parameter: one float for every row, or a ``(B, 1)``
#: column with one value per row.
Param = Union[float, np.ndarray]

# Each parametric family states its formula once, as the static method
# ``formula(params..., r, c) -> values`` beside its ``_params()``: the
# base :class:`~repro.users.utility.Utility` runs it with scalar
# parameters for ``value`` (on 0-d arrays) and ``value_grid``, and
# :func:`value_grid_rows` with parameter columns, so row ``k`` of a
# columnar call does exactly ``utilities[k].value``'s arithmetic.
# Entries the result discards (infinite congestion, an exp-overflow
# guard, a negative argument) are masked with ``where=``/``np.where``
# rather than gathered out, and are replaced by 0 before any operation
# that could warn on them.


def _power(x: np.ndarray, exponent: Param) -> np.ndarray:
    """``x ** exponent``, row ``k`` exactly ``x[k] ** exponent[k]``.

    numpy computes ``x ** 0.5`` as ``sqrt(x)`` and ``x ** 2.0`` as
    ``square(x)`` when the exponent is a scalar, but ``pow`` for an
    exponent array, which differs in the last bit; so a column of
    exponents is applied one distinct value at a time.
    """
    if np.ndim(exponent) == 0:
        return x ** exponent
    column = exponent[:, 0]
    out = np.empty(x.shape)
    for value in dict.fromkeys(column.tolist()):
        rows = column == value if value == value else np.isnan(column)
        out[rows] = x[rows] ** value
    return out


class LinearUtility(Utility):
    """``U = a r - gamma c``.

    The workhorse profile of Section 4.2.3 (the ``1 - N`` eigenvalue
    example uses ``U = r - gamma c``).  Linear, hence convex; marginal
    ratio is the constant ``-a / gamma``.
    """

    def __init__(self, gamma: float, a: float = 1.0) -> None:
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if a <= 0.0:
            raise ValueError(f"a must be positive, got {a}")
        self.gamma = float(gamma)
        self.a = float(a)

    def _params(self) -> Tuple[float, ...]:
        return (self.a, self.gamma)

    @staticmethod
    def formula(a: Param, gamma: Param, r: np.ndarray,
                c: np.ndarray) -> np.ndarray:
        """``a r - gamma c``; ``gamma > 0``, so infinite ``c`` gives
        ``-inf``."""
        return a * r - gamma * c

    def du_dr(self, r: float, c: float) -> float:
        return self.a

    def du_dc(self, r: float, c: float) -> float:
        return -self.gamma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearUtility(gamma={self.gamma}, a={self.a})"


class ExponentialUtility(Utility):
    """The Lemma-5 family:

    ``U = -(alpha^2/beta) exp(-(beta/alpha)(r - r_ref))
         - (gamma^2/nu)  exp( (nu/gamma) (c - c_ref))``.

    At the anchor ``(r_ref, c_ref)``: ``dU/dr = alpha``,
    ``dU/dc = -gamma``, so ``M = -alpha/gamma``; ``beta`` and ``nu``
    control curvature.  With ``alpha/gamma`` matched to ``dC_i/dr_i``
    and curvature large enough, the anchor becomes a (globally optimal)
    best response — the construction used throughout the paper's
    uniqueness/characterization proofs.

    Both terms are strictly concave, so this family sits in concave AU
    (despite the paper introducing it under the label "convex" — see
    the module docstring).
    """

    def __init__(self, alpha: float, beta: float, gamma: float, nu: float,
                 r_ref: float = 0.0, c_ref: float = 0.0) -> None:
        for name, val in (("alpha", alpha), ("beta", beta),
                          ("gamma", gamma), ("nu", nu)):
            if val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.nu = float(nu)
        self.r_ref = float(r_ref)
        self.c_ref = float(c_ref)

    def _params(self) -> Tuple[float, ...]:
        return (-(self.alpha ** 2 / self.beta), -(self.beta / self.alpha),
                self.r_ref, self.gamma ** 2 / self.nu, self.nu / self.gamma,
                self.c_ref)

    @staticmethod
    def formula(r_scale: Param, r_rate: Param, r_ref: Param,
                c_scale: Param, c_rate: Param, c_ref: Param,
                r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``r_scale e^{r_rate (r - r_ref)} - c_scale e^{c_rate (c - c_ref)}``.

        ``-inf`` where ``c`` is infinite or the congestion exponent
        passes 700 (the overflow guard).
        """
        exponent = np.where(np.isinf(c), math.inf, c_rate * (c - c_ref))
        with np.errstate(over="ignore"):
            return np.subtract(r_scale * np.exp(r_rate * (r - r_ref)),
                               c_scale * np.exp(exponent),
                               out=np.full(r.shape, -math.inf),
                               where=exponent <= 700.0)

    def du_dr(self, r: float, c: float) -> float:
        return self.alpha * math.exp(
            -(self.beta / self.alpha) * (r - self.r_ref))

    def du_dc(self, r: float, c: float) -> float:
        exponent = (self.nu / self.gamma) * (c - self.c_ref)
        if exponent > 700.0:
            return -math.inf
        return -self.gamma * math.exp(exponent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExponentialUtility(alpha={self.alpha}, beta={self.beta}, "
                f"gamma={self.gamma}, nu={self.nu}, r_ref={self.r_ref}, "
                f"c_ref={self.c_ref})")


class PowerUtility(Utility):
    """``U = a r^p - gamma c^q`` with ``p, q > 0``.

    Curvature regimes: the function is concave (the default AU
    reading) for ``p <= 1 <= q`` — diminishing returns to throughput,
    growing pain from congestion, yielding interior equilibria — and
    convex (the paper's literal wording) for ``p >= 1 >= q``.  Mixed
    exponents are neither.
    """

    def __init__(self, gamma: float, a: float = 1.0, p: float = 1.0,
                 q: float = 1.0) -> None:
        if gamma <= 0.0 or a <= 0.0:
            raise ValueError("a and gamma must be positive")
        if p <= 0.0:
            raise ValueError(f"p must be positive, got {p}")
        if q <= 0.0:
            raise ValueError(f"q must be positive, got {q}")
        self.gamma = float(gamma)
        self.a = float(a)
        self.p = float(p)
        self.q = float(q)

    def _params(self) -> Tuple[float, ...]:
        return (self.a, self.gamma, self.p, self.q)

    @staticmethod
    def formula(a: Param, gamma: Param, p: Param, q: Param, r: np.ndarray,
                c: np.ndarray) -> np.ndarray:
        """``a r^p - gamma c^q``; ``-inf`` for infinite or negative inputs."""
        ok = ~np.isinf(c) & (r >= 0.0) & (c >= 0.0)
        return np.subtract(a * _power(np.where(ok, r, 0.0), p),
                           gamma * _power(np.where(ok, c, 0.0), q),
                           out=np.full(r.shape, -math.inf), where=ok)

    def du_dr(self, r: float, c: float) -> float:
        if r <= 0.0 and self.p < 1.0:
            r = 1e-12      # one-sided limit at the p < 1 pole
        return self.a * self.p * r ** (self.p - 1.0)

    def du_dc(self, r: float, c: float) -> float:
        if c <= 0.0 and self.q < 1.0:
            c = 1e-12      # one-sided limit at the q < 1 pole
        return -self.gamma * self.q * c ** (self.q - 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PowerUtility(gamma={self.gamma}, a={self.a}, "
                f"p={self.p}, q={self.q})")


class QuadraticUtility(Utility):
    """``U = a r + b r^2 - gamma c``.

    ``b <= 0`` gives a concave family (the default AU reading) with
    diminishing returns to throughput; ``b >= 0`` gives the convex
    variant.  Strict monotonicity in ``r`` on the unit rate interval
    requires ``a + 2 b > 0`` when ``b < 0``, which the constructor
    enforces.
    """

    def __init__(self, gamma: float, a: float = 1.0, b: float = 0.0) -> None:
        if gamma <= 0.0 or a <= 0.0:
            raise ValueError("a and gamma must be positive")
        if b < 0.0 and a + 2.0 * b <= 0.0:
            raise ValueError(
                f"a + 2b must be positive for monotonicity on [0, 1], "
                f"got a={a}, b={b}")
        self.gamma = float(gamma)
        self.a = float(a)
        self.b = float(b)

    def _params(self) -> Tuple[float, ...]:
        return (self.a, self.b, self.gamma)

    @staticmethod
    def formula(a: Param, b: Param, gamma: Param, r: np.ndarray,
                c: np.ndarray) -> np.ndarray:
        """``a r + b r^2 - gamma c``, ``-inf`` where ``c`` is infinite."""
        return np.where(np.isinf(c), -math.inf,
                        a * r + b * r * r - gamma * c)

    def du_dr(self, r: float, c: float) -> float:
        return self.a + 2.0 * self.b * r

    def du_dc(self, r: float, c: float) -> float:
        return -self.gamma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QuadraticUtility(gamma={self.gamma}, a={self.a}, "
                f"b={self.b})")


class ThresholdUtility(Utility):
    """Ferguson-style preferences: throughput matters only up to ``t``.

    ``U = a min(r, t) - gamma c``.  Concave (not convex) in ``r`` and
    not differentiable at the threshold, hence **outside AU** — kept to
    exercise the acceptance checker and the Section-5.3 related-work
    comparison (such decoupled preferences make incentive issues much
    easier, as the paper notes).
    """

    def __init__(self, threshold: float, gamma: float, a: float = 1.0) -> None:
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if gamma <= 0.0 or a <= 0.0:
            raise ValueError("a and gamma must be positive")
        self.threshold = float(threshold)
        self.gamma = float(gamma)
        self.a = float(a)

    def _params(self) -> Tuple[float, ...]:
        return (self.a, self.threshold, self.gamma)

    @staticmethod
    def formula(a: Param, threshold: Param, gamma: Param, r: np.ndarray,
                c: np.ndarray) -> np.ndarray:
        """``a min(r, t) - gamma c``, ``-inf`` where ``c`` is infinite."""
        return np.where(np.isinf(c), -math.inf,
                        a * np.minimum(r, threshold) - gamma * c)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ThresholdUtility(threshold={self.threshold}, "
                f"gamma={self.gamma}, a={self.a})")


class BiconvexUtility(Utility):
    """``U = (a0/a1) e^{a1 r} - L c + (b0/b1) e^{-b1 c}``.

    Every term is convex; ``dU/dr = a0 e^{a1 r} > 0`` and
    ``dU/dc = -(L + b0 e^{-b1 c}) < 0``, so the family is in AU for all
    positive parameters.  Its distinguishing feature is a marginal rate
    of substitution *increasing in both arguments* —
    ``|M| = a0 e^{a1 r} / (L + b0 e^{-b1 c})`` — which is what lets a
    single utility satisfy the FIFO Nash condition at several distinct
    rate/congestion pairs simultaneously.  The Theorem-4 experiment
    uses it to construct FIFO games with multiple Nash equilibria.

    This family is convex as a function — inside the paper's *literal*
    AU wording but outside the concave reading its own Lemma 5 uses
    (see the module docstring); the Theorem-4 experiment notes spell
    out that caveat.
    """

    def __init__(self, a0: float, a1: float, ell: float, b0: float,
                 b1: float) -> None:
        for name, val in (("a0", a0), ("a1", a1), ("ell", ell),
                          ("b0", b0), ("b1", b1)):
            if val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        self.a0 = float(a0)
        self.a1 = float(a1)
        self.ell = float(ell)
        self.b0 = float(b0)
        self.b1 = float(b1)

    def _params(self) -> Tuple[float, ...]:
        return (self.a1, self.a0 / self.a1, self.ell, self.b0 / self.b1,
                -self.b1)

    @staticmethod
    def formula(a1: Param, r_scale: Param, ell: Param, c_scale: Param,
                c_rate: Param, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``r_scale e^{a1 r} - ell c + c_scale e^{c_rate c}``.

        ``-inf`` where ``c`` is infinite, else ``+inf`` where ``a1 r``
        passes 700 (the overflow guard).
        """
        exponent = a1 * r
        finite = ~np.isinf(c)
        big = exponent > 700.0
        ok = finite & ~big
        e = np.where(ok, exponent, 0.0)
        cc = np.where(ok, c, 0.0)
        return np.add(r_scale * np.exp(e) - ell * cc,
                      c_scale * np.exp(c_rate * cc),
                      out=np.where(finite & big, math.inf, -math.inf),
                      where=ok)

    def du_dc(self, r: float, c: float) -> float:
        return -(self.ell + self.b0 * math.exp(-self.b1 * c))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BiconvexUtility(a0={self.a0}, a1={self.a1}, "
                f"ell={self.ell}, b0={self.b0}, b1={self.b1})")


class DelayBasedUtility(Utility):
    """Preferences over (throughput, mean delay) via Little's law.

    The paper's footnote 2: since ``c_i = r_i d_i``, working with the
    average queue loses no generality.  This wrapper takes a utility
    ``V(r, d)`` over throughput and mean *delay* and exposes it as a
    utility over throughput and mean *queue*: ``U(r, c) = V(r, c/r)``.

    Note the paper's warning in the same footnote: convexity-type
    conditions on ``V`` translate into more complicated conditions on
    ``U``, so wrapped utilities should be acceptance-checked rather
    than assumed in AU.
    """

    def __init__(self, delay_utility: Utility,
                 min_rate: float = 1e-9) -> None:
        if min_rate <= 0.0:
            raise ValueError(f"min_rate must be positive, got {min_rate}")
        self.delay_utility = delay_utility
        self.min_rate = float(min_rate)

    def value(self, r: float, c: float) -> float:
        if math.isinf(c):
            return -math.inf
        rate = max(r, self.min_rate)
        return self.delay_utility.value(r, c / rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DelayBasedUtility({self.delay_utility!r})"


class MonotoneTransformedUtility(Utility):
    """``G(U)`` for a strictly increasing transform ``G``.

    Utilities are ordinal: the paper requires every result to be
    invariant under ``U -> G(U)``.  This wrapper lets tests verify that
    invariance (same best responses, same Nash equilibria, same envy
    relations) without duplicating family code.

    Note that ``G(U)`` generally leaves AU (convexity is not preserved
    by monotone transforms), but Nash/envy/Stackelberg computations are
    purely ordinal and must not care.
    """

    def __init__(self, base: Utility,
                 transform: Callable[[float], float]) -> None:
        self.base = base
        self.transform = transform

    def value(self, r: float, c: float) -> float:
        inner = self.base.value(r, c)
        if math.isinf(inner):
            return inner
        return self.transform(inner)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MonotoneTransformedUtility({self.base!r})"


def _column(values: Tuple[float, ...]) -> Param:
    """One parameter over the rows: a float when every row has the
    same one (bit for bit, signed zeros included), else a ``(B, 1)``
    column."""
    first = values[0]
    if values.count(first) == len(values) and (
            first != 0.0
            or len({math.copysign(1.0, value) for value in values}) == 1):
        return first
    return np.array(values)[:, None]


def value_grid_rows(utilities: Sequence[Utility]) -> RowValues:
    """Score row ``k`` of ``(X, C)`` with ``utilities[k]``, all rows at once.

    The returned callable maps aligned ``(B, K)`` rate and congestion
    arrays to ``Y`` with ``Y[k] = utilities[k].value_grid(X[k], C[k])``
    bit for bit.  A profile of one class (the exact class) with a
    formula is one pass of that formula with its parameters as columns
    — a parameter every row shares stays a scalar; wrappers and mixed
    profiles stack each row's own ``value_grid``.
    """
    kind = type(utilities[0]) if utilities else Utility
    formula = kind.formula
    if formula is not None and all(type(u) is kind for u in utilities):
        params: List[Param] = [
            _column(values)
            for values in zip(*(u._params() for u in utilities))]

        def columnar(xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
            return formula(*params, xs, cs)

        return columnar

    def stacked(xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        return np.stack([u.value_grid(x, c)
                         for u, x, c in zip(utilities, xs, cs)])

    return stacked
