"""The utility-function interface and AU acceptance checking.

A utility represents one user's *ordinal* preferences over service
allocations ``(r, c)``: amount of service ``r`` and congestion ``c``
(average queue length).  The paper's acceptance set ``AU`` requires
strict monotonicity (increasing in ``r``, decreasing in ``c``), C^2
smoothness, and a curvature condition whose reading is ambiguous in
the paper (its text says "convex function"; its own constructions are
concave — see :func:`check_acceptable`, which supports both, defaulting
to the concave/convex-preferences reading).

Infinite congestion (allocations outside the stable region) must be
supported: ``value(r, inf) = -inf``, which is how learning dynamics
punish overload.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import UtilityDomainError
from repro.numerics.tolerances import is_zero

_H = 1e-6


class Utility(ABC):
    """Ordinal preferences over allocations ``(r, c)``.

    A parametric family states its formula once, as :attr:`formula`
    beside :meth:`_params`; the base runs it for :meth:`value` (on 0-d
    arrays) and :meth:`value_grid`, so the two agree bit for bit.  A
    utility built on another (a wrapper) writes :meth:`value` instead,
    and :meth:`value_grid` loops over it; one that writes neither
    raises ``TypeError``.  Derivative methods have numeric defaults
    that concrete families override with closed forms.
    """

    #: ``(params..., r, c) -> values`` over aligned arrays, called with
    #: :meth:`_params` (a static method in a family); ``None`` for a
    #: utility that writes :meth:`value`.
    formula: Optional[Callable[..., np.ndarray]] = None

    def _params(self) -> Tuple[float, ...]:
        """The formula's leading arguments."""
        return ()

    def value(self, r: float, c: float) -> float:
        """Utility of receiving throughput ``r`` at congestion ``c``.

        Must return ``-inf`` when ``c`` is infinite.
        """
        if self.formula is None:
            raise TypeError(f"{type(self).__name__} must write value "
                            f"or a formula")
        return float(self.value_grid(r, c))

    def __call__(self, r: float, c: float) -> float:
        return self.value(r, c)

    def value_grid(self, rs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over aligned rate/congestion arrays:
        one pass of the formula, or a loop over a written :meth:`value`
        (bit-identical to scalar calls either way)."""
        r_arr = np.asarray(rs, dtype=float)
        c_arr = np.asarray(cs, dtype=float)
        if self.formula is not None:
            return self.formula(*self._params(), r_arr, c_arr)
        return np.asarray(
            [self.value(r, c)
             for r, c in zip(r_arr.tolist(), c_arr.tolist())], dtype=float)

    # -- derivatives -----------------------------------------------------

    def du_dr(self, r: float, c: float) -> float:
        """``dU/dr`` (positive on AU); numeric default."""
        return (self.value(r + _H, c) - self.value(r - _H, c)) / (2.0 * _H)

    def du_dc(self, r: float, c: float) -> float:
        """``dU/dc`` (negative on AU); numeric default."""
        return (self.value(r, c + _H) - self.value(r, c - _H)) / (2.0 * _H)

    def marginal_ratio(self, r: float, c: float) -> float:
        """``M(r, c) = (dU/dr) / (dU/dc)``.

        This is the marginal rate of substitution between throughput
        and congestion; it is negative on AU and is the left-hand side
        of both the Nash FDC (``M = -dC_i/dr_i``) and the Pareto FDC
        (``M = -f'``).
        """
        denominator = self.du_dc(r, c)
        if is_zero(denominator):
            raise UtilityDomainError(
                f"dU/dc vanished at (r={r}, c={c}); utility is not in AU")
        return self.du_dr(r, c) / denominator

    # -- comparisons -------------------------------------------------------

    def prefers(self, allocation_a: Tuple[float, float],
                allocation_b: Tuple[float, float]) -> bool:
        """Strict preference of allocation ``a`` over ``b``."""
        return (self.value(*allocation_a) > self.value(*allocation_b))

    def envies(self, own: Tuple[float, float],
               other: Tuple[float, float]) -> bool:
        """Envy: would this user strictly prefer the *other* allocation?"""
        return self.value(*other) > self.value(*own)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@dataclass
class AcceptanceReport:
    """Outcome of a numeric AU-membership check."""

    is_acceptable: bool
    violations: List[str] = field(default_factory=list)
    points_checked: int = 0


def check_acceptable(utility: Utility,
                     r_range: Tuple[float, float] = (0.02, 0.9),
                     c_range: Tuple[float, float] = (0.05, 10.0),
                     n_grid: int = 7,
                     curvature: str = "concave",
                     tol: float = 1e-8) -> AcceptanceReport:
    """Numerically check AU membership on a grid.

    Always verifies strict monotonicity (``dU/dr > 0``, ``dU/dc < 0``).
    The curvature condition is selectable because the paper is
    ambiguous: the text of Section 3.2 says "convex function", but the
    explicit Lemma-5 utilities are strictly *concave* functions and the
    appendix proofs (Lemma 4, Theorem 3) compose utilities with convex
    allocation functions in the way that requires concavity — i.e. the
    intended class is convex *preferences*.

    Parameters
    ----------
    curvature:
        ``"concave"`` (default; the reading consistent with the
        paper's own constructions), ``"convex"`` (the paper's literal
        wording), or ``"quasiconcave"`` (convex preferences in the
        ordinal sense, via the bordered-Hessian test).
    """
    if curvature not in ("concave", "convex", "quasiconcave"):
        raise ValueError(
            f"curvature must be concave/convex/quasiconcave, got "
            f"{curvature!r}")
    violations: List[str] = []
    rs = np.linspace(r_range[0], r_range[1], n_grid)
    cs = np.linspace(c_range[0], c_range[1], n_grid)
    checked = 0
    # Scalar derivative probes on a small grid: .tolist() marks the
    # per-point iteration as deliberate.
    for r in rs.tolist():
        for c in cs.tolist():
            checked += 1
            ur = utility.du_dr(float(r), float(c))
            uc = utility.du_dc(float(r), float(c))
            if not ur > tol:
                violations.append(f"dU/dr = {ur:.3e} <= 0 at ({r:.3f}, {c:.3f})")
            if not uc < -tol:
                violations.append(f"dU/dc = {uc:.3e} >= 0 at ({r:.3f}, {c:.3f})")
            urr, ucc, urc = _hessian_entries(utility, float(r), float(c))
            scale = 1e-5 * (1.0 + abs(urr) + abs(ucc) + abs(urc))
            if curvature == "convex":
                if urr < -scale or ucc < -scale:
                    violations.append(
                        f"not convex at ({r:.3f}, {c:.3f}): "
                        f"U_rr={urr:.3e}, U_cc={ucc:.3e}")
                elif urr * ucc - urc * urc < -scale * scale:
                    violations.append(
                        f"Hessian determinant negative at ({r:.3f}, "
                        f"{c:.3f})")
            elif curvature == "concave":
                if urr > scale or ucc > scale:
                    violations.append(
                        f"not concave at ({r:.3f}, {c:.3f}): "
                        f"U_rr={urr:.3e}, U_cc={ucc:.3e}")
                elif urr * ucc - urc * urc < -scale * scale:
                    violations.append(
                        f"Hessian determinant negative at ({r:.3f}, "
                        f"{c:.3f})")
            else:
                # Quasi-concavity via the bordered Hessian:
                # det [[0, Ur, Uc], [Ur, Urr, Urc], [Uc, Urc, Ucc]] >= 0.
                bordered = (-ur * (ur * ucc - urc * uc)
                            + uc * (ur * urc - urr * uc))
                if bordered < -scale * (ur * ur + uc * uc):
                    violations.append(
                        f"bordered Hessian negative at ({r:.3f}, "
                        f"{c:.3f}): {bordered:.3e}")
    return AcceptanceReport(is_acceptable=not violations,
                            violations=violations, points_checked=checked)


def _hessian_entries(utility: Utility, r: float,
                     c: float) -> Tuple[float, float, float]:
    """(U_rr, U_cc, U_rc) by differencing the first derivatives.

    Differencing ``du_dr``/``du_dc`` (analytic in the concrete
    families) is far better conditioned than second differences of the
    value, which matters for the steeply curved exponential utilities.
    """
    h = 1e-5
    urr = (utility.du_dr(r + h, c) - utility.du_dr(r - h, c)) / (2.0 * h)
    ucc = (utility.du_dc(r, c + h) - utility.du_dc(r, c - h)) / (2.0 * h)
    urc = (utility.du_dr(r, c + h) - utility.du_dr(r, c - h)) / (2.0 * h)
    return urr, ucc, urc
