"""Newton self-optimization dynamics, the relaxation matrix (§4.2.3)
and the one root-finder of the Nash first-derivative conditions.

Each user measures how far she is from her Nash condition,
``E_i = M_i(r_i, C_i(r)) + dC_i/dr_i``, and updates
``r_i <- r_i - E_i / (dE_i/dr_i)`` (Newton's method on her own FDC).
With synchronous updates the linearized error evolves by the relaxation
matrix

``A_ij = delta_ij - (dE_i/dr_j) / (dE_j/dr_j)``,

whose diagonal vanishes identically.  Theorem 7: under Fair Share ``A``
is strictly lower triangular in rate order — nilpotent, so the linear
dynamics die in at most ``N`` steps — and Fair Share is the only MAC
discipline with that property.  Under FIFO with identical linear
utilities the leading eigenvalue approaches ``1 - N``: unstable for
``N > 2``.

:func:`fdc_root` roots the same conditions for every population form:
per user (:func:`repro.game.nash.solve_nash_fdc`), in symmetry classes
and under the mean-field closure (:mod:`repro.game.classes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.users.utility import Utility

_H = 1e-6

#: ``xtol`` of every FDC root.
FDC_TOL = 1e-10

#: What a non-finite residual entry reads as inside an FDC root.
FDC_PENALTY = 1e6

#: Residual sup-norm at which Newton dynamics count as converged.
NEWTON_TOL = 1e-8


def fdc_residuals(allocation, profile: Sequence[Utility],
                  rates: Sequence[float]) -> np.ndarray:
    """``E_i = M_i(r_i, C_i(r)) + dC_i/dr_i`` for each user."""
    r = np.asarray(rates, dtype=float)
    congestion = allocation.congestion(r)
    out = np.empty(r.size)
    for i, utility in enumerate(profile):
        if not math.isfinite(congestion[i]):
            out[i] = math.nan
            continue
        m = utility.marginal_ratio(float(r[i]), float(congestion[i]))
        out[i] = m + allocation.own_derivative(r, i)
    return out


def fdc_root(residuals: Callable[[np.ndarray], np.ndarray],
             start: Sequence[float]) -> Tuple[np.ndarray, bool, int]:
    """Root first-derivative conditions by Powell's hybrid method.

    ``residuals`` is evaluated at ``|x|``, since the root may step
    through non-positive rates on its way, and a non-finite entry reads
    as :data:`FDC_PENALTY`.  Returns ``(|x|, converged, evaluations)``:
    converged when hybr succeeds with every rate positive.
    """
    from scipy import optimize as sp_optimize

    def penalized(x: np.ndarray) -> np.ndarray:
        out = np.asarray(residuals(np.abs(x)), dtype=float)
        return np.where(np.isfinite(out), out, FDC_PENALTY)

    solution = sp_optimize.root(penalized, start, method="hybr",
                                options={"xtol": FDC_TOL})
    rates = np.abs(np.asarray(solution.x, dtype=float))
    converged = bool(solution.success) and bool(np.all(rates > 0.0))
    return rates, converged, int(solution.nfev)


def _marginal_ratio_partials(utility: Utility, r: float,
                             c: float) -> Tuple[float, float]:
    """Numeric ``(dM/dr, dM/dc)`` of the marginal-ratio surface."""
    dm_dr = (utility.marginal_ratio(r + _H, c)
             - utility.marginal_ratio(r - _H, c)) / (2.0 * _H)
    dm_dc = (utility.marginal_ratio(r, c + _H)
             - utility.marginal_ratio(r, c - _H)) / (2.0 * _H)
    return dm_dr, dm_dc


def fdc_jacobian(allocation, profile: Sequence[Utility],
                 rates: Sequence[float]) -> np.ndarray:
    """``dE_i/dr_j`` via the chain rule.

    ``dE_i/dr_j = (dM_i/dc) * dC_i/dr_j + delta_ij * dM_i/dr
    + d^2 C_i / dr_i dr_j``.
    """
    r = np.asarray(rates, dtype=float)
    n = r.size
    congestion = allocation.congestion(r)
    jac_c = allocation.jacobian(r)
    out = np.empty((n, n))
    for i, utility in enumerate(profile):
        dm_dr, dm_dc = _marginal_ratio_partials(
            utility, float(r[i]), float(congestion[i]))
        # Whole row at once: analytic under Fair Share / proportional,
        # one numeric pass otherwise — never N^2 scalar second partials.
        row = dm_dc * jac_c[i] + allocation.second_gradient_i(r, i)
        row[i] += dm_dr
        out[i] = row
    return out


def relaxation_matrix(allocation, profile: Sequence[Utility],
                      rates: Sequence[float]) -> np.ndarray:
    """``A_ij = delta_ij - (dE_i/dr_j)/(dE_j/dr_j)`` (zero diagonal)."""
    de = fdc_jacobian(allocation, profile, rates)
    n = de.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (1.0 if i == j else 0.0) - de[i, j] / de[j, j]
    return out


def is_nilpotent(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether ``matrix ** n`` vanishes (n = dimension)."""
    power = np.linalg.matrix_power(matrix, matrix.shape[0])
    scale = max(1.0, float(np.max(np.abs(matrix))) ** matrix.shape[0])
    return bool(np.max(np.abs(power)) <= tol * scale)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def newton_step(allocation, profile: Sequence[Utility],
                rates: Sequence[float]) -> np.ndarray:
    """One synchronous Newton update of all users' rates.

    Pure Newton, the paper's Section 4.2.3 dynamics: exact in the
    linear regime, and free to overshoot from far starts like any
    Newton method.  Rates stay at or above 1e-9.
    """
    r = np.asarray(rates, dtype=float)
    e = fdc_residuals(allocation, profile, r)
    de = fdc_jacobian(allocation, profile, r)
    updated = r - e / np.diag(de)
    return np.maximum(updated, 1e-9)


@dataclass
class NewtonTrajectory:
    """Trace of synchronous Newton dynamics.

    Attributes
    ----------
    rates:
        Iterates, shape ``(steps + 1, N)``.
    residual_norms:
        Sup-norm of ``E`` at each iterate.
    converged:
        Whether the residual dropped below tolerance.
    steps_to_converge:
        First step index with residual below tolerance (or -1).
    diverged:
        Whether the iteration blew up (residual overflow / NaN).
    """

    rates: np.ndarray
    residual_norms: np.ndarray
    converged: bool
    steps_to_converge: int
    diverged: bool


def _async_newton_step(allocation, profile: Sequence[Utility],
                       rates: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel sweep: users update in turn, seeing the
    freshest rates of everyone before them."""
    r = rates.copy()
    for i in range(r.size):
        congestion_i = allocation.congestion_i(r, i)
        if not math.isfinite(congestion_i):
            continue
        m = profile[i].marginal_ratio(float(r[i]), float(congestion_i))
        e_i = m + allocation.own_derivative(r, i)
        # dE_i/dr_i via the same chain rule as the Jacobian diagonal.
        dm_dr, dm_dc = _marginal_ratio_partials(profile[i], float(r[i]),
                                                float(congestion_i))
        de_ii = (dm_dr + dm_dc * allocation.own_derivative(r, i)
                 + allocation.own_second_derivative(r, i))
        r[i] = max(r[i] - e_i / de_ii, 1e-9)
    return r


def run_newton_dynamics(allocation, profile: Sequence[Utility],
                        r0: Sequence[float], n_steps: int = 50,
                        synchronous: bool = True) -> NewtonTrajectory:
    """Run Newton self-optimization dynamics from ``r0``.

    Runs at most ``n_steps`` steps, stopping once the residual
    sup-norm is below :data:`NEWTON_TOL` (converged) or non-finite or
    above 1e8 (diverged).

    ``synchronous=True`` is the paper's Section-4.2.3 model: everyone
    updates at once (Jacobi), and the relaxation-matrix analysis
    applies — under Fair Share the nilpotent matrix kills the error in
    at most ``N`` steps; under FIFO with many users it diverges.
    ``synchronous=False`` runs Gauss-Seidel sweeps (users update in
    turn on fresh information), an ablation showing how much of FIFO's
    instability is an artifact of simultaneous moves.
    """
    r = np.asarray(r0, dtype=float).copy()
    trail: List[np.ndarray] = [r.copy()]
    norms: List[float] = []
    converged = False
    diverged = False
    steps_to_converge = -1
    for step in range(n_steps):
        e = fdc_residuals(allocation, profile, r)
        norm = float(np.max(np.abs(e)))
        norms.append(norm)
        if not math.isfinite(norm) or norm > 1e8:
            diverged = True
            break
        if norm < NEWTON_TOL:
            converged = True
            steps_to_converge = step
            break
        if synchronous:
            r = newton_step(allocation, profile, r)
        else:
            r = _async_newton_step(allocation, profile, r)
        trail.append(r.copy())
    return NewtonTrajectory(rates=np.array(trail),
                            residual_norms=np.array(norms),
                            converged=converged,
                            steps_to_converge=steps_to_converge,
                            diverged=diverged)


def fifo_symmetric_linear_nash(n_users: int, gamma: float) -> float:
    """Symmetric Nash rate under FIFO for ``U = r - gamma c``.

    Solves ``(1 - S + r) / (1 - S)^2 = 1/gamma`` with ``S = N r``
    (the Nash FDC for the proportional allocation).
    """
    from scipy import optimize as sp_optimize

    if n_users < 1:
        raise ValueError("need at least one user")
    if not 0.0 < gamma < 1.0:
        # dC_i/dr_i >= g'(0) = 1 everywhere, so a user with gamma >= 1
        # prefers r = 0: no interior symmetric equilibrium exists.
        raise ValueError(
            f"gamma must lie in (0, 1) for an interior FIFO equilibrium, "
            f"got {gamma}")

    def residual(r: float) -> float:
        total = n_users * r
        return (1.0 - total + r) - (1.0 - total) ** 2 / gamma

    lo, hi = 1e-12, (1.0 - 1e-12) / n_users
    return float(sp_optimize.brentq(residual, lo, hi))


def fifo_linear_eigenvalue(n_users: int, gamma: float) -> float:
    """Leading relaxation-matrix eigenvalue, FIFO + identical linear U.

    At the symmetric Nash point the relaxation matrix is
    ``-a (J - I)`` with ``a = (1 - S + 2r) / (2 (1 - S + r))``; its
    leading eigenvalue is ``-a (N - 1)``, which tends to ``1 - N`` as
    the load approaches capacity — the paper's instability example
    (stable only for ``N <= 2``).
    """
    r = fifo_symmetric_linear_nash(n_users, gamma)
    total = n_users * r
    if total >= 1.0:
        raise ValueError(
            f"symmetric Nash load {total} must stay below capacity 1")
    a = (1.0 - total + 2.0 * r) / (2.0 * (1.0 - total + r))
    return -a * (n_users - 1)
