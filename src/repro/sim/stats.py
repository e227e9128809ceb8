"""Statistical machinery for adaptive-precision simulation.

Three ingredients turn the fixed-horizon simulator into an engine that
buys each digit of confidence with as few events as possible:

* **Student-t quantiles** (:func:`t_quantile`) — the normal 1.96 is
  wrong for the small batch/replication counts the experiments
  actually use (20 batches, 3–5 replications); the t quantile is
  computed exactly here (regularized incomplete beta + bisection, no
  scipy dependency).
* **Control variates** (:func:`control_variate_adjust`) — the paper's
  own feasibility law ``sum_i c_i = g(S) = S / (1 - S)`` is an exact,
  free statistic: for any work-conserving, size-blind policy on the
  M/M/1 switch the *realized* total queue fluctuates around a known
  constant, and those fluctuations are strongly correlated with every
  per-user estimate.  Regressing them out (together with the per-user
  Poisson arrival-count controls, whose batch means ``r_i * quota``
  are also exact) shrinks the per-user variance by the squared
  multiple correlation — several-fold at the loads the experiments
  run.
* **Applicability gates** (:func:`control_specs_for`) — each control
  is used only where its mean is *exactly* known: arrival counts need
  Poisson input; the total-queue law additionally needs exponential
  service, a size-blind (non-``sized``) policy, no losses, and a
  stable load; sized-mode (SFQ) runs regress on per-batch *arrived
  work* instead, whose compound-Poisson mean ``r_i * quota / mu`` is
  exact for every supported size law.

The adjusted estimator is the classic linear-control form

    ``y_b = q_b - (x_b - mu_x) @ beta``,   ``beta = S_xx^-1 S_xq``,

with the CI half-width computed from the residual batch variance at
``n_batches - n_controls - 1`` degrees of freedom.  The adjustment is
consistent and its bias is O(1/n_batches); the *raw* batch means stay
available on every result, so verdict logic can choose either view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

#: Below this many batches the control regression is not attempted
#: (the coefficient estimates would eat all the degrees of freedom).
MIN_CV_BATCHES = 8

#: Relative variance floor: a control whose batch variance is this
#: small relative to its squared mean carries no usable signal (e.g.
#: deterministic arrival counts) and is dropped from the regression.
_CONTROL_VARIANCE_FLOOR = 1e-12


def normal_quantile(p: float) -> float:
    """Standard normal quantile ``Phi^-1(p)`` (stdlib, no scipy)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0,1), got {p}")
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    # Lentz recurrences divide by partial denominators that the
    # `tiny` floor just above keeps away from zero; they are not
    # utilization terms.
    d = 1.0 / d  # greedwork: ignore[GW201] - tiny-floored above
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d  # greedwork: ignore[GW201] - tiny-floored above
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d  # greedwork: ignore[GW201] - tiny-floored above
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, dof: float) -> float:
    """Student-t cumulative distribution function."""
    if dof <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = dof / (dof + t * t)
    tail = 0.5 * _incomplete_beta(0.5 * dof, 0.5, x)
    return 1.0 - tail if t >= 0.0 else tail


def t_quantile(confidence: float, dof: float) -> float:
    """Two-sided Student-t critical value.

    ``t_quantile(0.95, dof)`` is the half-width multiplier such that
    ``mean ± t * stderr`` covers the true mean with 95% probability
    under normal batch/replication means — the correct replacement for
    the hard-coded 1.96 at small ``dof`` (e.g. 4.30 at ``dof=2``,
    2.78 at ``dof=4``).  Converges to the normal quantile for large
    ``dof``.

    Memoized: callers hit a handful of ``(confidence, dof)`` pairs
    (one per batch-count configuration) thousands of times — e.g. the
    sweep scheduler's warm ladder replay recomputes every rung's CI —
    and each bisection costs ~40 exact-CDF evaluations.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must be in (0,1), got {confidence}")
    if dof <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    return _t_quantile_exact(confidence, dof)


@functools.lru_cache(maxsize=4096)
def _t_quantile_exact(confidence: float, dof: float) -> float:
    p = 0.5 * (1.0 + confidence)
    if dof > 1e6:
        return normal_quantile(p)
    # Bisection on the exact CDF: bracket then bisect to ~1e-12.
    lo, hi = 0.0, 2.0
    while t_cdf(hi, dof) < p:
        hi *= 2.0
        if hi > 1e12:            # pragma: no cover - defensive
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12 * max(1.0, hi):
            return mid
        if t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ControlSpec:
    """One linear control: a batch statistic with exactly known mean.

    Attributes
    ----------
    name:
        Human-readable identifier (diagnostics and tests).
    values:
        Per-batch realized values of the control statistic.
    mean:
        The exact (analytic) expectation of one batch value.
    """

    name: str
    values: np.ndarray
    mean: float


@dataclass
class ControlVariateSummary:
    """Control-variate-adjusted per-user estimates.

    ``applied`` is False when no usable control was available (too few
    batches, degenerate controls, or an inapplicable model) — in that
    case ``means``/``half_widths`` fall back to the raw batch values
    and ``variance_ratio`` is all ones.
    """

    means: np.ndarray
    half_widths: np.ndarray
    #: Var(adjusted) / Var(raw) per user; < 1 where the controls bite.
    variance_ratio: np.ndarray
    n_batches: int
    n_controls: int
    confidence: float
    applied: bool
    control_names: Tuple[str, ...] = ()

    @property
    def events_equivalent_factor(self) -> float:
        """How many times more events the raw estimator would need.

        The CI half-width scales as ``sqrt(var / T)``: reaching the
        adjusted half-width with the raw estimator takes
        ``1 / variance_ratio`` times the events (reported for the
        worst — largest-ratio — user, the one that gates stopping).
        """
        ratio = float(np.max(self.variance_ratio))
        if ratio <= 0.0:
            return math.inf
        return 1.0 / ratio


def _raw_summary(per_batch: np.ndarray, confidence: float,
                 names: Tuple[str, ...] = ()) -> ControlVariateSummary:
    n, n_users = per_batch.shape
    means = per_batch.mean(axis=0)
    if n >= 2:
        half = (t_quantile(confidence, n - 1)
                * per_batch.std(axis=0, ddof=1) / math.sqrt(n))
    else:
        half = np.full(n_users, math.nan)
    return ControlVariateSummary(
        means=means, half_widths=half,
        variance_ratio=np.ones(n_users), n_batches=n, n_controls=0,
        confidence=confidence, applied=False, control_names=names)


def control_variate_adjust(per_batch: np.ndarray,
                           controls: List[ControlSpec],
                           confidence: float = 0.95,
                           ) -> ControlVariateSummary:
    """Adjust per-user batch means with linear control variates.

    Parameters
    ----------
    per_batch:
        ``(n_batches, n_users)`` matrix of raw per-batch means.
    controls:
        Batch statistics with exactly known means (see
        :func:`control_specs_for`).  Degenerate controls (near-zero
        batch variance) are dropped automatically.
    confidence:
        Two-sided confidence level for the half-widths.

    Returns the adjusted summary; falls back to the raw batch summary
    (``applied=False``) when the regression is not well-posed.
    """
    per_batch = np.asarray(per_batch, dtype=float)
    if per_batch.ndim != 2:
        raise ValueError("per_batch must be (n_batches, n_users)")
    n = per_batch.shape[0]
    usable = [c for c in controls
              if c.values.shape == (n,)
              and float(np.var(c.values))
              > _CONTROL_VARIANCE_FLOOR * (1.0 + float(c.mean) ** 2)]
    if not usable or n < MIN_CV_BATCHES or n <= len(usable) + 2:
        return _raw_summary(per_batch, confidence)
    x = np.column_stack([c.values for c in usable])
    mu = np.array([c.mean for c in usable])
    x_centered = x - x.mean(axis=0)
    q_centered = per_batch - per_batch.mean(axis=0)
    s_xx = x_centered.T @ x_centered / (n - 1)
    s_xq = x_centered.T @ q_centered / (n - 1)
    try:
        beta = np.linalg.solve(s_xx, s_xq)
    except np.linalg.LinAlgError:
        return _raw_summary(per_batch, confidence)
    adjusted = per_batch - (x - mu[None, :]) @ beta
    means = adjusted.mean(axis=0)
    dof = n - len(usable) - 1
    resid_var = adjusted.var(axis=0, ddof=1 + len(usable))
    half = (t_quantile(confidence, dof)
            * np.sqrt(resid_var / n))
    raw_var = per_batch.var(axis=0, ddof=1)
    safe = raw_var > 0.0
    ratio = np.ones(per_batch.shape[1])
    ratio[safe] = np.minimum(resid_var[safe] / raw_var[safe], 1.0)
    return ControlVariateSummary(
        means=means, half_widths=half, variance_ratio=ratio,
        n_batches=n, n_controls=len(usable), confidence=confidence,
        applied=True, control_names=tuple(c.name for c in usable))


def control_specs_for(per_batch: np.ndarray,
                      per_batch_arrivals: Optional[np.ndarray],
                      quota: float,
                      rates: np.ndarray,
                      service_rate: float,
                      arrival_process: str,
                      service_process: str,
                      sized: bool,
                      lossless: bool,
                      per_batch_sizes: Optional[np.ndarray] = None,
                      ) -> List[ControlSpec]:
    """Build the exactly-known controls valid for one simulation.

    * Per-user arrival counts: mean ``r_i * quota`` per batch —
      requires Poisson arrivals and no drops (the tracker counts
      *admitted* packets, which under losses is a thinned process with
      unknown mean); valid for any service law or policy otherwise.
    * Total queue: mean ``S / (mu - S)`` — the paper's feasibility law
      ``sum c_i = g(S)``; additionally requires exponential service, a
      size-blind policy (the jump-chain disciplines; SFQ orders by
      realized sizes, which breaks the conservation argument), and a
      stable load.
    * Per-user *arrived work* (sized mode): mean ``r_i * quota / mu``
      per batch — the compound-Poisson expectation of the service
      demand admitted in one quota window, exact because every
      supported size law is parameterized at mean ``1/mu``.  SFQ's
      virtual time advances with exactly this arrived work, so the
      regressor tracks the size-induced queue fluctuations the plain
      arrival *counts* cannot see.

    Sized mode uses *only* the arrived-work controls: with per-arrival
    size draws the batch boundaries couple to the realized sizes, so
    the size-blind count regressors carry almost no correlation with
    the batch means — they burn regression degrees of freedom and
    inflate the adjusted CI (the BENCH_sim.json fair-queueing
    regression, ratios 0.51/0.26 vs fixed-horizon) — and the
    total-queue law's conservation argument breaks outright.
    """
    specs: List[ControlSpec] = []
    if arrival_process != "poisson" or quota <= 0.0 or not lossless:
        return specs
    if sized:
        if per_batch_sizes is None:
            return specs
        work = np.asarray(per_batch_sizes, dtype=float)
        if work.shape == per_batch.shape:
            specs.extend(
                ControlSpec(name=f"arrived-work[{i}]",
                            values=work[:, i],
                            mean=float(rates[i]) * quota / service_rate)
                for i in range(work.shape[1]))
        return specs
    if per_batch_arrivals is not None:
        counts = np.asarray(per_batch_arrivals, dtype=float)
        if counts.shape == per_batch.shape:
            # Ragged list comprehension stays in numpy: one spec per
            # user, each a column of the counts matrix.
            specs.extend(
                ControlSpec(name=f"arrivals[{i}]",
                            values=counts[:, i],
                            mean=float(rates[i]) * quota)
                for i in range(counts.shape[1]))
    total_load = float(np.sum(rates))
    if (service_process == "exponential" and lossless
            and total_load < service_rate):
        rho = total_load / service_rate
        specs.append(ControlSpec(
            name="total-queue-law",
            values=per_batch.sum(axis=1),
            mean=rho / (1.0 - rho)))
    return specs
