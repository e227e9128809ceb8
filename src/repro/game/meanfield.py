"""Mean-field (heavy-traffic) Nash approximation for huge populations.

As N grows, one user's own rate is an infinitesimal fraction of the
load, so her unilateral deviation no longer moves the field she is
responding to.  Dropping the self-exclusion from the deviation
problem — the deviator *rides on top of the full class profile*
instead of being removed from her class first — yields the mean-field
closure used for large-scale congestion games in the tradition of
Wu–Bui–Johari-style heavy-traffic analyses: a K-dimensional
per-class fixed point

``s_k = argmax_x U_k(x, C_k^field(x))``,

where ``C_k^field`` is the class deviation evaluator with
``include_self=True``.  The approximation error against the exact
class-space equilibrium is O(1/N) (one user's mass mis-counted out of
N), so it *improves* as the population grows — exactly the regime
where it is needed.  The exact solver
(:func:`repro.game.classes.solve_nash_classes`) stays O(K) per step
too, so the mean-field route is not about asymptotics of cost; it is
the limit object itself, with an even better-conditioned fixed point
(no 1/(m_k-1) self-exclusion discontinuities for singleton classes)
and the natural starting point for N in the millions.

:func:`solve_nash_meanfield` is the class form's FDC root
(:func:`repro.game.classes.solve_nash_classes_fdc`) under the
``include_self=True`` closure: the same root, start and result.
Results certify against the *exact* game with the class solver's own
certificates: the class-space gain
(:func:`~repro.game.classes._class_gains`) and expansion spot checks,
so ``spot_gain`` directly measures the mean-field error in utility
terms.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.game.classes import ClassNashResult, _class_root, _fdc_residuals
from repro.users.utility import Utility


def meanfield_fdc_residuals(allocation, utilities: Sequence[Utility],
                            class_rates: Sequence[float],
                            counts: Sequence[int]) -> np.ndarray:
    """First-derivative conditions under the mean-field closure.

    Entry ``k`` is ``M_k(s_k, C_k) + dC^field/dx``: the congestion
    level is the actual class congestion (the field the whole class
    generates), while the slope is the ``include_self=True`` deviation
    derivative — an infinitesimal agent perturbing a fixed field.
    """
    return _fdc_residuals(allocation, utilities, class_rates, counts,
                          include_self=True)


def solve_nash_meanfield(allocation, profile: Sequence[Utility],
                         counts: Optional[Sequence[int]] = None
                         ) -> ClassNashResult:
    """Solve the K-class mean-field equilibrium.

    ``profile`` and ``counts`` are read as by
    :func:`repro.game.classes.solve_nash_classes`.  The FDC root starts
    from the equal split at 50% load.  The returned congestion and
    utilities are evaluated on the *exact* class-symmetric profile at
    the mean-field rates, and the certificates (``max_gain`` via
    exact-game class best responses, ``spot_gain`` via expanded
    per-user checks) measure the distance from true equilibrium —
    i.e. the mean-field error, O(1/N).
    """
    return _class_root(allocation, profile, counts, None,
                       include_self=True, method="mean-field")


def meanfield_error(exact: ClassNashResult,
                    approx: ClassNashResult) -> float:
    """Sup-norm class-rate gap between an exact and a mean-field solve.

    The headline O(1/N) quantity: compare
    :func:`repro.game.classes.solve_nash_classes` (or its FDC twin)
    against :func:`solve_nash_meanfield` at the same profile.
    """
    if exact.class_rates.size != approx.class_rates.size:
        raise ValueError(
            f"class counts differ: {exact.class_rates.size} vs "
            f"{approx.class_rates.size}")
    return float(np.max(np.abs(exact.class_rates - approx.class_rates)))
