"""Shared numerical tolerances and float-comparison helpers.

Every near-equality decision in the library flows through the named
constants below, so the question "how close is close enough?" has one
answer per kind of comparison instead of a magic literal per call
site: these helpers are the sanctioned replacement for raw
``==``/``!=`` between float expressions.

Constants
---------
``ABS_TOL``
    General-purpose absolute tolerance for quantities of order one
    (congestions, rates, utilities).
``REL_TOL``
    General-purpose relative tolerance.
``ZERO_ATOL``
    Threshold below which a nonnegative aggregate (a total rate, a
    weighted demand sum) is treated as exactly zero.  Chosen far below
    any physically meaningful rate so the zero-total shortcuts in
    :func:`repro.queueing.mm1.proportional_split` and the cost-sharing
    rules keep their intended semantics.
"""

from __future__ import annotations

import math

ABS_TOL: float = 1e-9
REL_TOL: float = 1e-9
ZERO_ATOL: float = 1e-12


def isclose(a: float, b: float, *, rel_tol: float = REL_TOL,
            atol: float = ABS_TOL) -> bool:
    """``math.isclose`` with the library-wide default tolerances."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=atol)


def is_zero(x: float, *, atol: float = ZERO_ATOL) -> bool:
    """Whether a scalar is numerically indistinguishable from zero."""
    return abs(x) <= atol
