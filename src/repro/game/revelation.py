"""Revelation mechanisms (Section 4.2.2, Theorem 6).

A direct mechanism asks users to *report* their utility functions and
maps the reports to an allocation.  ``B^FS`` — report utilities, play
the unique Fair Share Nash equilibrium of the reported profile — is a
revelation mechanism: truth-telling is a dominant strategy (no
misreport ever helps, whatever others report).  The analogous
FIFO-based mechanism is manipulable.

Reports are drawn from parametric utility families, so "lying" means
reporting distorted parameters (e.g. a false congestion sensitivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.exceptions import MechanismError
from repro.game.nash import solve_nash
from repro.users.utility import Utility


@dataclass
class MechanismOutcome:
    """Allocation chosen by a direct mechanism for a report vector."""

    rates: np.ndarray
    congestion: np.ndarray
    converged: bool


def nash_mechanism(allocation, reported_profile: Sequence[Utility]
                   ) -> MechanismOutcome:
    """``B(reported) =`` the Nash allocation of the reported profile.

    With ``allocation`` = Fair Share this is the paper's ``B^FS``
    (well defined because the FS equilibrium is unique, Theorem 4).
    With other disciplines the mechanism inherits whatever equilibrium
    the solver selects — itself a symptom of non-uniqueness.
    """
    result = solve_nash(allocation, reported_profile)
    return MechanismOutcome(rates=result.rates,
                            congestion=result.congestion,
                            converged=result.converged)


@dataclass
class MisreportOutcome:
    """Result of searching user ``i``'s misreport space.

    Attributes
    ----------
    truthful_utility:
        True utility when reporting truthfully.
    best_misreport_utility:
        Best true utility achievable by lying.
    gain:
        ``best_misreport_utility - truthful_utility``; ``<= 0`` (up to
        solver noise) certifies incentive compatibility on the searched
        family.
    best_report_index:
        Index of the most profitable lie in ``candidate_reports``
        (-1 when truth is best).
    """

    truthful_utility: float
    best_misreport_utility: float
    gain: float
    best_report_index: int


def misreport_gain(allocation, true_profile: Sequence[Utility], i: int,
                   candidate_reports: Sequence[Utility],
                   reported_others: Optional[Sequence[Utility]] = None) -> (
        MisreportOutcome):
    """Evaluate every candidate lie for user ``i``.

    Parameters
    ----------
    true_profile:
        The users' actual utilities (used to *evaluate* outcomes).
    candidate_reports:
        Alternative utilities user ``i`` might claim.
    reported_others:
        What the other users report (defaults to their truths, but the
        revelation property quantifies over all reports).
    """
    if not 0 <= i < len(true_profile):
        raise MechanismError(
            f"user index {i} out of range for {len(true_profile)} users")
    if reported_others is not None and \
            len(reported_others) != len(true_profile):
        raise MechanismError(
            f"expected {len(true_profile)} reports, got "
            f"{len(reported_others)}")
    others = (list(true_profile) if reported_others is None
              else list(reported_others))
    truth_reports = list(others)
    truth_reports[i] = true_profile[i]
    truthful = nash_mechanism(allocation, truth_reports)
    true_u = true_profile[i]
    truthful_value = true_u.value(float(truthful.rates[i]),
                                  float(truthful.congestion[i]))
    best_value = truthful_value
    best_index = -1
    for k, lie in enumerate(candidate_reports):
        reports = list(others)
        reports[i] = lie
        outcome = nash_mechanism(allocation, reports)
        value = true_u.value(float(outcome.rates[i]),
                             float(outcome.congestion[i]))
        if value > best_value:
            best_value = value
            best_index = k
    return MisreportOutcome(truthful_utility=float(truthful_value),
                            best_misreport_utility=float(best_value),
                            gain=float(best_value - truthful_value),
                            best_report_index=best_index)


def scaled_reports(base: Utility, scales: Sequence[float],
                   make: Callable[[Utility, float], Utility]) -> (
        List[Utility]):
    """Build a lie family by scaling one parameter of a base utility."""
    return [make(base, float(s)) for s in scales]
