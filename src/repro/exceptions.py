"""Exception hierarchy for the greedwork reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
(``TypeError``, ``KeyError``, ...) from their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FeasibilityError(ReproError):
    """An allocation or rate vector violates the queueing feasibility set.

    Raised, for example, when a rate vector lies outside the natural
    domain ``D = {r : r_i > 0 and sum(r) < 1}`` of a nonstalling
    discipline, or when an allocation breaks the Coffman-Mitrani subset
    constraints.
    """


class UtilityDomainError(ReproError):
    """A utility function was evaluated outside its admissible domain."""


class DisciplineError(ReproError):
    """A service discipline was configured or queried inconsistently."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistent state."""


class MechanismError(ReproError):
    """A revelation/allocation mechanism received invalid reports."""


class SweepError(ReproError):
    """A scenario-sweep catalog, journal, or schedule is inconsistent.

    Raised, for example, when a catalog spec names an unknown axis or
    policy, when a journal on disk belongs to a different catalog
    digest than the one being resumed, or when ``sweep resume`` finds
    no journal to resume from.
    """
