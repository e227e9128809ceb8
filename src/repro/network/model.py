"""The multi-switch allocation model.

Users send one Poisson stream each along a fixed *route* (an ordered
set of switches).  Under the Kleinrock independence / Poisson-output
approximation the paper adopts, each switch ``alpha`` behaves as an
independent single-switch system fed by the users whose routes cross
it, and a user's congestion is the sum over her route:

``c_i = sum_{alpha in route(i)} C^alpha_{i}(r restricted to alpha)``.

Each switch carries its own service discipline (allocation function)
and speed; loads are expressed in service units, so a switch of speed
``s`` running discipline ``C`` contributes ``C(r_S / s)`` where ``r_S``
is the vector of rates crossing it.

:class:`NetworkAllocation` exposes the same evaluation/derivative
interface as a single-switch allocation function, so the whole game
layer runs on networks unchanged: it writes the batched
``congestion_many`` and two derivative rows, and
:class:`~repro.disciplines.base.Differentiable` derives the rest.  It
is *not* symmetric in general (users with different routes are not
interchangeable), which is exactly why the paper says the
single-switch fairness notion loses its meaning on networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.disciplines.base import AllocationFunction, Differentiable
from repro.exceptions import DisciplineError


@dataclass(frozen=True)
class Route:
    """A user's path: the ordered switch indices she crosses."""

    switches: tuple

    def __init__(self, switches: Sequence[int]) -> None:
        object.__setattr__(self, "switches", tuple(int(s) for s in switches))
        if not self.switches:
            raise DisciplineError("a route must cross at least one switch")
        if len(set(self.switches)) != len(self.switches):
            raise DisciplineError(
                f"a route may not revisit a switch, got {self.switches}")

    def crosses(self, switch: int) -> bool:
        """Whether this route passes through ``switch``."""
        return switch in self.switches

    def __iter__(self):
        return iter(self.switches)

    def __len__(self) -> int:
        return len(self.switches)


class _CapacityShim:
    """Minimal curve-like object carrying the binding rate capacity.

    The game layer only consults ``curve.capacity`` (to bound rate
    searches); a network's binding constraint is its slowest switch.
    """

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity


class NetworkAllocation(Differentiable):
    """Per-switch disciplines composed over user routes.

    Parameters
    ----------
    switches:
        One allocation function per switch (each with the unit-rate
        M/M/1 curve or a compatible convex curve).
    routes:
        One :class:`Route` (or sequence of switch indices) per user.
    speeds:
        Optional per-switch service rates (default 1.0 each).
    """

    def __init__(self, switches: Sequence[AllocationFunction],
                 routes: Sequence,
                 speeds: Optional[Sequence[float]] = None) -> None:
        self.switches = list(switches)
        if not self.switches:
            raise DisciplineError("need at least one switch")
        self.routes = [route if isinstance(route, Route) else Route(route)
                       for route in routes]
        if not self.routes:
            raise DisciplineError("need at least one user route")
        n_switches = len(self.switches)
        for route in self.routes:
            for switch in route:
                if not 0 <= switch < n_switches:
                    raise DisciplineError(
                        f"route {route.switches} references switch "
                        f"{switch}; only {n_switches} exist")
        if speeds is None:
            self.speeds = np.ones(n_switches)
        else:
            self.speeds = np.asarray(speeds, dtype=float)
            if self.speeds.size != n_switches:
                raise DisciplineError(
                    f"{self.speeds.size} speeds for {n_switches} switches")
            if np.any(self.speeds <= 0.0):
                raise DisciplineError("switch speeds must be positive")
        #: users crossing each switch, in user order.
        self.members: List[np.ndarray] = [
            np.array([i for i, route in enumerate(self.routes)
                      if route.crosses(alpha)], dtype=int)
            for alpha in range(n_switches)
        ]
        self.name = "network(" + ",".join(s.name for s in self.switches) + ")"
        self.curve = _CapacityShim(float(self.speeds.min()))

    @property
    def n_users(self) -> int:
        return len(self.routes)

    # -- evaluation ----------------------------------------------------------

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """Total per-user congestion summed along routes, for a batch of
        profiles: each switch's batch, summed over its members."""
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.n_users:
            raise DisciplineError(
                f"expected profiles of {self.n_users} rates, got shape "
                f"{batch.shape}")
        totals = np.zeros(batch.shape)
        for alpha, allocation in enumerate(self.switches):
            members = self.members[alpha]
            if members.size == 0:
                continue
            totals[:, members] += allocation.congestion_many(
                batch[:, members] / self.speeds[alpha])
        return totals

    # -- derivatives -----------------------------------------------------

    def gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``dC_i/dr_j`` over ``j``: each switch on user ``i``'s route
        adds its own row, divided by its speed (the chain rule)."""
        return self._route_sum(rates, i, second=False)

    def second_gradient_i(self, rates: Sequence[float], i: int) -> np.ndarray:
        """``d^2 C_i/dr_i dr_j`` over ``j``: each switch on user ``i``'s
        route adds its own row, divided by its speed squared."""
        return self._route_sum(rates, i, second=True)

    def _route_sum(self, rates: Sequence[float], i: int,
                   second: bool) -> np.ndarray:
        """The switches' rows summed in route order, in user space."""
        r = np.asarray(rates, dtype=float)
        out = np.zeros(self.n_users)
        for alpha in self.routes[i]:
            switch = self.switches[alpha]
            members = self.members[alpha]
            speed = self.speeds[alpha]
            row = switch.second_gradient_i if second else switch.gradient_i
            local = row(r[members] / speed,
                        int(np.nonzero(members == i)[0][0]))
            out[members] += local / speed ** (2 if second else 1)
        return out

    # -- structure ---------------------------------------------------------

    def in_stable_region(self, rates: Sequence[float]) -> bool:
        """All switch loads strictly below their capacities."""
        r = np.asarray(rates, dtype=float)
        for alpha in range(len(self.switches)):
            members = self.members[alpha]
            load = float(r[members].sum()) / float(self.speeds[alpha])
            if load >= self.switches[alpha].curve.capacity:
                return False
        return True

    def protection_bound(self, rates_i: float, i: int) -> float:
        """Sum of per-switch symmetric bounds along user ``i``'s route.

        Under Fair Share at every hop, user ``i``'s total congestion is
        bounded by the sum over her route of ``g(N_alpha x)/N_alpha``
        with ``x`` her rate in switch-``alpha`` service units — the
        network extension of Theorem 8.
        """
        total = 0.0
        for alpha in self.routes[i]:
            n_alpha = int(self.members[alpha].size)
            x = rates_i / float(self.speeds[alpha])
            load = n_alpha * x
            curve = self.switches[alpha].curve
            if load >= curve.capacity:
                return math.inf
            total += curve.value(load) / n_alpha
        return total

    def subsystem(self, fixed: dict):
        """Freeze users by index (reuses the single-switch machinery)."""
        from repro.disciplines.base import Subsystem

        return Subsystem(self, fixed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"NetworkAllocation(switches={len(self.switches)}, "
                f"users={self.n_users})")
