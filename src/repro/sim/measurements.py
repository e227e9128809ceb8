"""Measurement: time-weighted queue statistics and batch-means CIs.

The congestion quantity in the paper is the *time-average number of a
user's packets in the system*, so the tracker integrates per-user queue
lengths against time.  Confidence intervals come from the method of
batch means, the standard remedy for the autocorrelation of queueing
processes.

The tracker is on the event engine's per-event hot path, so it
integrates *lazily*: a user's area is only folded forward when that
user's count changes (or when a batch boundary is crossed, so a batch
never straddles a fold).  ``advance`` is therefore O(1) per event
instead of O(n_users) of numpy traffic, which is most of what makes
the fast-path engine fast.

Completed batches are rows of one growable ``(capacity, 3, n_users)``
float64 matrix — per-user areas, arrival counts and arrived work —
plus a row count.  The chunked engine's C kernels write rows straight
into it, and a snapshot pickles one array however many batches closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.sim.stats import t_quantile

#: Slack when deciding a time step reached a batch boundary, absorbing
#: float drift in ``warmup + k * quota``.
_BOUNDARY_SLACK = 1e-9

#: Channels of a batch row: per-user area, arrival count, arrived work.
BATCH_AREAS, BATCH_ARRIVALS, BATCH_SIZES = range(3)


class QueueTracker:
    """Per-user time-weighted queue-length integrator with batching.

    Parameters
    ----------
    n_users:
        Number of users.
    warmup:
        Simulation time discarded before statistics accumulate.

    Batch boundaries are laid out by :meth:`configure_batches` once the
    horizon is known; each completed batch records per-user areas so
    :meth:`batch_means` can form confidence intervals.  Rows live in
    ``_batches[:_batch_count]`` (see the module docstring).
    """

    def __init__(self, n_users: int, warmup: float = 0.0) -> None:
        if n_users < 1:
            raise ValueError("need at least one user")
        if warmup < 0.0:
            raise ValueError(f"warmup must be nonnegative, got {warmup}")
        self.n_users = n_users
        self.warmup = warmup
        self._counts = [0] * n_users
        self._areas = [0.0] * n_users
        self._segment_area_acc = [0.0] * n_users
        # Per-user time up to which area has been folded; clamped to
        # warmup so pre-warmup presence never accrues area.
        self._fold_from = [warmup] * n_users
        self._last_time = 0.0
        self._quota = math.inf
        self._boundary_index = 1
        self._next_boundary = math.inf
        self._batches = np.zeros((0, 3, n_users))
        self._batch_count = 0
        self._segment_arrival_acc = [0] * n_users
        self._segment_size_acc = [0.0] * n_users
        self._departures = [0] * n_users
        self._sojourn_sums = [0.0] * n_users
        self._sojourn_counts = [0] * n_users

    def configure_batches(self, horizon: float, n_batches: int = 20,
                          quota: Optional[float] = None) -> None:
        """Set the batch duration.

        By default the post-warmup window is split into ``n_batches``
        equal batches, which ties the batch layout to the horizon.  An
        explicit ``quota`` (batch duration in simulated time) instead
        lays boundaries at ``warmup + k * quota`` independently of the
        horizon — the layout resumable runs need so that extending a
        horizon appends batches without moving earlier boundaries.
        Any partial batch past the last boundary is discarded.
        """
        if quota is not None:
            if quota <= 0.0:
                raise ValueError(f"quota must be positive, got {quota}")
            self._quota = float(quota)
            self._boundary_index = 1
            self._next_boundary = self.warmup + self._quota
            return
        effective = max(horizon - self.warmup, 0.0)
        if n_batches < 2 or effective <= 0.0:
            self._quota = math.inf
            self._next_boundary = math.inf
            return
        self._quota = effective / n_batches
        self._boundary_index = 1
        self._next_boundary = self.warmup + self._quota

    def _fold(self, user: int, until: float) -> None:
        """Fold ``user``'s pending area forward to time ``until``."""
        start = self._fold_from[user]
        if until > start:
            area = self._counts[user] * (until - start)
            if area:
                self._areas[user] += area
                self._segment_area_acc[user] += area
            self._fold_from[user] = until

    def batch_rows(self, rows: int) -> np.ndarray:
        """The batch matrix, grown (by doubling) to hold ``rows`` rows."""
        batches = self._batches
        if rows > batches.shape[0]:
            grown = np.zeros((max(rows, 2 * batches.shape[0], 16), 3,
                              self.n_users))
            grown[:self._batch_count] = batches[:self._batch_count]
            self._batches = batches = grown
        return batches

    def _close_segment(self, boundary: float) -> None:
        """Fold everyone to ``boundary`` and record the batch."""
        for user in range(self.n_users):
            self._fold(user, boundary)
        row = self.batch_rows(self._batch_count + 1)[self._batch_count]
        row[BATCH_AREAS] = self._segment_area_acc
        row[BATCH_ARRIVALS] = self._segment_arrival_acc
        row[BATCH_SIZES] = self._segment_size_acc
        self._batch_count += 1
        self._segment_area_acc = [0.0] * self.n_users
        self._segment_arrival_acc = [0] * self.n_users
        self._segment_size_acc = [0.0] * self.n_users

    # Pickles carry the written rows only.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_batches"] = self._batches[:self._batch_count]
        return state

    def advance(self, now: float) -> None:
        """Move the clock to ``now`` (crossing batch boundaries).

        Lazy integration makes the common case a single comparison;
        per-user areas are folded in :meth:`on_arrival` /
        :meth:`on_departure` when counts actually change.
        """
        if now < self._last_time:
            raise ValueError(
                f"time ran backwards: {now} < {self._last_time}")
        boundary = self._next_boundary
        while now >= boundary - _BOUNDARY_SLACK:
            self._close_segment(boundary)
            self._boundary_index += 1
            boundary = self.warmup + self._boundary_index * self._quota
            self._next_boundary = boundary
        self._last_time = now

    def on_arrival(self, user: int, size: float = 0.0) -> None:
        """A packet of ``user`` entered the system (after advance).

        ``size`` is the packet's service requirement (0 in memoryless
        mode, where sizes are never materialized); post-warmup sizes
        accumulate into the per-batch arrived-work channel that the
        sized-mode control variates regress on.
        """
        self._fold(user, self._last_time)
        self._counts[user] += 1
        if self._last_time >= self.warmup:
            self._segment_arrival_acc[user] += 1
            self._segment_size_acc[user] += size

    def on_departure(self, user: int,
                     sojourn: Optional[float] = None) -> None:
        """A packet of ``user`` left the system (after advance).

        ``sojourn`` (time in system) feeds the per-user delay
        statistics; only post-warmup departures are recorded.
        """
        if self._counts[user] <= 0:
            raise ValueError(f"departure for user {user} with empty count")
        self._fold(user, self._last_time)
        self._counts[user] -= 1
        self._departures[user] += 1
        if sojourn is not None and self._last_time >= self.warmup:
            self._sojourn_sums[user] += sojourn
            self._sojourn_counts[user] += 1

    def on_drop(self, user: int) -> None:
        """A resident packet of ``user`` was evicted (buffer push-out).

        Decrements the in-system count without recording a departure
        or a sojourn.
        """
        if self._counts[user] <= 0:
            raise ValueError(f"drop for user {user} with empty count")
        self._fold(user, self._last_time)
        self._counts[user] -= 1

    # -- results ----------------------------------------------------------

    @property
    def measured_time(self) -> float:
        """Post-warmup time integrated so far."""
        return max(self._last_time - self.warmup, 0.0)

    def _areas_now(self) -> np.ndarray:
        """Per-user areas including each user's unfolded tail."""
        t = self._last_time
        return np.asarray(
            [area + count * (t - start) if t > start else area
             for area, count, start in zip(self._areas, self._counts,
                                           self._fold_from)])

    def mean_queues(self) -> np.ndarray:
        """Per-user time-average number in system."""
        measured = self.measured_time
        if measured <= 0.0:
            return np.full(self.n_users, math.nan)
        return self._areas_now() / measured

    def throughputs(self) -> np.ndarray:
        """Per-user departure rates over the measured window."""
        measured = self.measured_time
        if measured <= 0.0:
            return np.full(self.n_users, math.nan)
        return np.asarray(self._departures, dtype=float) / measured

    def mean_delays(self) -> np.ndarray:
        """Per-user mean sojourn time from recorded departures.

        By Little's law this should equal ``mean_queues / throughputs``
        up to estimation noise; both routes are exposed so tests can
        cross-check them.
        """
        out = np.full(self.n_users, math.nan)
        sums = np.asarray(self._sojourn_sums)
        counts = np.asarray(self._sojourn_counts)
        mask = counts > 0
        out[mask] = sums[mask] / counts[mask]
        return out

    def batch_means(self, confidence: float = 0.95) -> "BatchMeans":
        """Batch-means summary of per-user mean queues.

        Half-widths use the Student-t quantile at ``n_batches - 1``
        degrees of freedom (the normal 1.96 understates small-sample
        CIs).  The raw per-batch matrices ride along so downstream
        control-variate adjustment and sequential stopping can reuse
        them without re-simulating.
        """
        n = self._batch_count
        if not n:
            return BatchMeans(means=self.mean_queues(),
                              half_widths=np.full(self.n_users, math.nan),
                              n_batches=0)
        rows = self._batches[:n]
        per_batch = rows[:, BATCH_AREAS] / self._quota
        means = per_batch.mean(axis=0)
        if n >= 2:
            stderr = per_batch.std(axis=0, ddof=1) / math.sqrt(n)
            half = t_quantile(confidence, n - 1) * stderr
        else:
            half = np.full(self.n_users, math.nan)
        return BatchMeans(means=means, half_widths=half, n_batches=n,
                          per_batch=per_batch,
                          per_batch_arrivals=rows[:, BATCH_ARRIVALS].copy(),
                          per_batch_sizes=rows[:, BATCH_SIZES].copy(),
                          quota=self._quota,
                          confidence=confidence)


@dataclass
class BatchMeans:
    """Batch-means estimate with Student-t half-widths.

    ``per_batch`` (and ``per_batch_arrivals``) are the raw
    ``(n_batches, n_users)`` matrices behind the summary; ``None`` on
    legacy constructions that never configured batches.  ``quota`` is
    the batch duration (``inf`` when batching was off).
    """

    means: np.ndarray
    half_widths: np.ndarray
    n_batches: int
    per_batch: Optional[np.ndarray] = None
    per_batch_arrivals: Optional[np.ndarray] = None
    per_batch_sizes: Optional[np.ndarray] = None
    quota: float = math.inf
    confidence: float = 0.95

    def contains(self, reference: Sequence[float],
                 slack: float = 1.0) -> bool:
        """Whether ``reference`` lies within ``slack`` x the CI."""
        ref = np.asarray(reference, dtype=float)
        return bool(np.all(np.abs(ref - self.means)
                           <= slack * self.half_widths))
