"""The chunked engine backend: numpy chunk orchestration + C kernels.

:class:`ChunkedSimulationEngine` is a drop-in
:class:`~repro.sim.runner.SimulationEngine` whose ``run_to`` processes
*chunks* of events at a time instead of one heap-pop per event:

1. For every user, the buffered interarrival gaps of its
   :class:`~repro.sim.arrivals.VariateStream` are turned into an
   absolute arrival ladder with one ``cumsum`` (numpy's
   ``add.accumulate`` is a sequential left fold, so the ladder is
   bit-identical to the scalar engine's repeated additions).
2. The chunk cutoff ``T_c`` is the smallest last-known arrival time
   across users (clamped to the horizon): every arrival strictly
   before ``T_c`` is already known, so the whole merged batch —
   ``lexsort`` by ``(time, user)``, the scalar heap's tuple order —
   can be handed to a compiled kernel (:mod:`repro.sim.kernels`)
   that replays the exact scalar event loop in C.
3. The kernel returns to Python only at genuine decision points:
   service-block refills, capacity growth, and chunk completion.

Everything observable — measurements, variate draw counters, RNG
generator states, snapshots — is byte-for-byte identical to the
scalar backend; the equivalence is golden-tested across policies,
arrival/service processes, and variate modes.

Between ``run_to`` calls the engine's state is exactly the scalar
representation (policy backlog as :class:`Packet` objects, tracker
lists, arrivals heap), so snapshots taken by either backend resume
under the other, ``simulate_to_precision`` can carry one engine
across horizon chunks, and unsupported configurations simply fall
back to the inherited scalar loop.  Supported kernels:

* ``FIFOQueue`` (memoryless, exponential service);
* ``FairShareLadderQueue`` (memoryless, exponential service);
* ``RoundRobinQueue`` (memoryless, exponential service);
* ``StartTimeFairQueue`` (sized; any service process).

Anything else — adaptive ladders, LIFO, processor sharing, HOL
priority, finite buffers, sized FIFO and sized round robin — runs
scalar.  The backend is selected by
``GREEDWORK_ENGINE_BACKEND`` (see :func:`repro.sim.runner.engine_backend`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.sim import kernels as kn
from repro.sim.fair_queueing import StartTimeFairQueue
from repro.sim.packet import Packet
from repro.sim.queues import (
    FairShareLadderQueue,
    FIFOQueue,
    RoundRobinQueue,
)
from repro.sim.runner import SimulationEngine

_EMPTY_F = np.empty(0, dtype=float)
_EMPTY_I = np.empty(0, dtype=np.int64)


def _capacity(count: int, floor: int = 1024) -> int:
    """Power-of-two capacity comfortably above ``count``."""
    return 1 << max(floor.bit_length() - 1, (2 * count + 2).bit_length())


def _max_segments(t_f: float, boundary: float, quota: float) -> int:
    """Batch boundaries one kernel entry can cross before time ``t_f``.

    Mirrors the tracker's ``now >= boundary - 1e-9`` crossing rule,
    plus margin; the kernel's SEGCAP return is unreachable under this
    bound and treated as a bug.
    """
    if not math.isfinite(quota) or boundary - 1e-9 > t_f:
        return 1
    return int((t_f + 1e-9 - boundary) / quota) + 2


@dataclass
class _TrackerArrays:
    """The tracker's per-user lists as kernel-owned numpy buffers."""

    counts: np.ndarray
    fold_from: np.ndarray
    areas: np.ndarray
    seg_acc: np.ndarray
    arr_acc: np.ndarray
    size_acc: np.ndarray
    deps: np.ndarray
    soj_sums: np.ndarray
    soj_counts: np.ndarray

    @classmethod
    def from_tracker(cls, tracker) -> "_TrackerArrays":
        return cls(
            counts=np.asarray(tracker._counts, dtype=np.int64),
            fold_from=np.asarray(tracker._fold_from, dtype=float),
            areas=np.asarray(tracker._areas, dtype=float),
            seg_acc=np.asarray(tracker._segment_area_acc, dtype=float),
            arr_acc=np.asarray(tracker._segment_arrival_acc,
                               dtype=np.int64),
            size_acc=np.asarray(tracker._segment_size_acc, dtype=float),
            deps=np.asarray(tracker._departures, dtype=np.int64),
            soj_sums=np.asarray(tracker._sojourn_sums, dtype=float),
            soj_counts=np.asarray(tracker._sojourn_counts,
                                  dtype=np.int64))

    def into_tracker(self, tracker) -> None:
        # ``tolist`` restores plain Python ints/floats, keeping the
        # tracker's pickled form identical to a scalar-backend run's.
        tracker._counts = self.counts.tolist()
        tracker._fold_from = self.fold_from.tolist()
        tracker._areas = self.areas.tolist()
        tracker._segment_area_acc = self.seg_acc.tolist()
        tracker._segment_arrival_acc = self.arr_acc.tolist()
        tracker._segment_size_acc = self.size_acc.tolist()
        tracker._departures = self.deps.tolist()
        tracker._sojourn_sums = self.soj_sums.tolist()
        tracker._sojourn_counts = self.soj_counts.tolist()

    def pointers(self):
        return (kn.i64_ptr(self.counts), kn.f64_ptr(self.fold_from),
                kn.f64_ptr(self.areas), kn.f64_ptr(self.seg_acc),
                kn.i64_ptr(self.arr_acc), kn.f64_ptr(self.size_acc),
                kn.i64_ptr(self.deps), kn.f64_ptr(self.soj_sums),
                kn.i64_ptr(self.soj_counts))


class _FifoState:
    """Ring-buffer image of a ``FIFOQueue`` backlog."""

    HAS_DEP_LOG = True

    def __init__(self, policy: FIFOQueue, iregs: np.ndarray) -> None:
        backlog = list(policy._queue)
        self.cap = _capacity(len(backlog))
        self.q_user = np.zeros(self.cap, dtype=np.int64)
        self.q_time = np.zeros(self.cap, dtype=float)
        for i, packet in enumerate(backlog):
            self.q_user[i] = packet.user
            self.q_time[i] = packet.arrival_time
        self.iregs = iregs
        iregs[kn.I_QHEAD] = 0
        iregs[kn.I_QCOUNT] = len(backlog)

    def grow(self) -> None:
        iregs = self.iregs
        head = int(iregs[kn.I_QHEAD])
        count = int(iregs[kn.I_QCOUNT])
        index = (head + np.arange(count)) & (self.cap - 1)
        self.cap *= 2
        new_user = np.zeros(self.cap, dtype=np.int64)
        new_time = np.zeros(self.cap, dtype=float)
        new_user[:count] = self.q_user[index]
        new_time[:count] = self.q_time[index]
        self.q_user, self.q_time = new_user, new_time
        iregs[kn.I_QHEAD] = 0

    def kernel(self, lib):
        return lib.gw_fifo_kernel

    def policy_args(self) -> list:
        return [kn.i64_ptr(self.q_user), kn.f64_ptr(self.q_time),
                self.cap]

    def export(self, policy: FIFOQueue, fregs, iregs) -> int:
        head = int(iregs[kn.I_QHEAD])
        count = int(iregs[kn.I_QCOUNT])
        mask = self.cap - 1
        queue: deque = deque()
        for i in range(count):
            slot = (head + i) & mask
            queue.append(Packet(user=int(self.q_user[slot]),
                                arrival_time=float(self.q_time[slot])))
        policy._queue = queue
        return -1


class _NodePoolState:
    """Linked-list FIFOs over one shared node pool.

    Base of the ladder (one list per priority class) and round-robin
    (one list per user) images.  ``node_next`` chains both the lists
    and the free list; ``node_aidx`` stamps global arrival order so the
    backlog can be rebuilt with fresh, order-preserving packet
    sequence numbers.
    """

    HAS_DEP_LOG = False

    def _build_pool(self, lists, iregs: np.ndarray,
                    held: Optional[Packet] = None) -> int:
        """Load per-list packet deques into a fresh pool.

        ``held`` is a packet kept outside the lists (round robin's
        locked packet); it still takes an arrival stamp, which is
        returned (-1 without one).
        """
        entries = [(packet.seq, index, packet)
                   for index, queue in enumerate(lists)
                   for packet in queue]
        if held is not None:
            entries.append((held.seq, -1, held))
        entries.sort(key=lambda entry: entry[0])
        used = len(entries) - (held is not None)
        self.ncap = _capacity(used)
        self.node_user = np.zeros(self.ncap, dtype=np.int64)
        self.node_time = np.zeros(self.ncap, dtype=float)
        self.node_next = np.full(self.ncap, -1, dtype=np.int64)
        self.node_aidx = np.zeros(self.ncap, dtype=np.int64)
        self.head = np.full(len(lists), -1, dtype=np.int64)
        self.tail = np.full(len(lists), -1, dtype=np.int64)
        held_aidx = -1
        node = 0
        for aidx, (_seq, index, packet) in enumerate(entries):
            if index < 0:
                held_aidx = aidx
                continue
            self.node_user[node] = packet.user
            self.node_time[node] = packet.arrival_time
            self.node_aidx[node] = aidx
            if self.head[index] < 0:
                self.head[index] = node
            else:
                self.node_next[self.tail[index]] = node
            self.tail[index] = node
            node += 1
        self.node_next[used:self.ncap - 1] = np.arange(used + 1, self.ncap)
        self.iregs = iregs
        iregs[kn.I_FREE_HEAD] = used if used < self.ncap else -1
        iregs[kn.I_AIDX] = len(entries)
        return held_aidx

    def grow(self) -> None:
        old_cap = self.ncap
        self.ncap *= 2
        for name in ("node_user", "node_time", "node_aidx"):
            old = getattr(self, name)
            fresh = np.zeros(self.ncap, dtype=old.dtype)
            fresh[:old_cap] = old
            setattr(self, name, fresh)
        next_fresh = np.full(self.ncap, -1, dtype=np.int64)
        next_fresh[:old_cap] = self.node_next
        next_fresh[old_cap:self.ncap - 1] = np.arange(
            old_cap + 1, self.ncap)
        self.node_next = next_fresh
        # GROW fires only on an empty free list.
        self.iregs[kn.I_FREE_HEAD] = old_cap

    def _pool_args(self) -> list:
        return [kn.i64_ptr(self.node_user), kn.f64_ptr(self.node_time),
                kn.i64_ptr(self.node_next), kn.i64_ptr(self.node_aidx),
                kn.i64_ptr(self.head), kn.i64_ptr(self.tail)]

    def _export_pool(self, held=None):
        """The lists as packet deques, plus the held packet (or None).

        Packets are created in arrival-stamp order so their fresh
        sequence numbers keep the backlog's relative order.  ``held``
        is the ``(aidx, user, arrival_time)`` of the packet kept
        outside the lists.
        """
        nodes = []
        for index in range(self.head.size):
            node = int(self.head[index])
            while node >= 0:
                nodes.append((int(self.node_aidx[node]), index,
                              int(self.node_user[node]),
                              float(self.node_time[node])))
                node = int(self.node_next[node])
        if held is not None:
            nodes.append((held[0], -1, held[1], held[2]))
        nodes.sort()
        lists: List[deque] = [deque() for _ in range(self.head.size)]
        held_packet: Optional[Packet] = None
        for _aidx, index, user, time in nodes:
            packet = Packet(user=user, arrival_time=time)
            if index < 0:
                held_packet = packet
            else:
                lists[index].append(packet)
        return lists, held_packet


class _LadderState(_NodePoolState):
    """Node-pool image of a ``FairShareLadderQueue`` backlog."""

    HAS_DEP_LOG = True

    def __init__(self, policy: FairShareLadderQueue, iregs: np.ndarray,
                 n: int) -> None:
        self.n_classes = len(policy._classes)
        cum = np.full((n, self.n_classes), np.inf)
        cum_len = np.zeros(n, dtype=np.int64)
        for user in range(n):
            weights = policy._class_cum[user]
            cum_len[user] = len(weights)
            cum[user, :len(weights)] = weights
        self.cum = np.ascontiguousarray(cum)
        self.cum_len = cum_len
        self._build_pool(policy._classes, iregs)
        iregs[kn.I_QCOUNT] = policy._count

    def kernel(self, lib):
        return lib.gw_ladder_kernel

    def policy_args(self) -> list:
        # Leading slot is the per-chunk uniforms pointer, patched in by
        # the engine (``_UNIFORMS_SLOT``).
        return [kn.f64_ptr(_EMPTY_F),
                kn.f64_ptr(self.cum), kn.i64_ptr(self.cum_len),
                self.n_classes, *self._pool_args()]

    def export(self, policy: FairShareLadderQueue, fregs, iregs) -> int:
        classes, _ = self._export_pool()
        for klass, queue in enumerate(classes):
            for packet in queue:
                packet.priority = klass
        policy._classes = classes
        policy._count = int(iregs[kn.I_QCOUNT])
        return -1


class _RoundRobinState(_NodePoolState):
    """Node-pool image of a memoryless ``RoundRobinQueue`` backlog.

    One list per user; the locked packet lives in the SFQ locked
    registers, outside its list, as in the scalar policy.
    """

    def __init__(self, policy: RoundRobinQueue, iregs: np.ndarray,
                 fregs: np.ndarray) -> None:
        self.n_queues = len(policy._queues)
        locked = policy._locked
        iregs[kn.I_LOCKED_AIDX] = self._build_pool(policy._queues, iregs,
                                                   held=locked)
        iregs[kn.I_LOCKED_USER] = -1 if locked is None else locked.user
        fregs[kn.F_LOCKED_TIME] = (0.0 if locked is None
                                   else locked.arrival_time)
        iregs[kn.I_QCOUNT] = policy._count
        iregs[kn.I_CURSOR] = policy._cursor

    def kernel(self, lib):
        return lib.gw_rr_kernel

    def policy_args(self) -> list:
        return [self.n_queues, *self._pool_args()]

    def export(self, policy: RoundRobinQueue, fregs, iregs) -> int:
        locked_user = int(iregs[kn.I_LOCKED_USER])
        held = None
        if locked_user >= 0:
            held = (int(iregs[kn.I_LOCKED_AIDX]), locked_user,
                    float(fregs[kn.F_LOCKED_TIME]))
        policy._queues, policy._locked = self._export_pool(held)
        policy._cursor = int(iregs[kn.I_CURSOR])
        policy._count = int(iregs[kn.I_QCOUNT])
        return -1


class _SfqState:
    """Array-heap image of a ``StartTimeFairQueue`` backlog.

    Heap entries carry ``(start tag, aidx)`` where ``aidx`` is a
    monotone per-packet counter standing in for the global packet
    sequence number: both are unique and ordered by arrival, so the C
    heap pops packets in exactly the scalar heap's order.
    """

    HAS_DEP_LOG = False

    def __init__(self, policy: StartTimeFairQueue, iregs: np.ndarray,
                 fregs: np.ndarray, serving_seq: int) -> None:
        self.weights = np.ascontiguousarray(policy._weights, dtype=float)
        self.finish_tags = np.ascontiguousarray(policy._finish_tags,
                                                dtype=float)
        fregs[kn.F_VIRTUAL_TIME] = policy._virtual_time
        entries = sorted((start, seq, packet)
                         for start, seq, packet in policy._heap)
        self.hcap = _capacity(len(entries))
        self.h_start = np.zeros(self.hcap, dtype=float)
        self.h_aidx = np.zeros(self.hcap, dtype=np.int64)
        self.h_user = np.zeros(self.hcap, dtype=np.int64)
        self.h_time = np.zeros(self.hcap, dtype=float)
        self.h_size = np.zeros(self.hcap, dtype=float)
        locked = policy._locked
        aidx = 0
        if locked is not None:
            iregs[kn.I_LOCKED_USER] = locked.user
            iregs[kn.I_LOCKED_AIDX] = 0
            fregs[kn.F_LOCKED_TIME] = locked.arrival_time
            fregs[kn.F_LOCKED_SIZE] = locked.size
            iregs[kn.I_SERVING_AIDX] = 0 if serving_seq == locked.seq \
                else -1
            aidx = 1
        else:
            iregs[kn.I_LOCKED_USER] = -1
            iregs[kn.I_LOCKED_AIDX] = -1
            iregs[kn.I_SERVING_AIDX] = -1
        # Start-tag order equals sequence order within equal tags, so
        # assigning aidx along the sorted entries preserves the scalar
        # heap's comparison outcomes.
        for i, (start, _seq, packet) in enumerate(entries):
            self.h_start[i] = start
            self.h_aidx[i] = aidx
            self.h_user[i] = packet.user
            self.h_time[i] = packet.arrival_time
            self.h_size[i] = packet.size
            aidx += 1
        self.iregs = iregs
        iregs[kn.I_HEAP_SIZE] = len(entries)
        iregs[kn.I_AIDX] = aidx

    def grow(self) -> None:
        old_cap = self.hcap
        self.hcap *= 2
        for name in ("h_start", "h_aidx", "h_user", "h_time", "h_size"):
            old = getattr(self, name)
            fresh = np.zeros(self.hcap, dtype=old.dtype)
            fresh[:old_cap] = old
            setattr(self, name, fresh)

    def kernel(self, lib):
        return lib.gw_sfq_kernel

    def policy_args(self) -> list:
        return [kn.f64_ptr(self.weights), kn.f64_ptr(self.finish_tags),
                kn.f64_ptr(self.h_start), kn.i64_ptr(self.h_aidx),
                kn.i64_ptr(self.h_user), kn.f64_ptr(self.h_time),
                kn.f64_ptr(self.h_size), self.hcap]

    def export(self, policy: StartTimeFairQueue, fregs, iregs) -> int:
        policy._finish_tags = self.finish_tags.tolist()
        policy._virtual_time = float(fregs[kn.F_VIRTUAL_TIME])
        heap_size = int(iregs[kn.I_HEAP_SIZE])
        locked_user = int(iregs[kn.I_LOCKED_USER])
        items = []
        if locked_user >= 0:
            items.append((int(iregs[kn.I_LOCKED_AIDX]), None, locked_user,
                          float(fregs[kn.F_LOCKED_TIME]),
                          float(fregs[kn.F_LOCKED_SIZE])))
        for i in range(heap_size):
            items.append((int(self.h_aidx[i]), float(self.h_start[i]),
                          int(self.h_user[i]), float(self.h_time[i]),
                          float(self.h_size[i])))
        # Fresh sequence numbers in aidx (arrival) order keep the
        # rebuilt heap's (start, seq) comparisons identical to the C
        # heap's (start, aidx) ones.
        items.sort(key=lambda item: item[0])
        locked_packet: Optional[Packet] = None
        heap_entries = []
        for _aidx, start, user, time, size in items:
            packet = Packet(user=user, arrival_time=time, size=size)
            if start is None:
                locked_packet = packet
            else:
                heap_entries.append((start, packet.seq, packet))
        heap_entries.sort(key=lambda entry: (entry[0], entry[1]))
        policy._heap = heap_entries        # sorted list is a valid heap
        policy._locked = locked_packet
        if locked_packet is not None:
            return locked_packet.seq
        return -1


class ChunkedSimulationEngine(SimulationEngine):
    """Chunk-kernel engine, bit-identical to the scalar backend.

    Between ``run_to`` calls every attribute holds the scalar
    representation, so the inherited ``snapshot``/``result``/``resume``
    work unchanged and both backends' snapshots interoperate.
    """

    def run_to(self, horizon: float) -> int:
        if horizon <= self.horizon_reached:
            return 0
        kind = self._kernel_kind()
        if kind is None or kn.load_kernels() is None:
            return super().run_to(horizon)
        return self._run_chunked(float(horizon), kind)

    def _take_injected(self, t_c: float):
        """Externally injected arrivals strictly before ``t_c``.

        The single-switch engine has none; sharded switch engines
        (:mod:`repro.network.sharded`) override this to hand packets
        forwarded from upstream switches into the chunk merge.  Must
        return ``None`` or a ``(times, users)`` pair of arrays sorted
        by time, consuming the returned arrivals.
        """
        return None

    def _kernel_kind(self) -> Optional[str]:
        """Which compiled kernel covers this run (None: fall back).

        Exact type checks: subclasses (e.g. the adaptive ladder, whose
        classifier mutates estimator state per arrival) have semantics
        the kernels do not replicate.
        """
        policy = self.policy
        if self.sized:
            return "sfq" if type(policy) is StartTimeFairQueue else None
        if type(policy) is FIFOQueue:
            return "fifo"
        if type(policy) is FairShareLadderQueue:
            return "ladder"
        # Fewer subqueues than users makes the scalar push raise; the
        # kernel would write past its lists instead.
        if (type(policy) is RoundRobinQueue
                and len(policy._queues) >= self.rates.size):
            return "rr"
        return None

    def _run_chunked(self, horizon: float, kind: str) -> int:
        lib = kn.load_kernels()
        n = int(self.rates.size)
        tracker = self.tracker
        events_before = self.n_arrivals + self.n_departures

        fregs = np.zeros(kn.FREGS, dtype=float)
        iregs = np.zeros(kn.IREGS, dtype=np.int64)
        fregs[kn.F_NOW] = self.now
        fregs[kn.F_LAST] = tracker._last_time
        fregs[kn.F_NEXT_COMPLETION] = self.next_completion
        fregs[kn.F_BOUNDARY] = tracker._next_boundary
        fregs[kn.F_QUOTA] = tracker._quota
        fregs[kn.F_WARMUP] = tracker.warmup
        iregs[kn.I_ARRIVALS] = self.n_arrivals
        iregs[kn.I_DEPARTURES] = self.n_departures
        iregs[kn.I_BIDX] = tracker._boundary_index
        tracker_arrays = _TrackerArrays.from_tracker(tracker)
        quota = float(fregs[kn.F_QUOTA])

        if kind == "fifo":
            state = _FifoState(self.policy, iregs)
        elif kind == "ladder":
            state = _LadderState(self.policy, iregs, n)
        elif kind == "rr":
            state = _RoundRobinState(self.policy, iregs, fregs)
        else:
            state = _SfqState(self.policy, iregs, fregs, self.serving_seq)

        pend = np.empty(n, dtype=float)
        for time, user in self.arrivals_heap:
            pend[user] = time
        streams = self.arrival_streams
        service_stream = self.service_stream
        ladder = kind == "ladder"
        kernel = state.kernel(lib)

        # The kernel argument vector is assembled once per chunk and
        # only the slots that actually change (service block, grown
        # policy arrays, segment buffers) are patched in place — at
        # block-refill cadence the per-entry ctypes pointer rebuild
        # would otherwise dominate the backend.
        base_args = [kn.f64_ptr(fregs), kn.i64_ptr(iregs), n,
                     *tracker_arrays.pointers()]
        seg_rows = 0
        seg_areas = seg_arr = seg_sizes = None
        seg_ptrs: list = []
        policy_args = state.policy_args()
        # Sharded switch engines set ``_dep_log`` to capture departure
        # (time, user) pairs from the kernel for inter-switch handoff;
        # a zero dep_cap disables logging inside the kernel.
        dep_log = getattr(self, "_dep_log", None)
        # Arg layout past base_args: seg x3, seg_rows, arr x2, A,
        # service ptr, service len, then the policy section, then the
        # departure-log section (fifo/ladder), then the tail.
        svc_slot = len(base_args) + 7
        uniforms_slot = svc_slot + 2 if ladder else None

        while True:
            # -- chunk cutoff: last-known arrival per user ------------
            ladders = []
            for user in range(n):
                if pend[user] < horizon:
                    gaps = streams[user].buffered()
                    if gaps.size == 0:
                        # The arrival at pend[user] is < horizon, so
                        # the scalar loop would draw (and refill) for
                        # it within this run_to: the refill is the
                        # stream's next generator operation either way.
                        gaps = streams[user].peek_block()
                    ladders.append(np.cumsum(
                        np.concatenate(([pend[user]], gaps))))
                else:
                    ladders.append(pend[user:user + 1])
            t_c = min(horizon, min(float(lad[-1]) for lad in ladders))
            finalize = t_c >= horizon

            # -- merged chunk arrivals, scalar heap order -------------
            times_parts = []
            users_parts = []
            for user in range(n):
                lad = ladders[user]
                m = int(np.searchsorted(lad, t_c, side="left"))
                if m:
                    times_parts.append(lad[:m])
                    users_parts.append(np.full(m, user, dtype=np.int64))
                pend[user] = lad[m]
                streams[user].consume(m)
            injected = self._take_injected(t_c)
            if injected is not None:
                # Appended after the source parts: ``lexsort`` is
                # stable, so a source arrival beats an injected one at
                # an identical (time, user) key.
                times_parts.append(np.asarray(injected[0], dtype=float))
                users_parts.append(np.asarray(injected[1],
                                              dtype=np.int64))
            if times_parts:
                times = np.concatenate(times_parts)
                users = np.concatenate(users_parts)
                order = np.lexsort((users, times))
                arr_times = np.ascontiguousarray(times[order])
                arr_users = np.ascontiguousarray(users[order])
            else:
                arr_times, arr_users = _EMPTY_F, _EMPTY_I
            total = int(arr_times.size)
            if (total == 0 and not finalize
                    and fregs[kn.F_NEXT_COMPLETION] >= t_c):
                raise SimulationError(
                    "chunked engine stalled: no arrivals below the "
                    f"chunk cutoff {t_c} and no pending completion")
            # Bulk thinning draw: exactly one uniform per chunk arrival,
            # consumed by the kernel in arrival order, so the policy
            # stream's draw sequence matches the scalar loop's
            # one-draw-per-push order no matter how events chunk.
            uniforms = (
                self.policy_rng.random(total)  # greedwork: ignore[GW501]
                if ladder else _EMPTY_F)
            service_buf = np.ascontiguousarray(service_stream.buffered())
            iregs[kn.I_AI] = 0
            iregs[kn.I_SI] = 0
            iregs[kn.I_UI] = 0

            t_f = horizon if finalize else t_c
            max_seg = _max_segments(t_f, float(fregs[kn.F_BOUNDARY]),
                                    quota)
            if max_seg > seg_rows:
                seg_rows = max_seg
                seg_areas = np.zeros((seg_rows, n), dtype=float)
                seg_arr = np.zeros((seg_rows, n), dtype=np.int64)
                seg_sizes = np.zeros((seg_rows, n), dtype=float)
                seg_ptrs = [kn.f64_ptr(seg_areas), kn.i64_ptr(seg_arr),
                            kn.f64_ptr(seg_sizes)]
            dep_time = dep_user = None
            if state.HAS_DEP_LOG:
                if dep_log is None:
                    dep_args = [None, None, 0]
                else:
                    # Departures this chunk cannot exceed the backlog
                    # plus the chunk's arrivals.
                    dep_cap = int(iregs[kn.I_QCOUNT]) + total + 1
                    dep_time = np.empty(dep_cap, dtype=float)
                    dep_user = np.empty(dep_cap, dtype=np.int64)
                    dep_args = [kn.f64_ptr(dep_time),
                                kn.i64_ptr(dep_user), dep_cap]
                    iregs[kn.I_DEP] = 0
            else:
                dep_args = []
            args = base_args + seg_ptrs + [
                seg_rows, kn.f64_ptr(arr_times), kn.i64_ptr(arr_users),
                total, kn.f64_ptr(service_buf), int(service_buf.size),
            ] + policy_args + dep_args + [t_c, 1 if finalize else 0,
                                          horizon]
            if ladder:
                args[uniforms_slot] = kn.f64_ptr(uniforms)

            # -- kernel entries until the chunk completes -------------
            while True:
                iregs[kn.I_NSEG] = 0
                reason = kernel(*args)
                for s in range(int(iregs[kn.I_NSEG])):
                    tracker._segment_times.append(quota)
                    tracker._segment_areas.append(seg_areas[s].copy())
                    tracker._segment_arrivals.append(
                        seg_arr[s].astype(float))
                    tracker._segment_sizes.append(seg_sizes[s].copy())
                if reason == kn.DONE:
                    service_stream.consume(int(iregs[kn.I_SI]))
                    break
                if reason == kn.NEED_SERVICE:
                    service_stream.consume(int(iregs[kn.I_SI]))
                    service_buf = np.ascontiguousarray(
                        service_stream.peek_block())
                    iregs[kn.I_SI] = 0
                    args[svc_slot] = kn.f64_ptr(service_buf)
                    args[svc_slot + 1] = int(service_buf.size)
                elif reason == kn.GROW:
                    state.grow()
                    policy_args = state.policy_args()
                    pol_at = svc_slot + 2
                    args[pol_at:pol_at + len(policy_args)] = policy_args
                    if ladder:
                        args[uniforms_slot] = kn.f64_ptr(uniforms)
                else:
                    raise SimulationError(
                        "segment buffer overflow in chunked kernel "
                        "(max_seg bound violated)")
            if ladder and int(iregs[kn.I_UI]) != total:
                raise SimulationError(
                    f"thinning draw mismatch: {iregs[kn.I_UI]} uniforms "
                    f"consumed for {total} arrivals")
            if dep_time is not None:
                logged = int(iregs[kn.I_DEP])
                if logged:
                    dep_log.append((dep_time[:logged].copy(),
                                    dep_user[:logged].copy()))
            if finalize:
                break

        # -- export back to the scalar representation -----------------
        tracker_arrays.into_tracker(tracker)
        tracker._last_time = float(fregs[kn.F_LAST])
        tracker._boundary_index = int(iregs[kn.I_BIDX])
        tracker._next_boundary = float(fregs[kn.F_BOUNDARY])
        self.now = float(fregs[kn.F_NOW])
        self.next_completion = float(fregs[kn.F_NEXT_COMPLETION])
        self.n_arrivals = int(iregs[kn.I_ARRIVALS])
        self.n_departures = int(iregs[kn.I_DEPARTURES])
        heap = [(float(pend[user]), user) for user in range(n)]
        heapq.heapify(heap)
        self.arrivals_heap = heap
        self.serving_seq = state.export(self.policy, fregs, iregs)
        self.horizon_reached = horizon
        return self.n_arrivals + self.n_departures - events_before
