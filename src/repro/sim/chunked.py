"""The chunked engine backend: C kernels over array-native inputs.

:class:`ChunkedSimulationEngine` is a drop-in
:class:`~repro.sim.runner.SimulationEngine` whose ``run_to`` hands the
whole event loop to a compiled kernel (:mod:`repro.sim.kernels`) that
replays the scalar loop in C:

1. The kernel merges the arrivals itself.  It holds every user's next
   arrival time in a heap ordered like the scalar engine's
   ``(time, user)`` heap, takes the smallest, and adds the user's
   next gap read in place from that user's
   :class:`~repro.sim.arrivals.VariateStream` block — the same
   sequential ``now + gap`` addition the scalar loop makes, so every
   arrival time is bit-identical.
2. The kernel writes completed batches straight into the tracker's
   batch matrix (:class:`~repro.sim.measurements.QueueTracker`).
3. The kernel returns to Python only to refill a variate block
   (arrivals, service, the ladder's thinning uniforms) at exactly the
   point the scalar loop would refill it, to grow an array, or to
   flush a sharded switch's departure log.  One ``run_to`` is
   therefore one kernel run, re-entered only for refills and growth.

Everything observable — measurements, variate draw counters, RNG
generator states, snapshots — is byte-for-byte identical to the
scalar backend; the equivalence is golden-tested across policies,
arrival/service processes, block sizes and variate modes.

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
scalar, as does every config when no C compiler can build the kernels.
The engine makes that choice itself on each ``run_to``; it is the one
engine :func:`repro.sim.runner.simulate` builds.  The events a
fallback simulates count in :mod:`repro.obs` by reason:
``sim.fallback.no_kernel`` (no kernel covers the config) or
``sim.fallback.no_compiler`` (the kernels could not be loaded).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro.obs as obs
from repro.exceptions import SimulationError
from repro.sim import kernels as kn
from repro.sim.fair_queueing import StartTimeFairQueue
from repro.sim.packet import Packet, sequence_watermark
from repro.sim.queues import (
    FairShareLadderQueue,
    FIFOQueue,
    RoundRobinQueue,
)
from repro.sim.runner import SimulationEngine

_EMPTY_F = np.empty(0, dtype=float)

#: Departures a kernel logs before returning to have the log flushed
#: (sharded switch engines only).
_DEP_LOG_CAP = 4096


def _capacity(count: int, floor: int = 1024) -> int:
    """Power-of-two capacity comfortably above ``count``."""
    return 1 << max(floor.bit_length() - 1, (2 * count + 2).bit_length())


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


class _ArrivalInput:
    """The kernels' arrival input (see :mod:`repro.sim.kernels`).

    Per-user next arrival times with the heap order of the scalar
    engine's ``arrivals_heap``, each stream's buffered block read in
    place through its address, and the engine's injected handoffs.
    """

    def __init__(self, engine: "ChunkedSimulationEngine") -> None:
        heap = engine.arrivals_heap
        self.pend = np.empty(len(heap))
        self.heap = np.empty(len(heap), dtype=np.int64)
        for slot, (time, user) in enumerate(heap):
            self.pend[user] = time
            self.heap[slot] = user
        self.streams = engine.arrival_streams
        # The views keep each block alive while the kernel reads it.
        self.blocks = [stream.buffered() for stream in self.streams]
        self.gap_addr = np.array([kn.f64_ptr(block)
                                  for block in self.blocks], dtype=np.uintp)
        self.gap_len = np.array([block.size for block in self.blocks],
                                dtype=np.int64)
        self.gap_pos = np.zeros(len(self.blocks), dtype=np.int64)
        self.inj_times = engine._inj_times
        self.inj_users = engine._inj_users

    def args(self) -> list:
        return [kn.f64_ptr(self.pend), kn.i64_ptr(self.heap),
                kn.address(self.gap_addr, self.gap_addr.dtype),
                kn.i64_ptr(self.gap_pos),
                kn.i64_ptr(self.gap_len), kn.f64_ptr(self.inj_times),
                kn.i64_ptr(self.inj_users), int(self.inj_times.size)]

    def refill(self, user: int) -> None:
        """Commit ``user``'s used-up block and draw the next one."""
        stream = self.streams[user]
        stream.consume(int(self.gap_pos[user]))
        block = stream.peek_block()
        self.blocks[user] = block
        self.gap_addr[user] = kn.f64_ptr(block)
        self.gap_len[user] = block.size
        self.gap_pos[user] = 0

    def commit(self) -> list:
        """Commit the used gaps; the arrivals heap in scalar form."""
        for stream, used in zip(self.streams, self.gap_pos.tolist()):
            stream.consume(used)
        times = self.pend.tolist()
        return [(times[user], user) for user in self.heap.tolist()]


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
        # The thinning uniforms precede these; the engine owns them.
        return [kn.f64_ptr(self.cum), kn.i64_ptr(self.cum_len),
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
        # The backlog's sequence numbers serve as its aidx, the locked
        # packet's included: the export then keeps the backlog's
        # arrival order, and new arrivals count on from the watermark.
        locked = policy._locked
        if locked is not None:
            iregs[kn.I_LOCKED_USER] = locked.user
            iregs[kn.I_LOCKED_AIDX] = locked.seq
            fregs[kn.F_LOCKED_TIME] = locked.arrival_time
            fregs[kn.F_LOCKED_SIZE] = locked.size
            iregs[kn.I_SERVING_AIDX] = locked.seq \
                if serving_seq == locked.seq else -1
        else:
            iregs[kn.I_LOCKED_USER] = -1
            iregs[kn.I_LOCKED_AIDX] = -1
            iregs[kn.I_SERVING_AIDX] = -1
        for i, (start, seq, packet) in enumerate(entries):
            self.h_start[i] = start
            self.h_aidx[i] = seq
            self.h_user[i] = packet.user
            self.h_time[i] = packet.arrival_time
            self.h_size[i] = packet.size
        self.iregs = iregs
        iregs[kn.I_HEAP_SIZE] = len(entries)
        iregs[kn.I_AIDX] = sequence_watermark()

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
            events = super().run_to(horizon)
            obs.add("sim.fallback.no_kernel" if kind is None
                    else "sim.fallback.no_compiler", events)
            return events
        return self._run_chunked(float(horizon), kind)

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
        iregs[kn.I_BATCHES] = tracker._batch_count
        iregs[kn.I_INJ] = self._inj_pos
        tracker_arrays = _TrackerArrays.from_tracker(tracker)

        if kind == "fifo":
            state = _FifoState(self.policy, iregs)
        elif kind == "ladder":
            state = _LadderState(self.policy, iregs, n)
        elif kind == "rr":
            state = _RoundRobinState(self.policy, iregs, fregs)
        else:
            state = _SfqState(self.policy, iregs, fregs, self.serving_seq)

        arrivals = _ArrivalInput(self)
        service_stream = self.service_stream
        service = service_stream.buffered()
        rows = tracker.batch_rows(tracker._batch_count + 1)
        ladder = kind == "ladder"
        uniforms = _EMPTY_F
        dep_log = self._dep_log
        dep_time = dep_user = None
        dep_args: list = []
        if state.HAS_DEP_LOG:
            dep_args = [None, None, 0]
            if dep_log is not None:
                dep_time = np.empty(_DEP_LOG_CAP, dtype=float)
                dep_user = np.empty(_DEP_LOG_CAP, dtype=np.int64)
                dep_args = [kn.f64_ptr(dep_time), kn.i64_ptr(dep_user),
                            _DEP_LOG_CAP]

        # One argument vector per run_to; a refill or growth patches
        # only its own slots.
        args = [kn.f64_ptr(fregs), kn.i64_ptr(iregs), n,
                *tracker_arrays.pointers()]
        rows_at = len(args)
        args += [kn.f64_ptr(rows), rows.shape[0], *arrivals.args()]
        svc_at = len(args)
        args += [kn.f64_ptr(service), service.size]
        if ladder:
            args += [kn.f64_ptr(uniforms), 0]
        pol_at = len(args)
        policy_args = state.policy_args()
        args += policy_args + dep_args + [horizon]
        kernel = state.kernel(lib)

        while True:
            reason = kernel(*args)
            if reason == kn.DONE:
                break
            if reason == kn.NEED_ARRIVALS:
                arrivals.refill(int(iregs[kn.I_REFILL_USER]))
            elif reason == kn.NEED_SERVICE:
                service_stream.consume(int(iregs[kn.I_SI]))
                service = service_stream.peek_block()
                iregs[kn.I_SI] = 0
                args[svc_at:svc_at + 2] = [kn.f64_ptr(service),
                                           service.size]
            elif reason == kn.NEED_UNIFORMS:
                # Exactly the arrivals known to fall below the horizon,
                # all of which this run processes: one uniform each, in
                # arrival order, as the scalar loop's pushes draw them.
                known = int(iregs[kn.I_UNIFORMS_NEEDED])
                if known < 1:
                    raise SimulationError(
                        "ladder kernel asked for uniforms with no known "
                        "arrival below the horizon")
                uniforms = self.policy_rng.random(  # greedwork: ignore[GW501]
                    known)
                iregs[kn.I_UI] = 0
                args[svc_at + 2:svc_at + 4] = [kn.f64_ptr(uniforms), known]
            elif reason == kn.GROW:
                state.grow()
                policy_args = state.policy_args()
                args[pol_at:pol_at + len(policy_args)] = policy_args
            elif reason == kn.SEGCAP:
                tracker._batch_count = int(iregs[kn.I_BATCHES])
                rows = tracker.batch_rows(tracker._batch_count + 1)
                args[rows_at:rows_at + 2] = [kn.f64_ptr(rows),
                                             rows.shape[0]]
            elif reason == kn.DEPLOG_FULL:
                self._flush_dep_log(iregs, dep_time, dep_user)
            else:
                raise SimulationError(
                    f"chunked kernel returned unknown reason {reason}")
        service_stream.consume(int(iregs[kn.I_SI]))
        if ladder and int(iregs[kn.I_UI]) != uniforms.size:
            raise SimulationError(
                f"thinning draw mismatch: {iregs[kn.I_UI]} of "
                f"{uniforms.size} drawn uniforms consumed")
        if dep_time is not None:
            self._flush_dep_log(iregs, dep_time, dep_user)

        # -- export back to the scalar representation -----------------
        tracker_arrays.into_tracker(tracker)
        tracker._batch_count = int(iregs[kn.I_BATCHES])
        tracker._last_time = float(fregs[kn.F_LAST])
        tracker._boundary_index = int(iregs[kn.I_BIDX])
        tracker._next_boundary = float(fregs[kn.F_BOUNDARY])
        self.now = float(fregs[kn.F_NOW])
        self.next_completion = float(fregs[kn.F_NEXT_COMPLETION])
        self.n_arrivals = int(iregs[kn.I_ARRIVALS])
        self.n_departures = int(iregs[kn.I_DEPARTURES])
        self.arrivals_heap = arrivals.commit()
        if self._inj_times.size:
            self._inj_pos = int(iregs[kn.I_INJ])
        self.serving_seq = state.export(self.policy, fregs, iregs)
        self.horizon_reached = horizon
        return self.n_arrivals + self.n_departures - events_before

    def _flush_dep_log(self, iregs: np.ndarray, dep_time: np.ndarray,
                       dep_user: np.ndarray) -> None:
        logged = int(iregs[kn.I_DEP])
        if logged:
            self._dep_log.append((dep_time[:logged].copy(),
                                  dep_user[:logged].copy()))
        iregs[kn.I_DEP] = 0
