"""Compiled C event kernels behind the chunked engine backend.

The chunked backend (:mod:`repro.sim.chunked`) hands each ``run_to``
to one of four compiled kernels, which run the event loop to the
horizon and return to Python only to refill a variate block or grow
an array:

* ``gw_fifo_kernel`` — memoryless FIFO;
* ``gw_ladder_kernel`` — the memoryless preemptive Fair Share
  priority ladder (per-arrival Poisson thinning);
* ``gw_rr_kernel`` — memoryless round robin (per-user polling);
* ``gw_sfq_kernel`` — sized Start-time Fair Queueing.

All four take their arrivals from the same input: every user's next
arrival time in a binary heap ordered like the scalar engine's
``(time, user)`` heap, each user's interarrival block (a view of its
:class:`~repro.sim.arrivals.VariateStream` block, read in place), and
the sorted injected handoffs of a sharded switch.  ``gw_pick`` takes
the next arrival and ``gw_take`` adds the user's next gap — the same
``now + gap`` addition the scalar loop makes.  The ladder and round
robin keep their FIFO lists in one shared node pool
(``gw_list_push``/``gw_list_pop``).

Each kernel is a *transliteration* of the scalar loop in
:mod:`repro.sim.runner` plus the lazy fold/batch logic of
:class:`repro.sim.measurements.QueueTracker`: the same IEEE-754
double operations in the same order, so the measurements it produces
are byte-for-byte those of the scalar backend (golden-tested).  Any
change here that alters an arithmetic expression, a comparison, or
the order of tracker updates breaks that contract and must be
mirrored in ``runner.py``/``measurements.py`` — see DESIGN.md.

Compilation is lazy and cached: the C source below is hashed, built
once with the system C compiler into
``.greedwork_cache/kernels/gw-<hash>.so`` (or
``$GREEDWORK_KERNEL_DIR``) and loaded via :mod:`ctypes`.  When no
compiler is available the chunked backend silently degrades to the
scalar engine — no new dependency is required.

Kernel calling convention
-------------------------
State travels in two register banks plus arrays, all numpy buffers
owned by the Python side.  Every kernel takes, in order: the register
banks and ``n``; the tracker's per-user arrays and its batch matrix
with its row capacity; the arrival input (``pend``, ``heap``, the
per-user gap pointers with their cursors and lengths, the injected
times, users and count); the service block; the policy section; for
FIFO and the ladder the departure log; and the horizon.

``fregs`` (float64): 0 now, 1 tracker last_time, 2 next_completion,
3 next batch boundary, 4 batch quota, 5 warmup, 6 SFQ virtual time,
7 locked packet arrival time, 8 locked packet size.

``iregs`` (int64): 0 n_arrivals, 1 n_departures, 2 boundary index,
3 injected-handoff cursor, 4 service cursor, 5 uniform cursor,
6 redraw pending, 7 queue head, 8 queue count, 9 return reason,
10 batch rows written (the tracker's batch count), 11 packet-order
counter, 12 locked user, 13 locked order, 14 serving order, 15 heap
size, 16 free-list head, 17 departure-log cursor (the FIFO and ladder
kernels append ``(time, user)`` departures when ``dep_cap > 0`` — the
sharded multi-switch handoff channel; ``dep_cap = 0`` disables
logging and the single-switch engine runs with it off),
18 round-robin cursor, 19 the user whose gap block ran out, 20 the
thinning uniforms to draw.  Round robin's locked packet uses the SFQ
locked slots (iregs 12 and 13, fregs 7).

A kernel stops only at the horizon; there is no chunk cutoff.  Return
reasons — every one but ``DONE`` comes before the pending event is
processed, so re-entering the kernel continues exactly where it
stopped:

* 0 ``DONE`` — the horizon is reached;
* 1 ``NEED_SERVICE`` — the service block is exhausted;
* 2 ``GROW`` — the queue, node pool or heap is full;
* 3 ``SEGCAP`` — the tracker's batch matrix is full;
* 4 ``NEED_ARRIVALS`` — user ``iregs[19]``'s next arrival is due and
  its gap block is exhausted: Python refills it, the refill the
  scalar loop's ``draw()`` makes for that arrival;
* 5 ``NEED_UNIFORMS`` — (ladder) the thinning uniforms are used up;
  ``iregs[20]`` counts the arrivals already known to fall below the
  horizon, each of which this run processes;
* 6 ``DEPLOG_FULL`` — the departure log is full: flush and re-enter.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

#: fregs slots.
F_NOW, F_LAST, F_NEXT_COMPLETION, F_BOUNDARY, F_QUOTA, F_WARMUP = range(6)
F_VIRTUAL_TIME, F_LOCKED_TIME, F_LOCKED_SIZE = 6, 7, 8
FREGS = 16

#: iregs slots.
(I_ARRIVALS, I_DEPARTURES, I_BIDX, I_INJ, I_SI, I_UI, I_REDRAW,
 I_QHEAD, I_QCOUNT, I_REASON, I_BATCHES, I_AIDX, I_LOCKED_USER,
 I_LOCKED_AIDX, I_SERVING_AIDX, I_HEAP_SIZE, I_FREE_HEAD,
 I_DEP, I_CURSOR, I_REFILL_USER, I_UNIFORMS_NEEDED) = range(21)
IREGS = 24

#: Return reasons.
(DONE, NEED_SERVICE, GROW, SEGCAP, NEED_ARRIVALS, NEED_UNIFORMS,
 DEPLOG_FULL) = range(7)

#: Environment override for the compiled-kernel cache directory.
ENV_KERNEL_DIR = "GREEDWORK_KERNEL_DIR"

_C_SOURCE = r"""
/* +inf without <math.h>: parsing that header is about 5% of the build,
   and every cold start pays the build. */
#define HUGE_VAL (__builtin_huge_val())

typedef long long i64;

/* Exact transliteration of QueueTracker._fold (measurements.py). */
static void gw_fold(i64 u, double until, i64 *counts, double *fold_from,
                    double *areas, double *seg_acc)
{
    double start = fold_from[u];
    if (until > start) {
        double area = (double)counts[u] * (until - start);
        if (area != 0.0) { areas[u] += area; seg_acc[u] += area; }
        fold_from[u] = until;
    }
}

/* QueueTracker.advance: cross batch boundaries, writing one row of the
   tracker's batch matrix per boundary, then move the clock.  Returns 0,
   or 3 when the matrix is full (no state changed for that boundary). */
static i64 gw_advance(double now, double *fregs, i64 *iregs, i64 n,
                      i64 *counts, double *fold_from, double *areas,
                      double *seg_acc, i64 *arr_acc, double *size_acc,
                      double *rows, i64 row_cap)
{
    double boundary = fregs[3];
    while (now >= boundary - 1e-9) {
        i64 b = iregs[10], u;
        double *row;
        if (b >= row_cap) return 3;
        row = rows + b * 3 * n;
        for (u = 0; u < n; u++)
            gw_fold(u, boundary, counts, fold_from, areas, seg_acc);
        for (u = 0; u < n; u++) {
            row[u] = seg_acc[u];
            seg_acc[u] = 0.0;
            row[n + u] = (double)arr_acc[u];
            arr_acc[u] = 0;
            row[2 * n + u] = size_acc[u];
            size_acc[u] = 0.0;
        }
        iregs[10] = b + 1;
        iregs[2] += 1;
        boundary = fregs[5] + (double)iregs[2] * fregs[4];
        fregs[3] = boundary;
    }
    fregs[1] = now;
    return 0;
}

static void gw_on_arrival(i64 u, double size, double *fregs, i64 *counts,
                          double *fold_from, double *areas, double *seg_acc,
                          i64 *arr_acc, double *size_acc)
{
    gw_fold(u, fregs[1], counts, fold_from, areas, seg_acc);
    counts[u] += 1;
    if (fregs[1] >= fregs[5]) { arr_acc[u] += 1; size_acc[u] += size; }
}

static void gw_on_departure(i64 u, double sojourn, double *fregs,
                            i64 *counts, double *fold_from, double *areas,
                            double *seg_acc, i64 *deps, double *soj_sums,
                            i64 *soj_counts)
{
    gw_fold(u, fregs[1], counts, fold_from, areas, seg_acc);
    counts[u] -= 1;
    deps[u] += 1;
    if (fregs[1] >= fregs[5]) { soj_sums[u] += sojourn; soj_counts[u] += 1; }
}

/* ---------------- arrival input (all four kernels) ----------------
   pend[u] is user u's next arrival time; heap holds the n users as a
   binary min-heap on (pend[u], u), the scalar engine's heap order.  A
   user's next gap is gaps[u][gap_pos[u]] (gap_len[u] buffered).
   Injected handoffs (sharded switches; inj_n = 0 otherwise) are sorted
   by (time, user) and taken from iregs[3]. */

/* The next arrival: the earlier of the heap root and the injected head
   by (time, user), the source arrival winning an exact tie.  Sets *user
   and *injected and returns the arrival time. */
static double gw_pick(const double *pend, const i64 *heap,
                      const double *inj_t, const i64 *inj_u, i64 ii,
                      i64 inj_n, i64 *user, i64 *injected)
{
    i64 u = heap[0];
    double t = pend[u];
    if (ii < inj_n && (inj_t[ii] < t || (inj_t[ii] == t && inj_u[ii] < u))) {
        *user = inj_u[ii]; *injected = 1;
        return inj_t[ii];
    }
    *user = u; *injected = 0;
    return t;
}

/* Consume the picked arrival at time na: step past a handoff, or add
   the root user's next gap (the scalar now + draw()) and sift the root
   down (heapq.heapreplace on unique keys).  The caller has checked that
   a source user has a gap buffered. */
static void gw_take(double na, i64 injected, i64 *ii, double *pend,
                    i64 *heap, i64 n, const double *const *gaps,
                    i64 *gap_pos)
{
    i64 top, i;
    double t;
    if (injected) { (*ii)++; return; }
    top = heap[0];
    t = na + gaps[top][gap_pos[top]++];
    pend[top] = t;
    for (i = 0;;) {
        i64 c = 2 * i + 1, cu;
        if (c >= n) break;
        if (c + 1 < n && (pend[heap[c + 1]] < pend[heap[c]]
                          || (pend[heap[c + 1]] == pend[heap[c]]
                              && heap[c + 1] < heap[c])))
            c++;
        cu = heap[c];
        if (pend[cu] > t || (pend[cu] == t && cu > top)) break;
        heap[i] = cu;
        i = c;
    }
    heap[i] = top;
}

/* Arrivals already known to fall below the horizon: each user's chain
   pend[u] + gap + gap ... over its buffered block (the additions
   gw_take will make), plus the pending handoffs.  The loop processes
   every one of them before it stops. */
static i64 gw_known_arrivals(i64 n, const double *pend,
                             const double *const *gaps, const i64 *gap_pos,
                             const i64 *gap_len, const double *inj_t,
                             i64 ii, i64 inj_n, double horizon)
{
    i64 count = 0, u;
    for (u = 0; u < n; u++) {
        double t = pend[u];
        i64 p = gap_pos[u];
        while (t < horizon) {
            count++;
            if (p >= gap_len[u]) break;
            t = t + gaps[u][p++];
        }
    }
    for (; ii < inj_n && inj_t[ii] < horizon; ii++) count++;
    return count;
}

#define GW_TRACKER i64 *counts, double *fold_from, double *areas, \
    double *seg_acc, i64 *arr_acc, double *size_acc, i64 *deps, \
    double *soj_sums, i64 *soj_counts, double *rows, i64 row_cap
#define GW_ARRIVALS double *pend, i64 *heap, const double *const *gaps, \
    i64 *gap_pos, const i64 *gap_len, const double *inj_t, \
    const i64 *inj_u, i64 inj_n
#define GW_ADVANCE(t) gw_advance((t), fregs, iregs, n, counts, fold_from, \
    areas, seg_acc, arr_acc, size_acc, rows, row_cap)
#define GW_PICK() gw_pick(pend, heap, inj_t, inj_u, ii, inj_n, &u, &inj)
#define GW_TAKE(t) gw_take((t), inj, &ii, pend, heap, n, gaps, gap_pos)
#define GW_NO_GAP() (!inj && gap_pos[u] >= gap_len[u])

/* ---------------- memoryless FIFO ---------------- */

i64 gw_fifo_kernel(double *fregs, i64 *iregs, i64 n, GW_TRACKER,
                   GW_ARRIVALS, const double *service, i64 S,
                   i64 *q_user, double *q_time, i64 cap,
                   double *dep_time, i64 *dep_user, i64 dep_cap,
                   double horizon)
{
    double now = fregs[0], nc = fregs[2];
    i64 ii = iregs[3], si = iregs[4];
    i64 qh = iregs[7], qc = iregs[8];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 redraw = iregs[6];
    i64 mask = cap - 1;
    i64 dc = iregs[17];
    i64 reason = 0;
    for (;;) {
        double na;
        i64 u, inj;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = GW_PICK();
        if (na >= horizon && nc >= horizon) {
            reason = GW_ADVANCE(horizon);
            break;
        }
        if (na <= nc) {
            i64 slot;
            if (qc >= cap) { reason = 2; break; }
            if (GW_NO_GAP()) { iregs[19] = u; reason = 4; break; }
            if (GW_ADVANCE(na)) { reason = 3; break; }
            now = na;
            slot = (qh + qc) & mask;
            q_user[slot] = u;
            q_time[slot] = na;
            qc++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
            GW_TAKE(na);
        } else {
            double at;
            if (dep_cap && dc >= dep_cap) { reason = 6; break; }
            if (GW_ADVANCE(nc)) { reason = 3; break; }
            now = nc;
            u = q_user[qh];
            at = q_time[qh];
            qh = (qh + 1) & mask; qc--;
            nd++;
            gw_on_departure(u, now - at, fregs, counts, fold_from, areas,
                            seg_acc, deps, soj_sums, soj_counts);
            if (dep_cap) { dep_time[dc] = now; dep_user[dc] = u; dc++; }
        }
        if (qc == 0) nc = HUGE_VAL; else redraw = 1;
    }
    fregs[0] = now; fregs[2] = nc;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ii; iregs[4] = si;
    iregs[6] = redraw;
    iregs[7] = qh; iregs[8] = qc;
    iregs[9] = reason;
    iregs[17] = dc;
    return reason;
}

/* ---------------- linked-list FIFOs over a node pool ----------------
   The ladder's class queues and round robin's per-user queues: node_next
   chains both the lists and the free list (iregs[16]); node_aidx stamps
   arrival order. */

static void gw_list_push(i64 list, i64 u, double t, i64 aidx,
                         i64 *free_head, i64 *node_user,
                         double *node_time, i64 *node_next,
                         i64 *node_aidx, i64 *head, i64 *tail)
{
    i64 node = *free_head;
    *free_head = node_next[node];
    node_user[node] = u;
    node_time[node] = t;
    node_aidx[node] = aidx;
    node_next[node] = -1;
    if (head[list] < 0) head[list] = node;
    else node_next[tail[list]] = node;
    tail[list] = node;
}

/* Unlink the head of a nonempty list onto the free list; the returned
   node's fields stay readable until the next push. */
static i64 gw_list_pop(i64 list, i64 *free_head, i64 *node_next,
                       i64 *head, i64 *tail)
{
    i64 node = head[list];
    head[list] = node_next[node];
    if (head[list] < 0) tail[list] = -1;
    node_next[node] = *free_head;
    *free_head = node;
    return node;
}

/* ---------------- memoryless Fair Share priority ladder ----------------
   One thinning uniform per arrival, in arrival order.  When the block
   runs out the kernel returns 5 with the known-arrival count in
   iregs[20]: drawing exactly that many never draws past the scalar
   loop. */

i64 gw_ladder_kernel(double *fregs, i64 *iregs, i64 n, GW_TRACKER,
                     GW_ARRIVALS, const double *service, i64 S,
                     const double *uniforms, i64 U,
                     const double *cum, const i64 *cum_len, i64 K,
                     i64 *node_user, double *node_time, i64 *node_next,
                     i64 *node_aidx, i64 *class_head, i64 *class_tail,
                     double *dep_time, i64 *dep_user, i64 dep_cap,
                     double horizon)
{
    double now = fregs[0], nc = fregs[2];
    i64 ii = iregs[3], si = iregs[4], ui = iregs[5];
    i64 qc = iregs[8];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 redraw = iregs[6];
    i64 free_head = iregs[16];
    i64 aidx_ctr = iregs[11];
    i64 dc = iregs[17];
    i64 reason = 0;
    for (;;) {
        double na;
        i64 u, inj;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = GW_PICK();
        if (na >= horizon && nc >= horizon) {
            reason = GW_ADVANCE(horizon);
            break;
        }
        if (na <= nc) {
            i64 klass, j, L;
            const double *cu;
            double r;
            if (free_head < 0) { reason = 2; break; }
            if (GW_NO_GAP()) { iregs[19] = u; reason = 4; break; }
            if (ui >= U) {
                iregs[20] = gw_known_arrivals(n, pend, gaps, gap_pos,
                                              gap_len, inj_t, ii, inj_n,
                                              horizon);
                reason = 5; break;
            }
            if (GW_ADVANCE(na)) { reason = 3; break; }
            now = na;
            /* bisect_right over the user's cumulative thinning
               weights, exactly as FairShareLadderQueue._classify. */
            r = uniforms[ui++];
            cu = cum + u * K;
            L = cum_len[u];
            j = 0;
            while (j < L && cu[j] <= r) j++;
            klass = (j < L) ? j : L - 1;
            gw_list_push(klass, u, na, aidx_ctr++, &free_head, node_user,
                         node_time, node_next, node_aidx, class_head,
                         class_tail);
            qc++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
            GW_TAKE(na);
        } else {
            i64 k, node; double at;
            if (dep_cap && dc >= dep_cap) { reason = 6; break; }
            if (GW_ADVANCE(nc)) { reason = 3; break; }
            now = nc;
            for (k = 0; k < K; k++)
                if (class_head[k] >= 0) break;
            node = gw_list_pop(k, &free_head, node_next, class_head,
                               class_tail);
            u = node_user[node];
            at = node_time[node];
            qc--;
            nd++;
            gw_on_departure(u, now - at, fregs, counts, fold_from, areas,
                            seg_acc, deps, soj_sums, soj_counts);
            if (dep_cap) { dep_time[dc] = now; dep_user[dc] = u; dc++; }
        }
        if (qc == 0) nc = HUGE_VAL; else redraw = 1;
    }
    fregs[0] = now; fregs[2] = nc;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ii; iregs[4] = si; iregs[5] = ui;
    iregs[6] = redraw;
    iregs[8] = qc;
    iregs[9] = reason;
    iregs[11] = aidx_ctr;
    iregs[16] = free_head;
    iregs[17] = dc;
    return reason;
}

/* ---------------- memoryless round robin ----------------
   RoundRobinQueue: K per-user FIFO lists over the node pool, the cursor
   (iregs[18]) and the locked packet (iregs[12], iregs[13], fregs[7]),
   which leaves its list when it is locked.  qc counts the locked packet
   too, so qc == 0 exactly when nothing is locked. */

i64 gw_rr_kernel(double *fregs, i64 *iregs, i64 n, GW_TRACKER,
                 GW_ARRIVALS, const double *service, i64 S, i64 K,
                 i64 *node_user, double *node_time, i64 *node_next,
                 i64 *node_aidx, i64 *user_head, i64 *user_tail,
                 double horizon)
{
    double now = fregs[0], nc = fregs[2], locked_time = fregs[7];
    i64 ii = iregs[3], si = iregs[4];
    i64 qc = iregs[8];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 redraw = iregs[6];
    i64 aidx_ctr = iregs[11];
    i64 locked_user = iregs[12], locked_aidx = iregs[13];
    i64 free_head = iregs[16];
    i64 cursor = iregs[18];
    i64 reason = 0;
    for (;;) {
        double na;
        i64 u, inj, k;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = GW_PICK();
        if (na >= horizon && nc >= horizon) {
            reason = GW_ADVANCE(horizon);
            break;
        }
        if (na <= nc) {
            if (free_head < 0) { reason = 2; break; }
            if (GW_NO_GAP()) { iregs[19] = u; reason = 4; break; }
            if (GW_ADVANCE(na)) { reason = 3; break; }
            now = na;
            gw_list_push(u, u, na, aidx_ctr++, &free_head, node_user,
                         node_time, node_next, node_aidx, user_head,
                         user_tail);
            qc++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
            GW_TAKE(na);
        } else {
            double at = locked_time;
            if (GW_ADVANCE(nc)) { reason = 3; break; }
            u = locked_user;
            now = nc;
            locked_user = -1;
            qc--;
            nd++;
            gw_on_departure(u, now - at, fregs, counts, fold_from, areas,
                            seg_acc, deps, soj_sums, soj_counts);
        }
        /* RoundRobinQueue._lock_next */
        if (locked_user < 0)
            for (k = 0; k < K; k++) {
                i64 idx = (cursor + k) % K;
                if (user_head[idx] >= 0) {
                    i64 node = gw_list_pop(idx, &free_head, node_next,
                                           user_head, user_tail);
                    locked_user = node_user[node];
                    locked_time = node_time[node];
                    locked_aidx = node_aidx[node];
                    cursor = (idx + 1) % K;
                    break;
                }
            }
        if (qc == 0) nc = HUGE_VAL; else redraw = 1;
    }
    fregs[0] = now; fregs[2] = nc; fregs[7] = locked_time;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ii; iregs[4] = si;
    iregs[6] = redraw;
    iregs[8] = qc;
    iregs[9] = reason;
    iregs[11] = aidx_ctr;
    iregs[12] = locked_user; iregs[13] = locked_aidx;
    iregs[16] = free_head;
    iregs[18] = cursor;
    return reason;
}

/* ---------------- sized Start-time Fair Queueing ----------------
   Binary min-heap over (start tag, packet order), mirroring heapq's
   tuple comparison; order indices are unique so pop order is exactly
   the scalar heap's. */

static void sfq_heap_push(i64 hs, double start, i64 aidx, i64 user,
                          double time, double size, double *h_start,
                          i64 *h_aidx, i64 *h_user, double *h_time,
                          double *h_size)
{
    i64 i = hs;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (h_start[parent] < start
            || (h_start[parent] == start && h_aidx[parent] < aidx))
            break;
        h_start[i] = h_start[parent]; h_aidx[i] = h_aidx[parent];
        h_user[i] = h_user[parent]; h_time[i] = h_time[parent];
        h_size[i] = h_size[parent];
        i = parent;
    }
    h_start[i] = start; h_aidx[i] = aidx; h_user[i] = user;
    h_time[i] = time; h_size[i] = size;
}

static void sfq_heap_pop(i64 hs, double *h_start, i64 *h_aidx, i64 *h_user,
                         double *h_time, double *h_size)
{
    /* Caller reads the root first; hs is the size *after* removal. */
    double start = h_start[hs]; i64 aidx = h_aidx[hs];
    i64 user = h_user[hs]; double time = h_time[hs], size = h_size[hs];
    i64 i = 0;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= hs) break;
        if (child + 1 < hs
            && (h_start[child + 1] < h_start[child]
                || (h_start[child + 1] == h_start[child]
                    && h_aidx[child + 1] < h_aidx[child])))
            child++;
        if (h_start[child] < start
            || (h_start[child] == start && h_aidx[child] < aidx)) {
            h_start[i] = h_start[child]; h_aidx[i] = h_aidx[child];
            h_user[i] = h_user[child]; h_time[i] = h_time[child];
            h_size[i] = h_size[child];
            i = child;
        } else break;
    }
    h_start[i] = start; h_aidx[i] = aidx; h_user[i] = user;
    h_time[i] = time; h_size[i] = size;
}

i64 gw_sfq_kernel(double *fregs, i64 *iregs, i64 n, GW_TRACKER,
                  GW_ARRIVALS, const double *service, i64 S,
                  const double *weights, double *finish_tags,
                  double *h_start, i64 *h_aidx, i64 *h_user,
                  double *h_time, double *h_size, i64 hcap,
                  double horizon)
{
    double now = fregs[0], nc = fregs[2];
    double vt = fregs[6];
    double locked_time = fregs[7], locked_size = fregs[8];
    i64 ii = iregs[3], si = iregs[4];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 aidx_ctr = iregs[11];
    i64 locked_user = iregs[12], locked_aidx = iregs[13];
    i64 serving_aidx = iregs[14];
    i64 hs = iregs[15];
    i64 reason = 0;
    for (;;) {
        i64 u, inj;
        double na = GW_PICK();
        if (na >= horizon && nc >= horizon) {
            reason = GW_ADVANCE(horizon);
            break;
        }
        if (na <= nc) {
            i64 aidx; double size, start;
            if (si >= S) { reason = 1; break; }
            if (hs >= hcap) { reason = 2; break; }
            if (GW_NO_GAP()) { iregs[19] = u; reason = 4; break; }
            if (GW_ADVANCE(na)) { reason = 3; break; }
            now = na;
            size = service[si++];
            start = vt;
            if (finish_tags[u] > start) start = finish_tags[u];
            finish_tags[u] = start + size / weights[u];
            aidx = aidx_ctr++;
            if (locked_user < 0) {
                locked_user = u; locked_time = na;
                locked_size = size; locked_aidx = aidx;
                vt = start;
            } else {
                sfq_heap_push(hs, start, aidx, u, na, size, h_start,
                              h_aidx, h_user, h_time, h_size);
                hs++;
            }
            na_count++;
            gw_on_arrival(u, size, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
            GW_TAKE(na);
        } else {
            double at = locked_time;
            if (GW_ADVANCE(nc)) { reason = 3; break; }
            u = locked_user;
            now = nc;
            if (hs > 0) {
                vt = h_start[0];
                locked_aidx = h_aidx[0];
                locked_user = h_user[0];
                locked_time = h_time[0];
                locked_size = h_size[0];
                hs--;
                if (hs > 0)
                    sfq_heap_pop(hs, h_start, h_aidx, h_user, h_time,
                                 h_size);
            } else locked_user = -1;
            nd++;
            gw_on_departure(u, now - at, fregs, counts, fold_from, areas,
                            seg_acc, deps, soj_sums, soj_counts);
        }
        if (locked_user < 0) { nc = HUGE_VAL; serving_aidx = -1; }
        else if (locked_aidx != serving_aidx) {
            nc = now + locked_size;
            serving_aidx = locked_aidx;
        }
    }
    fregs[0] = now; fregs[2] = nc;
    fregs[6] = vt; fregs[7] = locked_time; fregs[8] = locked_size;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ii; iregs[4] = si;
    iregs[9] = reason;
    iregs[11] = aidx_ctr;
    iregs[12] = locked_user; iregs[13] = locked_aidx;
    iregs[14] = serving_aidx;
    iregs[15] = hs;
    return reason;
}
"""

# Array arguments travel as plain addresses (see ``address``): ctypes
# converts a ``c_void_p`` integer about twice as fast as a typed
# pointer object, and a run may enter a kernel thousands of times.
_F64 = _I64 = ctypes.c_void_p

_I = ctypes.c_longlong
#: Shared argument prefix: register banks and n, the tracker arrays and
#: batch matrix, the arrival input, the service block.
_PREFIX = [
    _F64, _I64, _I,
    _I64, _F64, _F64, _F64, _I64, _F64, _I64, _F64, _I64, _F64, _I,
    _F64, _I64, ctypes.c_void_p, _I64, _I64, _F64, _I64, _I,
    _F64, _I,
]
_POOL = [_I64, _F64, _I64, _I64, _I64, _I64]
_DEP_LOG = [_F64, _I64, _I]

_SIGNATURES = {
    "gw_fifo_kernel": _PREFIX + [_I64, _F64, _I] + _DEP_LOG
    + [ctypes.c_double],
    "gw_ladder_kernel": _PREFIX + [_F64, _I, _F64, _I64, _I] + _POOL
    + _DEP_LOG + [ctypes.c_double],
    "gw_rr_kernel": _PREFIX + [_I] + _POOL + [ctypes.c_double],
    "gw_sfq_kernel": _PREFIX + [_F64, _F64, _F64, _I64, _I64, _F64, _F64,
                                _I, ctypes.c_double],
}

_DOUBLE = np.dtype(np.float64)
_INT64 = np.dtype(np.int64)

_lib: Optional[ctypes.CDLL] = None
_load_failed = False


def kernel_dir() -> str:
    """Directory holding compiled kernel objects."""
    return os.environ.get(ENV_KERNEL_DIR) or os.path.join(
        os.getcwd(), ".greedwork_cache", "kernels")


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build(so_path: str) -> bool:
    """Compile the kernel source to ``so_path`` (atomic, best-effort).

    ``-ffp-contract=off`` matters: a fused multiply-add in the fold
    arithmetic would round differently from the Python backend and
    break bit-identity.
    """
    compiler = _compiler()
    if compiler is None:
        return False
    directory = os.path.dirname(so_path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(dir=directory, suffix=".c")
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        try:
            proc = subprocess.run(
                [compiler, "-O2", "-std=c99", "-fPIC", "-shared",
                 "-ffp-contract=off", "-o", tmp_so, c_path],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return False
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def load_kernels() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns ``None`` (and remembers the failure for the process) when
    no compiler is available or the build fails — the chunked backend
    then falls back to the scalar engine.
    """
    # greedwork: ignore[GW601] -- per-process memo of an immutable
    # build artifact; workers rebuild/load independently and the .so
    # cache on disk dedupes the compile.
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    so_path = os.path.join(kernel_dir(), f"gw-{digest}.so")
    if not os.path.exists(so_path) and not _build(so_path):
        _load_failed = True
        return None
    try:
        lib = ctypes.CDLL(so_path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_longlong
    except (OSError, AttributeError):
        _load_failed = True
        return None
    _lib = lib
    return _lib


def kernels_available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    return load_kernels() is not None


def address(array: np.ndarray, dtype: np.dtype) -> int:
    """The data address of ``array``, checked C-contiguous ``dtype``."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"kernel arrays must be C-contiguous {dtype}; got "
            f"{array.dtype}, contiguous={array.flags.c_contiguous}")
    return array.ctypes.data


def f64_ptr(array: np.ndarray) -> int:
    """The address of a C-contiguous float64 array."""
    return address(array, _DOUBLE)


def i64_ptr(array: np.ndarray) -> int:
    """The address of a C-contiguous int64 array."""
    return address(array, _INT64)
