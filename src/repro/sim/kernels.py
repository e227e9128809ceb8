"""Compiled C event kernels behind the chunked engine backend.

The chunked backend (:mod:`repro.sim.chunked`) splits a run into
chunks bounded by variate-block refills, prepares each chunk's inputs
as numpy arrays (merged arrival ladders, service blocks, thinning
uniforms), and hands the per-event race to one of four compiled
kernels:

* ``gw_fifo_kernel`` — memoryless FIFO;
* ``gw_ladder_kernel`` — the memoryless preemptive Fair Share
  priority ladder (per-arrival Poisson thinning);
* ``gw_rr_kernel`` — memoryless round robin (per-user polling);
* ``gw_sfq_kernel`` — sized Start-time Fair Queueing.

The ladder and round robin keep their FIFO lists in one shared node
pool (``gw_list_push``/``gw_list_pop``).

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
State travels in two register banks plus per-user arrays, all numpy
buffers owned by the Python side:

``fregs`` (float64): 0 now, 1 tracker last_time, 2 next_completion,
3 next batch boundary, 4 batch quota, 5 warmup, 6 SFQ virtual time,
7 locked packet arrival time, 8 locked packet size.

``iregs`` (int64): 0 n_arrivals, 1 n_departures, 2 boundary index,
3 arrival cursor, 4 service cursor, 5 uniform cursor, 6 redraw
pending, 7 queue head, 8 queue count, 9 return reason, 10 segments
emitted, 11 packet-order counter, 12 locked user, 13 locked order,
14 serving order, 15 heap size, 16 free-list head, 17 departure-log
cursor (the FIFO and ladder kernels append ``(time, user)``
departures when ``dep_cap > 0`` — the sharded multi-switch handoff
channel; ``dep_cap = 0`` disables logging and the single-switch
engine runs with it off), 18 round-robin cursor.  Round robin's
locked packet uses the SFQ locked slots (iregs 12 and 13, fregs 7).

Return reasons: 0 chunk done, 1 service block exhausted (refill and
re-enter), 2 queue/heap capacity reached (grow and re-enter),
3 segment buffer overflow (a bug: the orchestrator sizes it from the
chunk bound).
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
(I_ARRIVALS, I_DEPARTURES, I_BIDX, I_AI, I_SI, I_UI, I_REDRAW,
 I_QHEAD, I_QCOUNT, I_REASON, I_NSEG, I_AIDX, I_LOCKED_USER,
 I_LOCKED_AIDX, I_SERVING_AIDX, I_HEAP_SIZE, I_FREE_HEAD,
 I_DEP, I_CURSOR) = range(19)
IREGS = 24

#: Return reasons.
DONE, NEED_SERVICE, GROW, SEGCAP = 0, 1, 2, 3

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

/* QueueTracker.advance: cross batch boundaries, then move the clock.
   Returns 0, or 3 when the segment output buffer would overflow. */
static i64 gw_advance(double now, double *fregs, i64 *iregs, i64 n,
                      i64 *counts, double *fold_from, double *areas,
                      double *seg_acc, i64 *arr_acc, double *size_acc,
                      double *seg_areas_out, i64 *seg_arr_out,
                      double *seg_size_out, i64 max_seg)
{
    double boundary = fregs[3];
    while (now >= boundary - 1e-9) {
        i64 ns = iregs[10];
        i64 u;
        if (ns >= max_seg) { iregs[9] = 3; return 3; }
        for (u = 0; u < n; u++)
            gw_fold(u, boundary, counts, fold_from, areas, seg_acc);
        for (u = 0; u < n; u++) {
            seg_areas_out[ns * n + u] = seg_acc[u];
            seg_acc[u] = 0.0;
        }
        for (u = 0; u < n; u++) {
            seg_arr_out[ns * n + u] = arr_acc[u];
            arr_acc[u] = 0;
        }
        for (u = 0; u < n; u++) {
            seg_size_out[ns * n + u] = size_acc[u];
            size_acc[u] = 0.0;
        }
        iregs[10] = ns + 1;
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

/* ---------------- memoryless FIFO ---------------- */

i64 gw_fifo_kernel(double *fregs, i64 *iregs, i64 n,
                   i64 *counts, double *fold_from, double *areas,
                   double *seg_acc, i64 *arr_acc, double *size_acc,
                   i64 *deps, double *soj_sums, i64 *soj_counts,
                   double *seg_areas_out, i64 *seg_arr_out,
                   double *seg_size_out, i64 max_seg,
                   const double *arr_times, const i64 *arr_users, i64 A,
                   const double *service, i64 S,
                   i64 *q_user, double *q_time, i64 cap,
                   double *dep_time, i64 *dep_user, i64 dep_cap,
                   double t_c, i64 finalize, double horizon)
{
    double now = fregs[0], nc = fregs[2];
    i64 ai = iregs[3], si = iregs[4];
    i64 qh = iregs[7], qc = iregs[8];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 redraw = iregs[6];
    i64 mask = cap - 1;
    i64 dc = iregs[17];
    i64 reason = 0;
    for (;;) {
        double na;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = (ai < A) ? arr_times[ai] : HUGE_VAL;
        if (na >= t_c && nc >= t_c) {
            if (finalize)
                if (gw_advance(horizon, fregs, iregs, n, counts, fold_from,
                               areas, seg_acc, arr_acc, size_acc,
                               seg_areas_out, seg_arr_out, seg_size_out,
                               max_seg)) { reason = 3; break; }
            reason = 0; break;
        }
        if (na <= nc) {
            i64 u, slot;
            if (qc >= cap) { reason = 2; break; }
            if (gw_advance(na, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
            now = na;
            u = arr_users[ai];
            slot = (qh + qc) & mask;
            q_user[slot] = u;
            q_time[slot] = na;
            qc++; ai++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
        } else {
            i64 u; double at;
            if (gw_advance(nc, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
            now = nc;
            u = q_user[qh];
            at = q_time[qh];
            qh = (qh + 1) & mask; qc--;
            nd++;
            gw_on_departure(u, now - at, fregs, counts, fold_from, areas,
                            seg_acc, deps, soj_sums, soj_counts);
            if (dep_cap) {
                if (dc >= dep_cap) { reason = 3; break; }
                dep_time[dc] = now; dep_user[dc] = u; dc++;
            }
        }
        if (qc == 0) nc = HUGE_VAL; else redraw = 1;
    }
    fregs[0] = now; fregs[2] = nc;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ai; iregs[4] = si;
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

/* ---------------- memoryless Fair Share priority ladder ---------------- */

i64 gw_ladder_kernel(double *fregs, i64 *iregs, i64 n,
                     i64 *counts, double *fold_from, double *areas,
                     double *seg_acc, i64 *arr_acc, double *size_acc,
                     i64 *deps, double *soj_sums, i64 *soj_counts,
                     double *seg_areas_out, i64 *seg_arr_out,
                     double *seg_size_out, i64 max_seg,
                     const double *arr_times, const i64 *arr_users, i64 A,
                     const double *service, i64 S,
                     const double *uniforms,
                     const double *cum, const i64 *cum_len, i64 K,
                     i64 *node_user, double *node_time, i64 *node_next,
                     i64 *node_aidx, i64 *class_head, i64 *class_tail,
                     double *dep_time, i64 *dep_user, i64 dep_cap,
                     double t_c, i64 finalize, double horizon)
{
    double now = fregs[0], nc = fregs[2];
    i64 ai = iregs[3], si = iregs[4], ui = iregs[5];
    i64 qc = iregs[8];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 redraw = iregs[6];
    i64 free_head = iregs[16];
    i64 aidx_ctr = iregs[11];
    i64 dc = iregs[17];
    i64 reason = 0;
    for (;;) {
        double na;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = (ai < A) ? arr_times[ai] : HUGE_VAL;
        if (na >= t_c && nc >= t_c) {
            if (finalize)
                if (gw_advance(horizon, fregs, iregs, n, counts, fold_from,
                               areas, seg_acc, arr_acc, size_acc,
                               seg_areas_out, seg_arr_out, seg_size_out,
                               max_seg)) { reason = 3; break; }
            reason = 0; break;
        }
        if (na <= nc) {
            i64 u, klass, j, L;
            const double *cu;
            double r;
            if (free_head < 0) { reason = 2; break; }
            if (gw_advance(na, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
            now = na;
            u = arr_users[ai];
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
            qc++; ai++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
        } else {
            i64 u, k, node; double at;
            if (gw_advance(nc, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
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
            if (dep_cap) {
                if (dc >= dep_cap) { reason = 3; break; }
                dep_time[dc] = now; dep_user[dc] = u; dc++;
            }
        }
        if (qc == 0) nc = HUGE_VAL; else redraw = 1;
    }
    fregs[0] = now; fregs[2] = nc;
    iregs[0] = na_count; iregs[1] = nd;
    iregs[3] = ai; iregs[4] = si; iregs[5] = ui;
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

i64 gw_rr_kernel(double *fregs, i64 *iregs, i64 n,
                 i64 *counts, double *fold_from, double *areas,
                 double *seg_acc, i64 *arr_acc, double *size_acc,
                 i64 *deps, double *soj_sums, i64 *soj_counts,
                 double *seg_areas_out, i64 *seg_arr_out,
                 double *seg_size_out, i64 max_seg,
                 const double *arr_times, const i64 *arr_users, i64 A,
                 const double *service, i64 S, i64 K,
                 i64 *node_user, double *node_time, i64 *node_next,
                 i64 *node_aidx, i64 *user_head, i64 *user_tail,
                 double t_c, i64 finalize, double horizon)
{
    double now = fregs[0], nc = fregs[2], locked_time = fregs[7];
    i64 ai = iregs[3], si = iregs[4];
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
        i64 k;
        if (redraw) {
            if (si >= S) { reason = 1; break; }
            nc = now + service[si++];
            redraw = 0;
        }
        na = (ai < A) ? arr_times[ai] : HUGE_VAL;
        if (na >= t_c && nc >= t_c) {
            if (finalize)
                if (gw_advance(horizon, fregs, iregs, n, counts, fold_from,
                               areas, seg_acc, arr_acc, size_acc,
                               seg_areas_out, seg_arr_out, seg_size_out,
                               max_seg)) { reason = 3; break; }
            reason = 0; break;
        }
        if (na <= nc) {
            i64 u;
            if (free_head < 0) { reason = 2; break; }
            if (gw_advance(na, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
            now = na;
            u = arr_users[ai];
            gw_list_push(u, u, na, aidx_ctr++, &free_head, node_user,
                         node_time, node_next, node_aidx, user_head,
                         user_tail);
            qc++; ai++;
            na_count++;
            gw_on_arrival(u, 0.0, fregs, counts, fold_from, areas, seg_acc,
                          arr_acc, size_acc);
        } else {
            i64 u = locked_user; double at = locked_time;
            if (gw_advance(nc, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
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
    iregs[3] = ai; iregs[4] = si;
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

i64 gw_sfq_kernel(double *fregs, i64 *iregs, i64 n,
                  i64 *counts, double *fold_from, double *areas,
                  double *seg_acc, i64 *arr_acc, double *size_acc,
                  i64 *deps, double *soj_sums, i64 *soj_counts,
                  double *seg_areas_out, i64 *seg_arr_out,
                  double *seg_size_out, i64 max_seg,
                  const double *arr_times, const i64 *arr_users, i64 A,
                  const double *service, i64 S,
                  const double *weights, double *finish_tags,
                  double *h_start, i64 *h_aidx, i64 *h_user,
                  double *h_time, double *h_size, i64 hcap,
                  double t_c, i64 finalize, double horizon)
{
    double now = fregs[0], nc = fregs[2];
    double vt = fregs[6];
    double locked_time = fregs[7], locked_size = fregs[8];
    i64 ai = iregs[3], si = iregs[4];
    i64 na_count = iregs[0], nd = iregs[1];
    i64 aidx_ctr = iregs[11];
    i64 locked_user = iregs[12], locked_aidx = iregs[13];
    i64 serving_aidx = iregs[14];
    i64 hs = iregs[15];
    i64 reason = 0;
    for (;;) {
        double na = (ai < A) ? arr_times[ai] : HUGE_VAL;
        if (na >= t_c && nc >= t_c) {
            if (finalize)
                if (gw_advance(horizon, fregs, iregs, n, counts, fold_from,
                               areas, seg_acc, arr_acc, size_acc,
                               seg_areas_out, seg_arr_out, seg_size_out,
                               max_seg)) { reason = 3; break; }
            reason = 0; break;
        }
        if (na <= nc) {
            i64 u, aidx; double size, start;
            if (si >= S) { reason = 1; break; }
            if (hs >= hcap) { reason = 2; break; }
            if (gw_advance(na, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
            now = na;
            size = service[si++];
            u = arr_users[ai]; ai++;
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
        } else {
            i64 u = locked_user; double at = locked_time;
            if (gw_advance(nc, fregs, iregs, n, counts, fold_from, areas,
                           seg_acc, arr_acc, size_acc, seg_areas_out,
                           seg_arr_out, seg_size_out, max_seg)) {
                reason = 3; break; }
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
    iregs[3] = ai; iregs[4] = si;
    iregs[9] = reason;
    iregs[11] = aidx_ctr;
    iregs[12] = locked_user; iregs[13] = locked_aidx;
    iregs[14] = serving_aidx;
    iregs[15] = hs;
    return reason;
}
"""

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_longlong)

_SIGNATURES = {
    "gw_fifo_kernel": [
        _F64, _I64, ctypes.c_longlong,
        _I64, _F64, _F64, _F64, _I64, _F64, _I64, _F64, _I64,
        _F64, _I64, _F64, ctypes.c_longlong,
        _F64, _I64, ctypes.c_longlong,
        _F64, ctypes.c_longlong,
        _I64, _F64, ctypes.c_longlong,
        _F64, _I64, ctypes.c_longlong,
        ctypes.c_double, ctypes.c_longlong, ctypes.c_double,
    ],
    "gw_ladder_kernel": [
        _F64, _I64, ctypes.c_longlong,
        _I64, _F64, _F64, _F64, _I64, _F64, _I64, _F64, _I64,
        _F64, _I64, _F64, ctypes.c_longlong,
        _F64, _I64, ctypes.c_longlong,
        _F64, ctypes.c_longlong,
        _F64,
        _F64, _I64, ctypes.c_longlong,
        _I64, _F64, _I64, _I64, _I64, _I64,
        _F64, _I64, ctypes.c_longlong,
        ctypes.c_double, ctypes.c_longlong, ctypes.c_double,
    ],
    "gw_rr_kernel": [
        _F64, _I64, ctypes.c_longlong,
        _I64, _F64, _F64, _F64, _I64, _F64, _I64, _F64, _I64,
        _F64, _I64, _F64, ctypes.c_longlong,
        _F64, _I64, ctypes.c_longlong,
        _F64, ctypes.c_longlong, ctypes.c_longlong,
        _I64, _F64, _I64, _I64, _I64, _I64,
        ctypes.c_double, ctypes.c_longlong, ctypes.c_double,
    ],
    "gw_sfq_kernel": [
        _F64, _I64, ctypes.c_longlong,
        _I64, _F64, _F64, _F64, _I64, _F64, _I64, _F64, _I64,
        _F64, _I64, _F64, ctypes.c_longlong,
        _F64, _I64, ctypes.c_longlong,
        _F64, ctypes.c_longlong,
        _F64, _F64,
        _F64, _I64, _I64, _F64, _F64, ctypes.c_longlong,
        ctypes.c_double, ctypes.c_longlong, ctypes.c_double,
    ],
}

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


def f64_ptr(array: np.ndarray):
    """A ctypes double pointer over a contiguous float64 array."""
    return array.ctypes.data_as(_F64)


def i64_ptr(array: np.ndarray):
    """A ctypes long-long pointer over a contiguous int64 array."""
    return array.ctypes.data_as(_I64)
