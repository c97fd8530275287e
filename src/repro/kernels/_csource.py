"""C source for the cffi kernel provider.

One translation unit, compiled with plain ``-O2 -ffp-contract=off``
(never ``-ffast-math``: the offset computation ``(i64)(u * (double)deg)``
and the CTU clock divisor ``(double)k * rate`` must be the same IEEE
double operations the numpy path performs, or the bit-identity contract of
:mod:`repro.kernels` breaks).  The functions mirror, line for
line, the numpy round bodies in :mod:`repro.core.batched` and the scalar
micro-loops in ``_finish_parallel_rep`` / ``_finish_sequential_rep`` /
:mod:`repro.walks.single`, the tick loops of ``ctu_idla`` /
``uniform_idla`` and the round loops of ``parallel_idla`` — every
behavioural quirk (the *unclamped* ``int(u * deg)`` of the scalar loops,
the clamped vector step, the draw order around the budget checks) is
deliberate and pinned by ``tests/test_differential_drivers.py``.

The walk loops (``repro_finish_par1``, ``repro_walk_fill``,
``repro_walk_hit``) consume uniforms from a caller-provided buffer and
return ``0`` when it runs dry; the Python wrapper refills (see
``KernelSet`` in the package root) in the serial drivers' block cadence
wherever a later consumer reads the generator, so those fetch positions
stay on the serial grid.  The four per-repetition loops
(``repro_finish_seq``, ``repro_run_parallel``, ``repro_run_ctu``,
``repro_run_uniform``) instead draw their own doubles from numpy's
``bitgen_t`` (``numpy/random/bitgen.h``, declared here with the same
layout), one ``next_double`` call per double, so the generator ends
right after the last double consumed.  The tick loops need
``log1p(-u)`` of some doubles (CTU's clock, Uniform's geometric skip),
which C never takes: they write those doubles to a *log lane* with their
divisors, and the wrapper folds the lane with numpy's ``log1p`` when it
fills (status ``3``) or the repetition ends.  ``repro_finish_seq`` runs
every repetition of a shard in one call, ``REPRO_LANES`` of them in
flight round-robin, each with its own ``bitgen_t``, state row and event
sink: the CPU overlaps their dependent steps, and every repetition's
draws and updates stay those of the loop run on its own.

The four per-repetition loops (``repro_finish_seq``, ``repro_run_ctu``,
``repro_run_uniform``, ``repro_run_parallel``) take an optional *event
sink* per repetition: an ``int`` array of ``cap`` ``(particle,
vertex)`` pairs, ``NULL`` when the run does not record.  Each
particle-step (holds included) appends one pair -- the shape the serial
drivers record.  Before a step
or round that would overflow a sink the loop returns ``2`` ("sink
full"); the wrapper keeps the filled sink and re-enters with an empty
one.  ``repro_scatter_events`` groups the events by particle afterwards,
and ``repro_prefix_bitgen`` makes a ``bitgen_t`` that serves a fixed
array of doubles before those of another ``bitgen_t``: the leftover of
a lock-step stream row, or (with none behind it) the load-time
self-check's fixed draws.
"""

from __future__ import annotations

#: Prototypes for ``cffi.FFI.cdef`` — keep in sync with :data:`C_SOURCE`.
CDEF = """
typedef long long i64;
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
typedef struct {
    const double *buf; i64 n; i64 i; bitgen_t *rest;
} repro_prefix_rng;
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k);
i64 repro_vacant(const unsigned char *occ, const i64 *rep_off,
                 const i64 *pos, i64 k, i64 *out);
i64 repro_settle_round(const unsigned char *occ, const i64 *rep,
                       const i64 *pos, const i64 *prio, i64 k, i64 n,
                       i64 *best, i64 *touched, i64 *winners);
i64 repro_finish_seq(const i64 *indptr, const i64 *indices,
                     unsigned char *occ, const i64 *starts, i64 *steps,
                     i64 *settled, const uintptr_t *bgs, i64 *state, i64 R,
                     i64 n, i64 m, i64 lazy, double budget,
                     const uintptr_t *evs, const i64 *caps, i64 *which);
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, i64 guard, double budget);
i64 repro_walk_fill(const i64 *indptr, const i64 *indices, i64 *out,
                    i64 steps, const double *buf, i64 nbuf, i64 *state);
i64 repro_walk_hit(const i64 *indptr, const i64 *indices,
                   const unsigned char *hit, const double *buf, i64 nbuf,
                   i64 *state, double limit);
i64 repro_run_ctu(const i64 *indptr, const i64 *indices, unsigned char *occ,
                  i64 *pool, i64 *pos, i64 *steps, i64 *settled,
                  double *sclock, i64 *order, bitgen_t *bg, double *lane,
                  i64 lane_cap, i64 *state, double rate, int *ev, i64 cap);
i64 repro_run_uniform(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, i64 *pool, i64 *pos, i64 *steps,
                      i64 *settled, i64 *order, bitgen_t *bg, double *lane,
                      i64 lane_cap, const double *logq, i64 pool_size,
                      i64 *state, double budget, int *ev, i64 cap);
i64 repro_run_parallel(const i64 *indptr, const i64 *indices,
                       unsigned char *occ, i64 *act, i64 *pos,
                       const i64 *prio, i64 *best, i64 *steps,
                       i64 *settled, i64 *round, bitgen_t *bg,
                       double *hold, i64 m, i64 n, i64 *state, i64 lazy,
                       i64 thr, double budget, int *ev, i64 cap);
void repro_scatter_events(const int *ev, i64 nev, i64 *cursor, int *flat);
void repro_prefix_bitgen(bitgen_t *bg, repro_prefix_rng *a);
"""

C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>

typedef long long i64;

/* numpy's bitgen_t (numpy/random/bitgen.h), field for field. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Append the event (particle p, vertex v) to the event sink `ev` of the
 * enclosing loop (NULL when it does not record); `nev` counts events. */
#define REPRO_EVENT(p, v) do { if (ev) { \
    ev[2 * nev] = (int)(p); ev[2 * nev + 1] = (int)(v); nev++; } } while (0)

/* Fused CSR step: deg gather, offset truncation, clamp, slot gather.
 * Bit-identical to the numpy chain
 *     deg = indptr[pos+1]-indptr[pos]; off = (u*deg).astype(int64);
 *     minimum(off, deg-1); indices[indptr[pos]+off]
 * Negative u (the lazy drivers pass 2*(u-0.5) for *hold* walkers whose
 * result is discarded by `where`) clamps to slot 0 instead of numpy's
 * harmless wraparound gather -- any in-range slot works, OOB does not. */
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k)
{
    for (i64 i = 0; i < k; i++) {
        i64 p = pos[i];
        i64 s = indptr[p];
        i64 d = indptr[p + 1] - s;
        i64 off = (i64)(u[i] * (double)d);
        if (off > d - 1) off = d - 1;
        if (off < 0) off = 0;
        out[i] = indices[s + off];
    }
}

/* Occupancy probe: indices i with occ[rep_off[i] + pos[i]] == 0,
 * ascending -- what flatnonzero returns, in one pass with no transients. */
i64 repro_vacant(const unsigned char *occ, const i64 *rep_off,
                 const i64 *pos, i64 k, i64 *out)
{
    i64 c = 0;
    for (i64 i = 0; i < k; i++)
        if (!occ[rep_off[i] + pos[i]]) out[c++] = i;
    return c;
}

static int repro_cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Fused probe + per-(repetition, vertex) contest of one settlement round.
 * Walkers arrive grouped by repetition ascending (the flat-state
 * invariant), so one n-cell scratch `best` (persistently -1) serves all
 * repetitions.  Winner = smallest priority per vacant cell, first
 * occurrence on ties (matches the stable lexsort of select_settlers);
 * winners are emitted ordered by (repetition, vertex), i.e. by the
 * lexsort's key.  Scratch cells are restored to -1 before returning. */
i64 repro_settle_round(const unsigned char *occ, const i64 *rep,
                       const i64 *pos, const i64 *prio, i64 k, i64 n,
                       i64 *best, i64 *touched, i64 *winners)
{
    i64 total = 0, i = 0;
    while (i < k) {
        i64 r = rep[i], off = r * n, j = i, nt = 0;
        for (; j < k && rep[j] == r; j++) {
            i64 v = pos[j];
            if (occ[off + v]) continue;
            i64 b = best[v];
            if (b < 0) { touched[nt++] = v; best[v] = j; }
            else if (prio[j] < prio[b]) best[v] = j;
        }
        qsort(touched, (size_t)nt, sizeof(i64), repro_cmp_i64);
        for (i64 q = 0; q < nt; q++) {
            winners[total++] = best[touched[q]];
            best[touched[q]] = -1;
        }
        i = j;
    }
    return total;
}

/* Repetitions repro_finish_seq keeps in flight.  Each step is a chain of
 * dependent operations (the draw, the CSR gathers, the occupancy probe);
 * repetitions are independent, so stepping several in turn lets the CPU
 * overlap their chains.  On a 2-core x86-64 Xeon VM, 2, 4 and 8 lanes
 * all took about 7 ns a step on the 96-cycle, one repetition at a time
 * 11 ns. */
#define REPRO_LANES 4

/* Per-repetition state row of repro_finish_seq. */
enum { SEQ_PARTICLE, SEQ_POS, SEQ_T, SEQ_TOTAL, SEQ_EVENTS, SEQ_STATE };

/* One lane: a repetition in flight, with its rows and its draw source. */
typedef struct {
    i64 r, particle, pos, t, total, nev, cap;
    double (*next)(void *);
    void *st;
    unsigned char *occ;
    const i64 *starts;
    i64 *steps, *settled;
    int *ev;
} repro_seq_lane;

static void repro_seq_save(i64 *state, const repro_seq_lane *L)
{
    i64 *row = state + L->r * SEQ_STATE;
    row[SEQ_PARTICLE] = L->particle;
    row[SEQ_POS] = L->pos;
    row[SEQ_T] = L->t;
    row[SEQ_TOTAL] = L->total;
    row[SEQ_EVENTS] = L->nev;
}

/* One pass of repro_finish_seq: each of the *nl lanes takes one step.  A
 * lane whose repetition settles its last particle writes its state row
 * back and hands its slot to the last lane.  Returns 0, or the status
 * that stops the loop (repetition *which).  `rec` and `lz` are constants
 * at each call site, so the unrecorded pass carries no sink tests and
 * the simple one no hold test. */
static inline __attribute__((always_inline)) i64
repro_seq_pass(repro_seq_lane *lane, i64 *nl, const i64 *indptr,
               const i64 *indices, i64 *state, i64 m, double budget,
               i64 *which, const int rec, const int lz)
{
    for (i64 l = 0; l < *nl; l++) {
        repro_seq_lane *L = &lane[l];
        int *ev = L->ev;
        i64 nev = L->nev, pos = L->pos;
        if (rec && nev >= L->cap) { *which = L->r; return 2; }
        double u = L->next(L->st);
        L->total += 1;
        L->t += 1;
        if ((double)L->total > budget) { *which = L->r; return -1; }
        if (lz) {
            if (u < 0.5) {
                if (rec) { REPRO_EVENT(L->particle, pos); L->nev = nev; }
                continue;
            }
            u = 2.0 * (u - 0.5);
        }
        {
            i64 s = indptr[pos];
            i64 d = indptr[pos + 1] - s;
            pos = indices[s + (i64)(u * (double)d)];
        }
        if (rec) { REPRO_EVENT(L->particle, pos); L->nev = nev; }
        L->pos = pos;
        if (L->occ[pos]) continue;
        L->occ[pos] = 1;
        i64 p = L->particle;
        L->steps[p] = L->t;
        L->settled[p] = pos;
        p += 1;
        while (p < m) {                  /* instant_settle_chain */
            i64 v = L->starts[p];
            if (L->occ[v]) break;
            L->occ[v] = 1;
            L->steps[p] = 0;
            L->settled[p] = v;
            p += 1;
        }
        L->particle = p;
        if (p < m) {
            L->pos = L->starts[p];
            L->t = 0;
            continue;
        }
        repro_seq_save(state, L);
        *L = lane[--*nl];
        l--;
    }
    return 0;
}

/* _finish_sequential_rep's inner loop for R repetitions, REPRO_LANES of
 * them in flight, round-robin, one step per lane per pass; a lane whose
 * repetition settles its last particle takes the next unstarted one.
 * Repetition r owns rows occ[r*n ..], starts/steps/settled[r*m ..], the
 * state row state[r*SEQ_STATE ..] = [particle, pos, t, total, events]
 * (particle == m: done) and the bit generator bgs[r], from which it
 * draws each double, one next_double call per step.  When recording,
 * evs[r] is its event sink of caps[r] events (evs NULL: no recording).
 * Returns 1 when every repetition is done (state[..TOTAL] = consumed
 * doubles), 2 when the sink of repetition *which is full (resume with an
 * empty one), -1 when repetition *which exceeds the budget; on any
 * return every lane writes its state row back, so a re-entry resumes
 * exactly where it stopped.  Per repetition, the draws and updates are
 * those of the serial loop run on its own: u is drawn *before* the
 * budget check and nbrs indexed *unclamped*.  With a sink, every step
 * (holds included) records (particle, position after the step). */
#define SEQ_PASS(rec, lz) repro_seq_pass(lane, &nl, indptr, indices, \
                                         state, m, budget, which, rec, lz)
i64 repro_finish_seq(const i64 *indptr, const i64 *indices,
                     unsigned char *occ, const i64 *starts, i64 *steps,
                     i64 *settled, const uintptr_t *bgs, i64 *state, i64 R,
                     i64 n, i64 m, i64 lazy, double budget,
                     const uintptr_t *evs, const i64 *caps, i64 *which)
{
    repro_seq_lane lane[REPRO_LANES];
    i64 nl = 0, next_r = 0, status = 0;
    while (!status) {
        while (nl < REPRO_LANES && next_r < R) {
            i64 r = next_r++;
            const i64 *row = state + r * SEQ_STATE;
            if (row[SEQ_PARTICLE] >= m) continue;
            repro_seq_lane *L = &lane[nl++];
            bitgen_t *bg = (bitgen_t *)bgs[r];
            L->r = r;
            L->particle = row[SEQ_PARTICLE];
            L->pos = row[SEQ_POS];
            L->t = row[SEQ_T];
            L->total = row[SEQ_TOTAL];
            L->nev = row[SEQ_EVENTS];
            L->next = bg->next_double;
            L->st = bg->state;
            L->occ = occ + r * n;
            L->starts = starts + r * m;
            L->steps = steps + r * m;
            L->settled = settled + r * m;
            L->ev = evs ? (int *)evs[r] : NULL;
            L->cap = evs ? caps[r] : 0;
        }
        if (!nl) return 1;
        if (evs && lazy) status = SEQ_PASS(1, 1);
        else if (evs) status = SEQ_PASS(1, 0);
        else if (lazy) status = SEQ_PASS(0, 1);
        else status = SEQ_PASS(0, 0);
    }
    for (i64 l = 0; l < nl; l++) repro_seq_save(state, &lane[l]);
    return status;
}
#undef SEQ_PASS

/* The k == 1 branch of _finish_parallel_rep: one straggler particle, no
 * contest.  state = [v, t]; returns 1 settled, 0 buffer dry, -1 budget.
 * `guard` is the serial wide-phase flag (k > scalar_threshold): clamped
 * vector-step offsets when set, the raw scalar truncation otherwise. */
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, i64 guard, double budget)
{
    i64 v = state[0], t = state[1], i = 0;
    for (;;) {
        if (i >= nbuf) { state[0] = v; state[1] = t; return 0; }
        t += 1;
        if ((double)t > budget) { state[0] = v; state[1] = t; return -1; }
        double u = buf[i++];
        if (lazy) {
            if (u < 0.5) continue;
            u = 2.0 * (u - 0.5);
        }
        {
            i64 s = indptr[v];
            i64 d = indptr[v + 1] - s;
            i64 off = (i64)(u * (double)d);
            if (guard && off >= d) off = d - 1;
            v = indices[s + off];
        }
        if (occ[v]) continue;
        occ[v] = 1;
        state[0] = v;
        state[1] = t;
        return 1;
    }
}

/* random_walk's loop: fill out[state[0]+1 ..] until `steps` steps taken.
 * state = [t, pos]; returns 1 done, 0 buffer dry. */
i64 repro_walk_fill(const i64 *indptr, const i64 *indices, i64 *out,
                    i64 steps, const double *buf, i64 nbuf, i64 *state)
{
    i64 t = state[0], pos = state[1], i = 0;
    while (t < steps) {
        if (i >= nbuf) { state[0] = t; state[1] = pos; return 0; }
        double u = buf[i++];
        i64 s = indptr[pos];
        i64 d = indptr[pos + 1] - s;
        pos = indices[s + (i64)(u * (double)d)];
        t += 1;
        out[t] = pos;
    }
    state[0] = t;
    state[1] = pos;
    return 1;
}

/* walk_until_hit's loop.  state = [steps, pos]; returns 1 on hit,
 * 0 buffer dry, -1 when `limit` steps elapsed without a hit. */
i64 repro_walk_hit(const i64 *indptr, const i64 *indices,
                   const unsigned char *hit, const double *buf, i64 nbuf,
                   i64 *state, double limit)
{
    i64 steps = state[0], pos = state[1], i = 0;
    for (;;) {
        if (i >= nbuf) { state[0] = steps; state[1] = pos; return 0; }
        double u = buf[i++];
        i64 s = indptr[pos];
        i64 d = indptr[pos + 1] - s;
        pos = indices[s + (i64)(u * (double)d)];
        steps += 1;
        if (hit[pos]) { state[0] = steps; state[1] = pos; return 1; }
        if ((double)steps >= limit) {
            state[0] = steps; state[1] = pos;
            return -1;
        }
    }
}

/* The tick loops' log lane: lane[0..cap) holds the doubles whose
 * log1p(-u) the serial driver takes, lane[cap..2cap) each one's divisor.
 * No logarithm is taken in C (libm's log1p is not bit-identical to
 * numpy's): the wrapper folds a full lane, or the last one, with numpy's
 * log1p and empties it.  A loop returns 3 ("lane full") before a tick
 * that needs a slot in a full lane. */

/* One CTU-IDLA repetition (ctu_idla's tick loop), from its time-0 state:
 * pool[0..k) holds the unsettled particles (swap-remove order), order[]
 * the settle order so far.  Per tick, three doubles from numpy's bit
 * generator `bg`, one next_double call each, in the serial order: the
 * clock double, written to the lane with its divisor (double)k*rate
 * (the clock advance is -log1p(-u)/divisor), the clamped pool slot, the
 * clamped step.  A particle that settles gets sclock[p] = the lane
 * length after its tick's advance, which the wrapper's fold replaces
 * with the clock.  state = [k, settled-order length, lane length,
 * events]; returns 1 when every particle settled, 2 before a tick the
 * event sink has no room for (resume with an empty one), 3 before a
 * tick when the lane is full (resume with an empty one).  With a sink,
 * each tick records (particle, new vertex). */
i64 repro_run_ctu(const i64 *indptr, const i64 *indices, unsigned char *occ,
                  i64 *pool, i64 *pos, i64 *steps, i64 *settled,
                  double *sclock, i64 *order, bitgen_t *bg, double *lane,
                  i64 lane_cap, i64 *state, double rate, int *ev, i64 cap)
{
    i64 k = state[0], no = state[1], nl = state[2], nev = state[3];
    i64 status = 1;
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    double *den = lane + lane_cap;
    while (k) {
        if (nl >= lane_cap) { status = 3; break; }
        if (ev && nev >= cap) { status = 2; break; }
        lane[nl] = next(st);
        den[nl++] = (double)k * rate;
        i64 s = (i64)(next(st) * (double)k);
        if (s > k - 1) s = k - 1;
        i64 p = pool[s];
        i64 b = indptr[pos[p]];
        i64 d = indptr[pos[p] + 1] - b;
        i64 off = (i64)(next(st) * (double)d);
        if (off > d - 1) off = d - 1;
        i64 v = indices[b + off];
        pos[p] = v;
        steps[p] += 1;
        REPRO_EVENT(p, v);
        if (occ[v]) continue;
        occ[v] = 1;
        settled[p] = v;
        sclock[p] = (double)nl;
        order[no++] = p;
        pool[s] = pool[--k];
    }
    state[0] = k; state[1] = no; state[2] = nl; state[3] = nev;
    return status;
}

/* One Uniform-IDLA repetition (uniform_idla's default-mode tick loop),
 * state laid out as in repro_run_ctu plus the tick count:
 * state = [k, settled-order length, ticks, lane length, events].  Per
 * tick: ticks += 1 and the budget check, then -- only while
 * k < pool_size -- the geometric-skip double, written to the lane with
 * its divisor logq[k] (the caller's numpy log1p(-k/pool_size)), then the
 * clamped pool slot and the clamped step: 2-3 doubles from `bg`, one
 * next_double call each, in the serial order.  The skips
 * (i64)(log1p(-u)/logq[k]) are the wrapper's to add when it folds the
 * lane, so `ticks` here is a lower bound of the serial tick count: the
 * loop returns -1 once it exceeds the budget, and the wrapper checks the
 * budget exactly after each fold.  Returns 1 done, 2 before a tick the
 * event sink has no room for, 3 before a skip tick when the lane is
 * full.  With a sink, each tick that steps records (particle, new
 * vertex); wasted ticks record none. */
i64 repro_run_uniform(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, i64 *pool, i64 *pos, i64 *steps,
                      i64 *settled, i64 *order, bitgen_t *bg, double *lane,
                      i64 lane_cap, const double *logq, i64 pool_size,
                      i64 *state, double budget, int *ev, i64 cap)
{
    i64 k = state[0], no = state[1], t = state[2], nl = state[3];
    i64 nev = state[4], status = 1;
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    double *div = lane + lane_cap;
    while (k) {
        i64 skip = k < pool_size;
        if (skip && nl >= lane_cap) { status = 3; break; }
        if (ev && nev >= cap) { status = 2; break; }
        t += 1;
        if ((double)t > budget) { status = -1; break; }
        if (skip) {
            lane[nl] = next(st);
            div[nl++] = logq[k];
        }
        i64 s = (i64)(next(st) * (double)k);
        if (s > k - 1) s = k - 1;
        i64 p = pool[s];
        i64 b = indptr[pos[p]];
        i64 d = indptr[pos[p] + 1] - b;
        i64 off = (i64)(next(st) * (double)d);
        if (off > d - 1) off = d - 1;
        i64 v = indices[b + off];
        pos[p] = v;
        steps[p] += 1;
        REPRO_EVENT(p, v);
        if (occ[v]) continue;
        occ[v] = 1;
        settled[p] = v;
        order[no++] = p;
        pool[s] = pool[--k];
    }
    state[0] = k; state[1] = no; state[2] = t; state[3] = nl; state[4] = nev;
    return status;
}

/* One Parallel-IDLA repetition (parallel_idla's wide and narrow round
 * loops) from its state after the round-0 settlement pass: act[0..k)
 * the unsettled particles ascending, pos[0..k) their vertices.  Each
 * round steps every active particle in active-list order, drawing from
 * numpy's bit generator `bg` one next_double call per double, in the
 * serial order.  The wide draw (k > thr) takes k doubles; with `lazy`
 * it first takes the k hold gates into `hold` (k doubles of scratch),
 * then one step double per particle, held or not -- the order of
 * rng.random(2k).  The narrow draw takes one double per particle (lazy:
 * hold below 1/2, else step with 2(u - 1/2)).  Offsets are clamped: the
 * narrow phase's raw truncation never reaches d, so one expression
 * serves both phases.  The contest rides the step pass: per vacant
 * vertex the slot with the smallest prio[act[j]] settles (first on
 * ties), and a round in which no walker claims a vacant vertex skips
 * the compaction pass.  `best` is all -1 on entry and on return.
 * state = [k, t, free, events]; returns 1 when done (the surplus
 * particles of m > n get steps = t), 2 before a round the event sink has
 * no room for (k events; resume with an empty sink), -1 when t exceeds
 * the budget, -2 before any draw when an act[j] is outside [0, m) or a
 * pos[j] outside [0, n).  With a sink, each round records (particle,
 * vertex) for every active particle after its step, holds included. */
i64 repro_run_parallel(const i64 *indptr, const i64 *indices,
                       unsigned char *occ, i64 *act, i64 *pos,
                       const i64 *prio, i64 *best, i64 *steps,
                       i64 *settled, i64 *round, bitgen_t *bg,
                       double *hold, i64 m, i64 n, i64 *state, i64 lazy,
                       i64 thr, double budget, int *ev, i64 cap)
{
    i64 k = state[0], t = state[1], fr = state[2], nev = state[3];
    i64 status = 1;
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    for (i64 j = 0; j < k; j++)
        if (act[j] < 0 || act[j] >= m || pos[j] < 0 || pos[j] >= n)
            return -2;
    while (k && fr) {
        i64 wide = k > thr, claims = 0;
        if (ev && nev + k > cap) { status = 2; break; }
        t += 1;
        if ((double)t > budget) { status = -1; break; }
        if (lazy && wide)
            for (i64 j = 0; j < k; j++) hold[j] = next(st);
        for (i64 j = 0; j < k; j++) {
            double u = next(st);
            i64 v = pos[j];
            int move = 1;
            if (lazy) {
                if (wide) move = hold[j] >= 0.5;
                else if (u < 0.5) move = 0;
                else u = 2.0 * (u - 0.5);
            }
            if (move) {
                i64 b = indptr[v];
                i64 d = indptr[v + 1] - b;
                i64 off = (i64)(u * (double)d);
                if (off > d - 1) off = d - 1;
                v = indices[b + off];
                pos[j] = v;
            }
            REPRO_EVENT(act[j], v);
            if (occ[v]) continue;
            i64 c = best[v];
            if (c < 0) { best[v] = j; claims++; }
            else if (prio[act[j]] < prio[act[c]]) best[v] = j;
        }
        if (!claims) continue;
        i64 w = 0;
        for (i64 j = 0; j < k; j++) {
            i64 p = act[j], v = pos[j];
            if (best[v] == j) {
                best[v] = -1;
                occ[v] = 1;
                fr -= 1;
                steps[p] = t;
                settled[p] = v;
                round[p] = t;
            } else {
                act[w] = p;
                pos[w++] = v;
            }
        }
        k = w;
    }
    if (status == 1)
        for (i64 j = 0; j < k; j++) steps[act[j]] = t;
    state[0] = k; state[1] = t; state[2] = fr; state[3] = nev;
    return status;
}

/* Counting scatter of recorded events: event e = (p, v) lands at
 * flat[cursor[p]++].  With cursor[p] the first free slot of particle p's
 * row, one pass groups a sink by particle, chronological within each row,
 * with no sort. */
void repro_scatter_events(const int *ev, i64 nev, i64 *cursor, int *flat)
{
    for (i64 e = 0; e < nev; e++)
        flat[cursor[ev[2 * e]]++] = ev[2 * e + 1];
}

/* A bitgen_t serving the fixed array buf[0..n) first, then the doubles
 * of the bit generator `rest` -- or, with no `rest` (the load-time
 * self-check), 0.0 once past the end.  `i` counts every draw of either
 * kind, so a loop that over-consumes its doubles shows in it. */
typedef struct {
    const double *buf; i64 n; i64 i; bitgen_t *rest;
} repro_prefix_rng;

static double repro_prefix_next_double(void *st)
{
    repro_prefix_rng *a = (repro_prefix_rng *)st;
    i64 i = a->i++;
    if (i < a->n) return a->buf[i];
    return a->rest ? a->rest->next_double(a->rest->state) : 0.0;
}

void repro_prefix_bitgen(bitgen_t *bg, repro_prefix_rng *a)
{
    bg->state = a;
    bg->next_uint64 = NULL;
    bg->next_uint32 = NULL;
    bg->next_double = repro_prefix_next_double;
    bg->next_raw = NULL;
}
"""
