"""C source for the cffi kernel provider.

One translation unit, compiled with plain ``-O2 -ffp-contract=off``
(never ``-ffast-math``: the offset computation ``(i64)(u * (double)deg)``
and the CTU clock divisor ``(double)k * rate`` must be the same IEEE
double operations the numpy path performs, or the bit-identity contract of
:mod:`repro.kernels` breaks).  :data:`C_SOURCE` is the includes, then
:data:`CDEF` -- the one place each shared typedef and exported prototype
is written, which cffi parses too -- then the function bodies, so the
compiler checks every definition against its declaration.

The functions mirror, line for line, the numpy round bodies in
:mod:`repro.core.batched` and the scalar micro-loops in
``_finish_parallel_rep`` / ``_finish_sequential_rep`` /
:mod:`repro.walks.single`, the tick loops of ``ctu_idla`` /
``uniform_idla`` and the round loops of ``parallel_idla`` -- every
behavioural quirk (the draw order around the budget checks, the clamped
pool slot of the tick loops) is deliberate and pinned by
``tests/test_differential_drivers.py``.  Every walk step is one
``repro_neighbor``: slot ``min((i64)(u*d), d - 1)``, which equals the
serial loops' unclamped ``int(u * deg)`` for every ``u < 1``.

The walk loops (``repro_finish_par1``, ``repro_walk_fill``,
``repro_walk_hit``) consume uniforms from a caller-provided buffer and
return ``0`` when it runs dry; the Python wrapper refills (see
``KernelSet`` in the package root) in the serial drivers' block cadence
wherever a later consumer reads the generator, so those fetch positions
stay on the serial grid.  The four shard loops (``repro_finish_seq``,
``repro_run_parallel``, ``repro_run_ctu``, ``repro_run_uniform``) instead
take one ``repro_shard``: every repetition of a shard, each with its own
state row, rows of the shard's ``(R, m)`` arrays and draw source, from
which it draws each double in the serial order, so every generator ends
right after the last double its repetition consumed.  So do the lane
folds and ``repro_draw_doubles``.  A draw source (``repro_rng``, one
helper ``repro_draw`` for all four loops) is either an inline PCG64 --
numpy's default bit generator, stepped in registers -- or the generic
``next_double`` call of a ``bitgen_t`` (``numpy/random/bitgen.h``,
declared here with the same layout).  Row ``r``'s source is the
``bitgen_t`` at ``bgs[r]``: a numpy ``PCG64``, recognised by its
``next_double`` pointer, is loaded into the inline state and stored back
on every return; any other takes the call.  A row with ``bgs[r] == 0``
steps the PCG64 state in row ``r`` of ``seeds``, which
``repro_seed_pcg64`` computes from a ``SeedSequence`` child as numpy
does, so a repetition whose doubles are all drawn here needs no numpy
generator at all.  ``repro_finish_seq`` keeps ``REPRO_LANES``
repetitions in flight round-robin, so the CPU overlaps their dependent
steps; the other three run the repetitions one after another.  Either
way every repetition's draws and updates are those of the loop run on
its own.  The tick loops need ``log1p(-u)`` of some doubles (CTU's
clock, Uniform's geometric skip), which C never takes: they write those
doubles, negated, to a *log lane* shared by the shard's repetitions, with
their divisors.  After every return (status ``3``: the lane is full) the
wrapper takes numpy's ``log1p`` over the used lane in place, and
``repro_fold_ctu`` / ``repro_fold_uniform`` fold it into the clocks and
tick counts.

A shard records into an optional *event sink* per repetition: an
``int`` array of ``caps[r]`` ``(particle, vertex)`` pairs at address
``evs[r]``, ``evs`` ``NULL`` when the run does not record.  Each
particle-step (holds included) appends one pair -- the shape the serial
drivers record.  Before a step or round that would overflow a sink the
loop returns ``2`` ("sink full") and names the repetition in ``which``;
the wrapper keeps the filled sink and re-enters with an empty one.  A
sink of room 0 is full before its repetition's first event: the loops
that run repetitions one after another get such unopened sinks, so the
wrapper can group each finished repetition's events before the next one
opens its sink.  ``repro_scatter_events`` groups the events by particle
afterwards, and ``repro_prefix_bitgen`` makes a ``bitgen_t`` that serves
a fixed array of doubles before those of another ``bitgen_t``: the
leftover of a lock-step stream row, or (with none behind it) the
load-time self-check's fixed draws.
"""

from __future__ import annotations

#: The typedefs and exported prototypes, for ``cffi.FFI.cdef`` and as the
#: head of :data:`C_SOURCE`.
CDEF = """
typedef long long i64;

/* numpy's bitgen_t (numpy/random/bitgen.h), field for field. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* The state of repro_prefix_bitgen's bit generator. */
typedef struct {
    const double *buf; i64 n; i64 i; bitgen_t *rest;
} repro_prefix_rng;

/* One shard: R repetitions of m particles on the CSR graph (indptr,
 * indices) of n vertices.  Repetition r owns occ[r*n ..], row r (r*m ..)
 * of each (R, m) array a loop uses, its state row, its draw source (the
 * bitgen_t at bgs[r], or row r of seeds when that is 0) and, when
 * recording (evs not NULL), the event sink evs[r] of caps[r] events.
 * `which` names the repetition a status other than 1 stops at.  The
 * scalars and scratch below the state rows serve the loops that name
 * them; a loop leaves the others alone. */
typedef struct {
    i64 R, n, m;
    const i64 *indptr, *indices;
    unsigned char *occ;
    const i64 *starts, *prio;
    i64 *pool, *pos, *steps, *settled, *order, *round;
    double *sclock;
    const uintptr_t *bgs;
    uint64_t *seeds;
    const uintptr_t *evs;
    const i64 *caps;
    i64 which;
    i64 *state;
    i64 lazy, thr, lane_cap, pool_size;
    double budget, rate;
    i64 *best;
    double *hold, *lane;
    const double *logq;
} repro_shard;

void repro_pcg64_register(const bitgen_t *pcg64);
void repro_draw_doubles(repro_shard *sh, i64 n, double *out);
void repro_seed_pcg64(const uint32_t *pre, i64 npre, uint64_t start,
                      i64 count, uint64_t *seeds);
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k);
i64 repro_vacant(const unsigned char *occ, const i64 *rep_off,
                 const i64 *pos, i64 k, i64 *out);
i64 repro_settle_round(const unsigned char *occ, const i64 *rep,
                       const i64 *pos, const i64 *prio, i64 k, i64 n,
                       i64 *best, i64 *touched, i64 *winners);
i64 repro_finish_seq(repro_shard *sh);
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, double budget);
i64 repro_walk_fill(const i64 *indptr, const i64 *indices, i64 *out,
                    i64 steps, const double *buf, i64 nbuf, i64 *state);
i64 repro_walk_hit(const i64 *indptr, const i64 *indices,
                   const unsigned char *hit, const double *buf, i64 nbuf,
                   i64 *state, double limit);
i64 repro_run_ctu(repro_shard *sh);
i64 repro_run_uniform(repro_shard *sh);
i64 repro_run_parallel(repro_shard *sh);
void repro_fold_ctu(repro_shard *sh, i64 *folded, double *clocks);
void repro_fold_uniform(repro_shard *sh);
void repro_scatter_events(const int *ev, i64 nev, i64 *cursor, int *flat);
void repro_prefix_bitgen(bitgen_t *bg, repro_prefix_rng *a);
"""

C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
""" + CDEF + """
/* The largest double below 1. */
#define REPRO_U_MAX 0x1.fffffffffffffp-1

/* The simple random walk's step from v with u >= 0: slot
 * min((i64)(u*d), d-1) of v's d neighbours, bit-identical to the numpy
 * chain  deg = indptr[pos+1]-indptr[pos]; off = (u*deg).astype(int64);
 * minimum(off, deg-1); indices[indptr[pos]+off].  For u <= REPRO_U_MAX =
 * 1 - 2^-53 and d <= 2^53, fl(u*d) < d (rounding is monotone, and
 * d*2^-53 is at least half an ulp of d), so for every u < 1 the clamp
 * never binds -- the serial loops' unclamped int(u * deg) takes the same
 * slot -- and for u >= 1 clamping u to REPRO_U_MAX gives slot d-1.  It
 * clamps u, not the offset: u does not depend on the walker's position,
 * so its clamp stays off the chain of dependent loads from step to step,
 * where an offset clamp cost the sequential lane loop ~9% a step. */
static inline i64 repro_neighbor(const i64 *indptr, const i64 *indices,
                                 i64 v, double u)
{
    i64 s = indptr[v], d = indptr[v + 1] - s;
    if (!(u < REPRO_U_MAX)) u = REPRO_U_MAX;
    return indices[s + (i64)(u * (double)d)];
}

/* ---- the draw source of a shard row ----------------------------------
 * A row draws from an inline PCG64 or through the generic bitgen_t call.
 * The inline PCG64 is numpy's (numpy/random/src/pcg64): the 128-bit LCG
 * state s = s * M + inc, then the XSL-RR output of the new state, and
 * next_double = (x >> 11) * 2^-53.  Its state, two 128-bit words {state,
 * inc} as numpy's pcg64_random_t holds them (gcc's __uint128_t), comes
 * from a row of `seeds` (seeded here by repro_seed_pcg64) or from a numpy
 * PCG64, recognised by its next_double pointer (repro_pcg64_register, at
 * load) and read through bitgen_t.state -> pcg64_state.pcg_state.  It is
 * stored back where it came from on every return.  Every other bit
 * generator (PCG64DXSM, MT19937, Philox, SFC64, the prefix bit generator)
 * takes the generic next_double call. */
typedef __uint128_t repro_u128;

#define REPRO_PCG_MULT \\
    (((repro_u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

typedef struct {
    repro_u128 s, inc;
    double (*next)(void *);   /* NULL: the inline PCG64 */
    void *st;
    void *home;               /* where {s, inc} are stored back */
} repro_rng;

static double (*repro_pcg64_double)(void *);

void repro_pcg64_register(const bitgen_t *pcg64)
{
    repro_pcg64_double = pcg64->next_double;
}

static inline double repro_draw(repro_rng *g)
{
    if (g->next) return g->next(g->st);
    g->s = g->s * REPRO_PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->s >> 64) ^ (uint64_t)g->s;
    unsigned rot = (unsigned)(g->s >> 122);
    x = (x >> rot) | (x << ((-rot) & 63u));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* Row r's source: seeds[4r .. 4r+4) when bgs[r] is 0, else the bitgen_t
 * at address bgs[r]. */
static inline void repro_rng_load(repro_rng *g, const repro_shard *sh, i64 r)
{
    bitgen_t *bg = (bitgen_t *)sh->bgs[r];
    g->s = g->inc = 0;
    g->next = NULL;
    g->st = NULL;
    if (!bg) g->home = sh->seeds + 4 * r;
    else if (repro_pcg64_double && bg->next_double == repro_pcg64_double)
        g->home = *(void **)bg->state;
    else {
        g->next = bg->next_double;
        g->st = bg->state;
        g->home = NULL;
        return;
    }
    memcpy(&g->s, g->home, sizeof g->s);
    memcpy(&g->inc, (char *)g->home + sizeof g->s, sizeof g->inc);
}

static inline void repro_rng_store(const repro_rng *g)
{
    if (g->home) memcpy(g->home, &g->s, sizeof g->s);
}

/* Row r draws n doubles into out[r*n ..] from its source, for each of
 * the shard's R rows, and stores its state back: the draw contract on
 * its own. */
void repro_draw_doubles(repro_shard *sh, i64 n, double *out)
{
    for (i64 r = 0; r < sh->R; r++) {
        repro_rng g;
        repro_rng_load(&g, sh, r);
        for (i64 j = 0; j < n; j++) out[r * n + j] = repro_draw(&g);
        repro_rng_store(&g);
    }
}

/* numpy's SeedSequence hash constants (bit_generator.pyx). */
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

static inline uint32_t repro_hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= SS_MULT_A;
    v *= *h;
    return v ^ (v >> 16);
}

static inline uint32_t repro_mix(uint32_t x, uint32_t y)
{
    uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

/* PCG64 states of children start .. start+count-1 of a default-pool (4
 * words) SeedSequence, written as rows of `seeds`.  Child i's assembled
 * entropy is pre[0 .. npre) -- the parent's entropy words, zero-padded
 * to 4, then its spawn key's -- followed by the words of i (least
 * significant first; i = 0 is one word).  As numpy does, the entropy is
 * mixed into the pool, generate_state(4, uint64) hashes the pool out,
 * and PCG64 seeds from the four words s: state = 0, inc = (s2:s3 << 1) |
 * 1, a step, state += s0:s1, a step. */
void repro_seed_pcg64(const uint32_t *pre, i64 npre, uint64_t start,
                      i64 count, uint64_t *seeds)
{
    for (i64 c = 0; c < count; c++) {
        uint64_t i = start + (uint64_t)c;
        uint32_t iw[2] = {(uint32_t)i, (uint32_t)(i >> 32)};
        i64 ni = (i >> 32) ? 2 : 1, ne = npre + ni;
        uint32_t pool[4], h = SS_INIT_A, out[8];
        for (i64 j = 0; j < 4; j++)
            pool[j] = repro_hashmix(j < npre ? pre[j] : iw[j - npre], &h);
        for (int s = 0; s < 4; s++)
            for (int d = 0; d < 4; d++)
                if (s != d) pool[d] = repro_mix(pool[d], repro_hashmix(pool[s], &h));
        for (i64 s = 4; s < ne; s++) {
            uint32_t e = s < npre ? pre[s] : iw[s - npre];
            for (int d = 0; d < 4; d++)
                pool[d] = repro_mix(pool[d], repro_hashmix(e, &h));
        }
        h = SS_INIT_B;
        for (int j = 0; j < 8; j++) {
            uint32_t v = pool[j % 4] ^ h;
            h *= SS_MULT_B;
            v *= h;
            out[j] = v ^ (v >> 16);
        }
        uint64_t w[4];
        for (int j = 0; j < 4; j++)
            w[j] = (uint64_t)out[2 * j] | ((uint64_t)out[2 * j + 1] << 32);
        repro_u128 init = ((repro_u128)w[0] << 64) | w[1];
        repro_u128 seq = ((repro_u128)w[2] << 64) | w[3];
        repro_u128 st[2];
        st[1] = (seq << 1) | 1u;
        st[0] = st[1];                      /* 0 * M + inc */
        st[0] += init;
        st[0] = st[0] * REPRO_PCG_MULT + st[1];
        memcpy(seeds + 4 * c, st, sizeof st);
    }
}

/* Append the event (particle p, vertex v) to the event sink `ev` of the
 * enclosing loop (NULL when it does not record); `nev` counts events. */
#define REPRO_EVENT(p, v) do { if (ev) { \\
    ev[2 * nev] = (int)(p); ev[2 * nev + 1] = (int)(v); nev++; } } while (0)

/* The fused step for k walkers: out[i] = pos[i]'s neighbour by u[i].
 * Negative u (the lazy drivers pass 2*(u-0.5) for *hold* walkers whose
 * result is discarded by `where`) takes slot 0 instead of numpy's
 * harmless wraparound gather -- any in-range slot works, OOB does not. */
void repro_csr_step(const i64 *indptr, const i64 *indices, const i64 *pos,
                    const double *u, i64 *out, i64 k)
{
    for (i64 i = 0; i < k; i++)
        out[i] = repro_neighbor(indptr, indices, pos[i], u[i] < 0 ? 0 : u[i]);
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
    repro_rng g;
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
    repro_rng_store(&L->g);
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
        double u = repro_draw(&L->g);
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
        pos = repro_neighbor(indptr, indices, pos, u);
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

/* _finish_sequential_rep's inner loop for the R repetitions of a shard,
 * REPRO_LANES of them in flight, round-robin, one step per lane per
 * pass; a lane whose repetition settles its last particle takes the next
 * unstarted one.  Repetition r walks on occ, starts, steps and settled
 * from its state row [particle, pos, t, total, events] (particle == m:
 * done), one double a step.  Returns 1 when every repetition is done
 * (TOTAL = consumed doubles), 2 when the sink of repetition `which` is
 * full (resume with an empty one), -1 when repetition `which` exceeds
 * the budget; on any return every lane writes its state row back, so a
 * re-entry resumes exactly where it stopped.  Per repetition, the draws
 * and updates are those of the serial loop run on its own: u is drawn
 * *before* the budget check.  With a sink, every step (holds included)
 * records (particle, position after the step). */
#define SEQ_PASS(rec, lz) repro_seq_pass(lane, &nl, indptr, indices, \\
                                         state, m, budget, &which, rec, lz)
i64 repro_finish_seq(repro_shard *sh)
{
    const i64 *indptr = sh->indptr, *indices = sh->indices;
    const uintptr_t *evs = sh->evs;
    i64 *state = sh->state, R = sh->R, n = sh->n, m = sh->m;
    i64 lazy = sh->lazy, which = 0;
    double budget = sh->budget;
    repro_seq_lane lane[REPRO_LANES];
    i64 nl = 0, next_r = 0, status = 0;
    while (!status) {
        while (nl < REPRO_LANES && next_r < R) {
            i64 r = next_r++;
            const i64 *row = state + r * SEQ_STATE;
            if (row[SEQ_PARTICLE] >= m) continue;
            repro_seq_lane *L = &lane[nl++];
            L->r = r;
            L->particle = row[SEQ_PARTICLE];
            L->pos = row[SEQ_POS];
            L->t = row[SEQ_T];
            L->total = row[SEQ_TOTAL];
            L->nev = row[SEQ_EVENTS];
            repro_rng_load(&L->g, sh, r);
            L->occ = sh->occ + r * n;
            L->starts = sh->starts + r * m;
            L->steps = sh->steps + r * m;
            L->settled = sh->settled + r * m;
            L->ev = evs ? (int *)evs[r] : NULL;
            L->cap = evs ? sh->caps[r] : 0;
        }
        if (!nl) return 1;
        if (evs && lazy) status = SEQ_PASS(1, 1);
        else if (evs) status = SEQ_PASS(1, 0);
        else if (lazy) status = SEQ_PASS(0, 1);
        else status = SEQ_PASS(0, 0);
    }
    for (i64 l = 0; l < nl; l++) repro_seq_save(state, &lane[l]);
    sh->which = which;
    return status;
}
#undef SEQ_PASS

/* The k == 1 branch of _finish_parallel_rep: one straggler particle, no
 * contest.  state = [v, t]; returns 1 settled, 0 buffer dry, -1 budget. */
i64 repro_finish_par1(const i64 *indptr, const i64 *indices,
                      unsigned char *occ, const double *buf, i64 nbuf,
                      i64 *state, i64 lazy, double budget)
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
        v = repro_neighbor(indptr, indices, v, u);
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
        pos = repro_neighbor(indptr, indices, pos, buf[i++]);
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
        pos = repro_neighbor(indptr, indices, pos, buf[i++]);
        steps += 1;
        if (hit[pos]) { state[0] = steps; state[1] = pos; return 1; }
        if ((double)steps >= limit) {
            state[0] = steps; state[1] = pos;
            return -1;
        }
    }
}

/* The tick loops run the R repetitions of a shard in one call, one after
 * another (a repetition runs to completion, then the next starts), and
 * share one log lane: lane[0..cap) holds -u for each double u whose
 * log1p(-u) the serial driver takes (negation is exact), lane[cap..2cap)
 * each one's divisor.  No logarithm is taken in C (libm's log1p is not
 * bit-identical to numpy's, and at 13-24 ns a call it is ~10x numpy's
 * vectorised one): after every return the wrapper takes numpy's log1p
 * over the used lane in place, then folds it with repro_fold_ctu or
 * repro_fold_uniform, and the next call starts with the lane empty.
 * Each repetition's doubles are one contiguous segment of the lane,
 * [LO, HI) in its state row.  A loop returns 3 ("lane full") before a
 * tick that needs a slot in a full lane.  Interleaving repetitions, as
 * repro_finish_seq does, does not pay here: a tick picks a random
 * particle, so consecutive ticks of one repetition already overlap in
 * the CPU.  A prototype
 * 4-lane round-robin CTU loop gave the same rows but took 24.8 ns a tick
 * on the 64-cycle and 24.6 on the 10x10 grid, against 20.7 and 23.0 ns
 * one repetition at a time (2-core x86-64 VM). */

/* State rows of the tick loops: the pool size k, the settle-order
 * length, (Uniform) the tick count, the repetition's lane segment and
 * its event count. */
enum { CTU_K, CTU_NO, CTU_LO, CTU_HI, CTU_EVENTS, CTU_STATE };
enum { UNI_K, UNI_NO, UNI_TICKS, UNI_LO, UNI_HI, UNI_EVENTS, UNI_STATE };

/* CTU-IDLA (ctu_idla's tick loop) for the R repetitions of a shard, each
 * from its state row, on its rows pool, pos, steps, settled, sclock and
 * order.  pool[0..k) holds its unsettled particles (swap-remove order),
 * order[] its settle order so far.  Per tick, three doubles from its
 * draw source, in the serial order: the clock double, written to the
 * lane with its divisor (double)k*rate (the clock advance is
 * -log1p(-u)/divisor), the clamped pool slot, the step.  A particle that
 * settles gets sclock[p] = the lane length after its tick's advance,
 * which repro_fold_ctu replaces with the clock.  Returns 1 when every
 * repetition is done, 2 before a tick the sink of repetition `which` has
 * no room for (resume with an empty one), 3 before a tick of repetition
 * `which` when the lane is full; on any return every visited row is
 * written back.  With a sink, each tick records (particle, new vertex). */
i64 repro_run_ctu(repro_shard *sh)
{
    const i64 *indptr = sh->indptr, *indices = sh->indices;
    const uintptr_t *evs = sh->evs;
    i64 *state = sh->state, R = sh->R, n = sh->n, m = sh->m;
    i64 lane_cap = sh->lane_cap;
    double *lane = sh->lane, *den = lane + lane_cap, rate = sh->rate;
    i64 nl = 0, status = 1;
    for (i64 r = 0; r < R && status == 1; r++) {
        i64 *row = state + r * CTU_STATE;
        i64 k = row[CTU_K], no = row[CTU_NO], nev = row[CTU_EVENTS];
        row[CTU_LO] = row[CTU_HI] = nl;
        if (!k) continue;
        repro_rng g;
        repro_rng_load(&g, sh, r);
        unsigned char *oc = sh->occ + r * n;
        i64 *pl = sh->pool + r * m, *ps = sh->pos + r * m;
        i64 *sp = sh->steps + r * m, *se = sh->settled + r * m;
        i64 *od = sh->order + r * m;
        double *sc = sh->sclock + r * m;
        int *ev = evs ? (int *)evs[r] : NULL;
        i64 cap = evs ? sh->caps[r] : 0;
        while (k) {
            if (nl >= lane_cap) { status = 3; break; }
            if (evs && nev >= cap) { status = 2; break; }
            lane[nl] = -repro_draw(&g);
            den[nl++] = (double)k * rate;
            i64 s = (i64)(repro_draw(&g) * (double)k);
            if (s > k - 1) s = k - 1;
            i64 p = pl[s];
            i64 v = repro_neighbor(indptr, indices, ps[p], repro_draw(&g));
            ps[p] = v;
            sp[p] += 1;
            REPRO_EVENT(p, v);
            if (oc[v]) continue;
            oc[v] = 1;
            se[p] = v;
            sc[p] = (double)nl;
            od[no++] = p;
            pl[s] = pl[--k];
        }
        row[CTU_K] = k; row[CTU_NO] = no; row[CTU_HI] = nl;
        row[CTU_EVENTS] = nev;
        repro_rng_store(&g);
        if (status != 1) sh->which = r;
    }
    return status;
}

/* Uniform-IDLA (uniform_idla's default-mode tick loop) for the R
 * repetitions of a shard, laid out as in repro_run_ctu less the clocks,
 * with the tick count in each state row.  Per tick: ticks += 1 and the
 * budget check, then -- only while k < pool_size -- the geometric-skip
 * double, written to the lane with its divisor logq[k] (the caller's
 * numpy log1p(-k/pool_size)), then the clamped pool slot and the step:
 * 2-3 doubles from the repetition's draw source, in the serial order.
 * The skips (i64)(log1p(-u)/logq[k]) are added by repro_fold_uniform, so
 * a row's tick count here is a lower bound of the serial one: the loop
 * returns -1 once it exceeds the budget (repetition `which`), and the
 * wrapper checks the budget exactly after each fold.  Returns 1 when
 * every repetition is done, 2 before a tick the sink of repetition
 * `which` has no room for, 3 before a skip tick of repetition `which`
 * when the lane is full.  With a sink, each tick that steps records
 * (particle, new vertex); wasted ticks record none. */
i64 repro_run_uniform(repro_shard *sh)
{
    const i64 *indptr = sh->indptr, *indices = sh->indices;
    const uintptr_t *evs = sh->evs;
    const double *logq = sh->logq;
    i64 *state = sh->state, R = sh->R, n = sh->n, m = sh->m;
    i64 lane_cap = sh->lane_cap, pool_size = sh->pool_size;
    double *lane = sh->lane, *div = lane + lane_cap, budget = sh->budget;
    i64 nl = 0, status = 1;
    for (i64 r = 0; r < R && status == 1; r++) {
        i64 *row = state + r * UNI_STATE;
        i64 k = row[UNI_K], no = row[UNI_NO], t = row[UNI_TICKS];
        i64 nev = row[UNI_EVENTS];
        row[UNI_LO] = row[UNI_HI] = nl;
        if (!k) continue;
        repro_rng g;
        repro_rng_load(&g, sh, r);
        unsigned char *oc = sh->occ + r * n;
        i64 *pl = sh->pool + r * m, *ps = sh->pos + r * m;
        i64 *sp = sh->steps + r * m, *se = sh->settled + r * m;
        i64 *od = sh->order + r * m;
        int *ev = evs ? (int *)evs[r] : NULL;
        i64 cap = evs ? sh->caps[r] : 0;
        while (k) {
            i64 skip = k < pool_size;
            if (skip && nl >= lane_cap) { status = 3; break; }
            if (evs && nev >= cap) { status = 2; break; }
            t += 1;
            if ((double)t > budget) { status = -1; break; }
            if (skip) {
                lane[nl] = -repro_draw(&g);
                div[nl++] = logq[k];
            }
            i64 s = (i64)(repro_draw(&g) * (double)k);
            if (s > k - 1) s = k - 1;
            i64 p = pl[s];
            i64 v = repro_neighbor(indptr, indices, ps[p], repro_draw(&g));
            ps[p] = v;
            sp[p] += 1;
            REPRO_EVENT(p, v);
            if (oc[v]) continue;
            oc[v] = 1;
            se[p] = v;
            od[no++] = p;
            pl[s] = pl[--k];
        }
        row[UNI_K] = k; row[UNI_NO] = no; row[UNI_TICKS] = t;
        row[UNI_HI] = nl; row[UNI_EVENTS] = nev;
        repro_rng_store(&g);
        if (status != 1) sh->which = r;
    }
    return status;
}

/* The folds of a tick loop's lane, once lane[i] holds numpy's
 * log1p(-u) (the wrapper's, in place) for every used slot i.  Each
 * visits every row's segment [LO, HI); a row the loop did not reach has
 * an empty one.  No division is fused or reordered (-ffp-contract=off),
 * so each is the serial driver's double arithmetic, slot by slot. */

/* CTU: the serial clock += -log1p(-u) / (k * rate), tick by tick, which
 * is c = c - lane[i] / den[i] bit for bit, starting from the row's
 * carried clock clocks[r].  Each slot's clock is written back into the
 * slot.  A particle settled since the last fold (order[folded[r] ..
 * NO) of its row) holds in sclock the lane length g after its tick, so
 * its clock is slot g - 1's.  Updates clocks[r] and folded[r]. */
void repro_fold_ctu(repro_shard *sh, i64 *folded, double *clocks)
{
    double *lane = sh->lane;
    const double *den = lane + sh->lane_cap;
    i64 m = sh->m;
    for (i64 r = 0; r < sh->R; r++) {
        const i64 *row = sh->state + r * CTU_STATE;
        double c = clocks[r];
        for (i64 i = row[CTU_LO]; i < row[CTU_HI]; i++) {
            c = c - lane[i] / den[i];
            lane[i] = c;
        }
        clocks[r] = c;
        double *sc = sh->sclock + r * m;
        const i64 *od = sh->order + r * m;
        for (i64 j = folded[r]; j < row[CTU_NO]; j++) {
            i64 p = od[j];
            sc[p] = lane[(i64)sc[p] - 1];
        }
        folded[r] = row[CTU_NO];
    }
}

/* Uniform: the serial ticks += (i64)(log1p(-u) / logq[k]), skip by
 * skip; each row's skips are added to its tick count. */
void repro_fold_uniform(repro_shard *sh)
{
    const double *lane = sh->lane, *div = lane + sh->lane_cap;
    for (i64 r = 0; r < sh->R; r++) {
        i64 *row = sh->state + r * UNI_STATE, t = 0;
        for (i64 i = row[UNI_LO]; i < row[UNI_HI]; i++)
            t += (i64)(lane[i] / div[i]);
        row[UNI_TICKS] += t;
    }
}

/* State row of repro_run_parallel: active count, round, vacant-vertex
 * count, events. */
enum { PAR_K, PAR_T, PAR_FREE, PAR_EVENTS, PAR_STATE };

/* Parallel-IDLA (parallel_idla's wide and narrow round loops) for the R
 * repetitions of a shard, one after another, each from its state after
 * the round-0 settlement pass, on its rows pool (the active list), pos,
 * prio, steps, settled and round; pool[0..k) holds its unsettled
 * particles ascending and pos[0..k) their vertices.  Each round steps
 * every active particle in active-list order, drawing its doubles in the
 * serial order.  The wide draw (k > thr) takes k doubles; with `lazy` it
 * first takes the k hold gates into `hold` (m doubles of scratch), then
 * one step double per particle, held or not -- the order of
 * rng.random(2k).  The narrow draw takes one double per particle (lazy:
 * hold below 1/2, else step with 2(u - 1/2)).  The contest rides the
 * step pass: per vacant vertex the slot with the smallest priority
 * settles (first on ties; prio NULL: the particle index, so the first
 * claim always wins), and a round in which no walker claims a vacant
 * vertex skips the compaction pass.  `best` (n cells) is all -1 on entry
 * and on return.  Returns 1 when every repetition is done (the surplus
 * particles of m > n get steps = their last round), 2 before a round the
 * sink of repetition `which` has no room for (k events; resume with an
 * empty sink), -1 when the round of repetition `which` exceeds the
 * budget; on any return every visited row is written back.  With a
 * sink, each round records (particle, vertex) for every active particle
 * after its step, holds included. */
i64 repro_run_parallel(repro_shard *sh)
{
    const i64 *indptr = sh->indptr, *indices = sh->indices;
    const uintptr_t *evs = sh->evs;
    i64 *state = sh->state, R = sh->R, n = sh->n, m = sh->m;
    i64 lazy = sh->lazy, thr = sh->thr, *best = sh->best;
    double budget = sh->budget, *hold = sh->hold;
    i64 status = 1;
    for (i64 r = 0; r < R && status == 1; r++) {
        i64 *row = state + r * PAR_STATE;
        i64 k = row[PAR_K], t = row[PAR_T], fr = row[PAR_FREE];
        i64 nev = row[PAR_EVENTS];
        repro_rng g;
        repro_rng_load(&g, sh, r);
        unsigned char *oc = sh->occ + r * n;
        i64 *ac = sh->pool + r * m, *ps = sh->pos + r * m;
        i64 *sp = sh->steps + r * m, *se = sh->settled + r * m;
        i64 *rd = sh->round + r * m;
        const i64 *pr = sh->prio ? sh->prio + r * m : NULL;
        int *ev = evs ? (int *)evs[r] : NULL;
        i64 cap = evs ? sh->caps[r] : 0;
        while (k && fr) {
            i64 wide = k > thr, claims = 0;
            if (evs && nev + k > cap) { status = 2; break; }
            t += 1;
            if ((double)t > budget) { status = -1; break; }
            if (lazy && wide)
                for (i64 j = 0; j < k; j++) hold[j] = repro_draw(&g);
            for (i64 j = 0; j < k; j++) {
                double u = repro_draw(&g);
                i64 v = ps[j];
                int move = 1;
                if (lazy) {
                    if (wide) move = hold[j] >= 0.5;
                    else if (u < 0.5) move = 0;
                    else u = 2.0 * (u - 0.5);
                }
                if (move) {
                    v = repro_neighbor(indptr, indices, v, u);
                    ps[j] = v;
                }
                REPRO_EVENT(ac[j], v);
                if (oc[v]) continue;
                i64 c = best[v];
                if (c < 0) { best[v] = j; claims++; }
                else if (pr && pr[ac[j]] < pr[ac[c]]) best[v] = j;
            }
            if (!claims) continue;
            i64 w = 0;
            for (i64 j = 0; j < k; j++) {
                i64 p = ac[j], v = ps[j];
                if (best[v] == j) {
                    best[v] = -1;
                    oc[v] = 1;
                    fr -= 1;
                    sp[p] = t;
                    se[p] = v;
                    rd[p] = t;
                } else {
                    ac[w] = p;
                    ps[w++] = v;
                }
            }
            k = w;
        }
        if (status == 1)
            for (i64 j = 0; j < k; j++) sp[ac[j]] = t;
        row[PAR_K] = k; row[PAR_T] = t; row[PAR_FREE] = fr;
        row[PAR_EVENTS] = nev;
        repro_rng_store(&g);
        if (status != 1) sh->which = r;
    }
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
