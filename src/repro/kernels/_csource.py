"""C source for the cffi kernel provider.

One translation unit, compiled with plain ``-O2 -ffp-contract=off``
(never ``-ffast-math``: the offset computation ``(i64)(u * (double)deg)``
and the holding layer's scales ``1 / ((double)k * rate)`` must be the
same IEEE double operations the numpy path performs, or the bit-identity
contract of :mod:`repro.kernels` breaks) and linked with numpy's
``libnpyrandom.a`` for its samplers.  :data:`C_SOURCE` is the includes,
then :data:`CDEF` -- the one place each shared typedef and exported
prototype is written, which cffi parses too -- then the function bodies,
so the compiler checks every definition against its declaration.

The functions mirror, line for line, the numpy round bodies in
:mod:`repro.core.batched` and the scalar micro-loops in
``_finish_parallel_rep`` / ``_finish_sequential_rep`` /
:mod:`repro.walks.single`, the jump chain of ``uniform_idla`` /
``ctu_idla`` and the round loops of ``parallel_idla`` -- every
behavioural quirk (the draw order around the budget checks, the clamped
pool slot of the jump chain) is deliberate and pinned by
``tests/test_differential_drivers.py``.  Every walk step is one
``repro_neighbor``: slot ``min((i64)(u*d), d - 1)``, which equals the
serial loops' unclamped ``int(u * deg)`` for every ``u < 1``.

The walk loops (``repro_finish_par1``, ``repro_walk_fill``,
``repro_walk_hit``) consume uniforms from a caller-provided buffer and
return ``0`` when it runs dry; the Python wrapper refills (see
``KernelSet`` in the package root) in the serial drivers' block cadence
wherever a later consumer reads the generator, so those fetch positions
stay on the serial grid.  The three shard loops (``repro_finish_seq``,
``repro_run_parallel``, ``repro_run_ticks``) instead take one
``repro_shard``: every repetition of a shard, each with its own state
row, rows of the shard's ``(R, m)`` arrays and draw source, from which it
draws each double in the serial order, so every generator ends right
after the last double its repetition consumed.  So do the holding layer
``repro_hold`` and ``repro_draw_doubles``.  A draw source (``repro_rng``,
one helper ``repro_draw`` for all the loops) is either an inline PCG64 --
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
steps; the other two run the repetitions one after another.  Either way
every repetition's draws and updates are those of the loop run on its
own.

CTU-IDLA and Uniform-IDLA share one jump chain, ``repro_run_ticks``, two
doubles a tick, which records the tick at which each level (``k``
unsettled particles) ends.  Their clocks follow from the levels alone:
``repro_hold`` brings each repetition's source to the serial driver's
block grid (a PCG64 jumps its LCG), then draws, with numpy's own
``random_gamma`` and ``random_negative_binomial``, CTU's
``Gamma(J_k, 1/(k*rate))`` level times or Uniform's ``NegBin(J_k,
k/pool)`` wasted ticks, or c-sequential's ``Gamma(steps, 1/rate)``
durations after ``repro_finish_seq`` (a shard of its own).  An inline PCG64 reaches the
samplers through a ``bitgen_t`` shim over its registers.

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
    i64 *jumps;
    i64 lazy;
    double budget, rate;
    i64 *best;
} repro_shard;

/* The kinds of holding variables repro_hold draws. */
enum { REPRO_HOLD_SEQ, REPRO_HOLD_CTU, REPRO_HOLD_UNIFORM };

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
i64 repro_run_ticks(repro_shard *sh);
void repro_hold(repro_shard *sh, i64 kind, const i64 *skip);
i64 repro_run_parallel(repro_shard *sh);
void repro_scatter_events(const int *ev, i64 nev, i64 *cursor, int *flat);
void repro_prefix_bitgen(bitgen_t *bg, repro_prefix_rng *a);
"""

C_SOURCE = """
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
""" + CDEF + """
/* numpy's samplers (numpy/random/distributions.h, which includes
 * Python.h), linked from numpy's libnpyrandom.a. */
double random_gamma(bitgen_t *bitgen_state, double shape, double scale);
int64_t random_negative_binomial(bitgen_t *bitgen_state, double n, double p);

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

/* The inline PCG64's next 64-bit output. */
static inline uint64_t repro_pcg64_next(repro_rng *g)
{
    g->s = g->s * REPRO_PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->s >> 64) ^ (uint64_t)g->s;
    unsigned rot = (unsigned)(g->s >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static inline double repro_draw(repro_rng *g)
{
    if (g->next) return g->next(g->st);
    return (double)(repro_pcg64_next(g) >> 11) * (1.0 / 9007199254740992.0);
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

/* The tick loop runs the R repetitions of a shard in one call, one after
 * another (a repetition runs to completion, then the next starts).
 * Interleaving repetitions, as repro_finish_seq does, does not pay here: a
 * tick picks a random particle, so consecutive ticks of one repetition
 * already overlap in the CPU.  A prototype 4-lane round-robin CTU loop
 * gave the same rows but took 24.8 ns a tick on the 64-cycle and 24.6 on
 * the 10x10 grid, against 20.7 and 23.0 ns one repetition at a time
 * (2-core x86-64 VM, three doubles a tick). */

/* State row of the tick loop: the pool size k, the settle-order length,
 * the tick count and the event count. */
enum { TICK_K, TICK_NO, TICK_T, TICK_EVENTS, TICK_STATE };

/* The jump chain of CTU-IDLA and Uniform-IDLA (the loop of
 * uniform_idla's jump_chain) for the R repetitions of a shard, each from
 * its state row, on its rows pool, pos, steps, settled, order and jumps.
 * pool[0..k) holds its unsettled particles (swap-remove order), order[]
 * its settle order so far.  Per tick: the tick count and the budget check,
 * then two doubles from the repetition's draw source, the clamped pool
 * slot and the step.  When the particle that steps settles, the level of
 * k unsettled particles ends: jumps[k] = the tick count, so level k took
 * jumps[k] - jumps[k+1] ticks (jumps[K0+1] = 0 for the first level K0);
 * levels never entered keep their 0.  Returns 1 when every repetition is
 * done, 2 before a tick the sink of repetition `which` has no room for
 * (resume with an empty one), -1 once the tick count of repetition
 * `which` exceeds the budget; on any return every visited row is written
 * back.  With a sink, each tick records (particle, new vertex). */
i64 repro_run_ticks(repro_shard *sh)
{
    const i64 *indptr = sh->indptr, *indices = sh->indices;
    const uintptr_t *evs = sh->evs;
    i64 *state = sh->state, R = sh->R, n = sh->n, m = sh->m;
    double budget = sh->budget;
    i64 status = 1;
    for (i64 r = 0; r < R && status == 1; r++) {
        i64 *row = state + r * TICK_STATE;
        i64 k = row[TICK_K], no = row[TICK_NO], t = row[TICK_T];
        i64 nev = row[TICK_EVENTS];
        if (!k) continue;
        repro_rng g;
        repro_rng_load(&g, sh, r);
        unsigned char *oc = sh->occ + r * n;
        i64 *pl = sh->pool + r * m, *ps = sh->pos + r * m;
        i64 *sp = sh->steps + r * m, *se = sh->settled + r * m;
        i64 *od = sh->order + r * m, *ends = sh->jumps + r * m;
        int *ev = evs ? (int *)evs[r] : NULL;
        i64 cap = evs ? sh->caps[r] : 0;
        while (k) {
            if (evs && nev >= cap) { status = 2; break; }
            t += 1;
            if ((double)t > budget) { status = -1; break; }
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
            ends[k] = t;
            pl[s] = pl[--k];
        }
        row[TICK_K] = k; row[TICK_NO] = no; row[TICK_T] = t;
        row[TICK_EVENTS] = nev;
        repro_rng_store(&g);
        if (status != 1) sh->which = r;
    }
    return status;
}

/* ---- the holding layer ------------------------------------------------
 * After its chain, each repetition draws its holding variables from its
 * own source with numpy's own samplers, so the serial drivers'
 * Generator.gamma / Generator.negative_binomial calls give the same bits.
 * A source reaches them as a bitgen_t: a generic row through its own, an
 * inline PCG64 through repro_rng_bitgen's shim over its registers. */
static uint64_t repro_shim_next64(void *st)
{
    return repro_pcg64_next((repro_rng *)st);
}

/* numpy buffers the high half for the next call; no sampler used here
 * asks for 32 bits, and the self-check would show one that did. */
static uint32_t repro_shim_next32(void *st)
{
    return (uint32_t)repro_pcg64_next((repro_rng *)st);
}

static double repro_shim_next_double(void *st)
{
    return repro_draw((repro_rng *)st);
}

/* Skip `count` doubles of g: an inline PCG64 jumps its LCG in
 * O(log count) (pcg's advance: count steps of s = s * M + inc), any other
 * source draws and discards them. */
static void repro_skip(repro_rng *g, i64 count)
{
    if (g->next) {
        for (i64 i = 0; i < count; i++) g->next(g->st);
        return;
    }
    repro_u128 mult = REPRO_PCG_MULT, plus = g->inc, am = 1, ap = 0;
    for (uint64_t c = (uint64_t)count; c; c >>= 1) {
        if (c & 1) {
            am *= mult;
            ap = ap * mult + plus;
        }
        plus = (mult + 1) * plus;
        mult *= mult;
    }
    g->s = am * g->s + ap;
}

/* The holding layer for the R repetitions of a shard whose chains are
 * done.  Row r first skips skip[r] doubles, which brings its source to
 * where the serial driver's block fetches leave it, then draws, by kind:
 * REPRO_HOLD_SEQ: each walked particle p's duration
 *   sclock[p] = Gamma(steps[p], 1/rate), in index order;
 * REPRO_HOLD_CTU: for each level k (jumps[k] > 0), from the first down to
 *   k = 1, c += Gamma(J_k, 1/(k*rate)), the particle that ends the level
 *   (order[m-k]) settling at clock c;
 * REPRO_HOLD_UNIFORM: for each level k < m-1 (the pool size), from the
 *   first down, NegBin(J_k, k/(m-1)) wasted ticks, added to the row's tick
 *   count. */
void repro_hold(repro_shard *sh, i64 kind, const i64 *skip)
{
    i64 m = sh->m;
    double rate = sh->rate;
    for (i64 r = 0; r < sh->R; r++) {
        repro_rng g;
        repro_rng_load(&g, sh, r);
        repro_skip(&g, skip[r]);
        bitgen_t shim = {&g, repro_shim_next64, repro_shim_next32,
                         repro_shim_next_double, repro_shim_next64};
        bitgen_t *bg = g.next ? (bitgen_t *)sh->bgs[r] : &shim;
        if (kind == REPRO_HOLD_SEQ) {
            const i64 *sp = sh->steps + r * m;
            double *sc = sh->sclock + r * m;
            for (i64 p = 0; p < m; p++)
                if (sp[p]) sc[p] = random_gamma(bg, (double)sp[p], 1.0 / rate);
        } else {
            const i64 *ends = sh->jumps + r * m;
            double c = 0.0;
            i64 prev = 0, wasted = 0;
            for (i64 k = m - 1; k > 0; k--) {
                if (!ends[k]) continue;
                double j = (double)(ends[k] - prev);
                prev = ends[k];
                if (kind == REPRO_HOLD_CTU) {
                    c = c + random_gamma(bg, j, 1.0 / ((double)k * rate));
                    sh->sclock[r * m + sh->order[r * m + m - k]] = c;
                } else if (k < m - 1) {
                    wasted += random_negative_binomial(
                        bg, j, (double)k / (double)(m - 1));
                }
            }
            if (kind == REPRO_HOLD_UNIFORM)
                sh->state[r * TICK_STATE + TICK_T] += wasted;
        }
        repro_rng_store(&g);
    }
}

/* State row of repro_run_parallel: active count, round, vacant-vertex
 * count, events. */
enum { PAR_K, PAR_T, PAR_FREE, PAR_EVENTS, PAR_STATE };

/* Parallel-IDLA (parallel_idla's round loop) for the R repetitions of a
 * shard, one after another, each from its state after the round-0
 * settlement pass, on its rows pool (the active list), pos, prio, steps,
 * settled and round; pool[0..k) holds its unsettled particles ascending
 * and pos[0..k) their vertices.  Each round steps every active particle
 * in active-list order on one double u of its own (lazy: hold below 1/2,
 * else step with 2(u - 1/2)) -- the serial order.  The contest rides the
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
    i64 lazy = sh->lazy, *best = sh->best;
    double budget = sh->budget;
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
            i64 claims = 0;
            if (evs && nev + k > cap) { status = 2; break; }
            t += 1;
            if ((double)t > budget) { status = -1; break; }
            for (i64 j = 0; j < k; j++) {
                double u = repro_draw(&g);
                i64 v = ps[j];
                if (!lazy || u >= 0.5) {
                    v = repro_neighbor(indptr, indices, v,
                                       lazy ? 2.0 * (u - 0.5) : u);
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
 * self-check), 0.0 once past the end.  `i` counts every double of either
 * kind, so a loop that over-consumes its doubles shows in it.  Integer
 * outputs (which numpy's samplers in the holding layer take, after the
 * chain spent the prefix) come from `rest`, 0 without one. */
static double repro_prefix_next_double(void *st)
{
    repro_prefix_rng *a = (repro_prefix_rng *)st;
    i64 i = a->i++;
    if (i < a->n) return a->buf[i];
    return a->rest ? a->rest->next_double(a->rest->state) : 0.0;
}

static uint64_t repro_prefix_next_uint64(void *st)
{
    bitgen_t *rest = ((repro_prefix_rng *)st)->rest;
    return rest ? rest->next_uint64(rest->state) : 0;
}

static uint32_t repro_prefix_next_uint32(void *st)
{
    bitgen_t *rest = ((repro_prefix_rng *)st)->rest;
    return rest ? rest->next_uint32(rest->state) : 0;
}

void repro_prefix_bitgen(bitgen_t *bg, repro_prefix_rng *a)
{
    bg->state = a;
    bg->next_uint64 = repro_prefix_next_uint64;
    bg->next_uint32 = repro_prefix_next_uint32;
    bg->next_double = repro_prefix_next_double;
    bg->next_raw = repro_prefix_next_uint64;
}
"""
