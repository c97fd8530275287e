"""Batched cross-repetition dispersion drivers.

Monte-Carlo estimation of ``E[τ]`` repeats one stochastic process ``R``
times.  The serial runner replays the full per-round NumPy dispatch cost
``R`` times — on graphs with long settlement tails (the cycle spends
``Θ(n² log n)`` rounds on a handful of stragglers) that overhead dwarfs
the useful element work.  The drivers here advance **all repetitions in
lock-step** instead: one flat state vector concatenates every
repetition's unsettled particles, one :func:`repro.walks.engine
.neighbor_step` call advances them together through the graph's slot
kernel, and one lexsort resolves settlement per
``(repetition, vertex)`` cell.  Per-repetition completion masks drop
finished repetitions from the flat state, so round ``t`` costs
``O(live particles at t)`` plus a constant number of NumPy calls — the
same vectorise-the-outer-loop move the serial engine applies to
particles, lifted one level up to repetitions.

Streaming buffers and the scalar tail finisher
----------------------------------------------
Uniforms come from :class:`repro.utils.rng.UniformStreams`: per-repetition
refill chunks over one shared buffer whose total size is *bounded* (the
chunk shrinks as the repetition count grows), so batching is open to any
graph size and repetition count — the old ``reps × block`` preallocation
and the ``_BATCHED_MAX_BUFFER_DOUBLES`` auto-dispatch decline it forced
are gone.  Chunk-invariance of NumPy double streams makes the chunk size
invisible in the results.

The same property permits a mid-stream handoff: once only a few
**repetitions survive** (for the parallel driver, each additionally down
to its serial driver's scalar narrow phase — ``scalar_threshold`` live
particles), the lock-step round (a fixed number of NumPy calls, ~µs
each) costs more than scalar work on the stragglers, so each surviving
repetition is handed to a plain-Python micro-loop (the serial drivers'
own narrow-phase shape) that continues its uniform stream via
:meth:`UniformStreams.tail` — the *scalar tail finisher*, engaged
throughout the deep ``Θ(n² log n)`` settlement tails the paper proves
for the cycle (counting live *particles*, the old criterion, kept the
round machinery running until the stragglers' combined width shrank
too).

Bit-identical replay
--------------------
Each repetition consumes uniforms from its **own child generator** in
exactly the order the serial driver would.  NumPy's ``Generator.random``
produces an identical double stream regardless of how draws are chunked
(``random(a)`` then ``random(b)`` equals ``random(a + b)`` split), so the
per-repetition streaming chunks here replay the serial drivers'
``random(k)``-per-round / block-buffered-scalar draw patterns double for
double, before *and* after the finisher handoff.  Consequently::

    batched_parallel_idla(g, seeds=seeds) ==
        [parallel_idla(g, seed=s) for s in seeds]      # bit for bit

including the lazy variants, random tie-breaking, custom origins and the
``m ≠ n`` particle-count variants (enforced by
``tests/test_core_batched.py`` and ``tests/test_streaming_buffers.py``).
Two serial quirks are reproduced deliberately:

* the serial parallel driver's scalar-tail fallback changes the *lazy*
  draw pattern below ``scalar_threshold`` active particles (two uniforms
  per particle per round above it, one below); the batched driver — and
  the finisher — track a per-repetition wide/narrow mode so the streams
  stay aligned;
* settling rules are evaluated only on vacant candidates — identical
  outcomes for the library's (pure) rules, far fewer Python calls.

The sequential driver additionally leaves every repetition's generator at
the **serial stream position** (``UniformStreams.align_to_serial``): the
Poissonised sequential driver keeps consuming the generator after the
discrete walks, so the fetch grid matters there, not just the values.

``record=True`` routes the flat per-round state into the chunked
:class:`repro.core.trajectory.TrajectoryStore` — one slice append per
round, finalised into the serial drivers' exact ``list[list[int]]``
trajectories, with straggler repetitions handed to the finisher via
:meth:`TrajectoryStore.handoff` so the scalar micro-loops keep appending
to the recorded prefix.  The runner validates driver kwargs up front
(unknown keys raise ``TypeError`` there) and routes impure settling
rules to the serial reference path, which stays the oracle the batched
subsystem is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import cohort_slices, plan_state
from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult
from repro.core.sequential import _BLOCK as _SERIAL_SEQ_BLOCK
from repro.core.settlement import (
    chunked_vacancies,
    instant_settle_chain,
    select_settlers,
    settle_vacant_starts,
)
from repro.core.stopping_rules import StoppingRule, standard_rule
from repro.core.trajectory import TrajectoryStore
from repro.graphs.csr import Graph, neighbor_kernel
from repro.kernels import csr_arrays, get_kernels
from repro.utils.validation import check_integer, check_limit, check_record
from repro.utils.rng import (
    UniformStream,
    UniformStreams,
    as_generator,
    resolve_stream_block,
    spawn_generators,
)
from repro.walks.engine import neighbor_step

__all__ = [
    "batched_parallel_idla",
    "batched_sequential_idla",
    "buffer_doubles",
    "stream_block",
]

#: Test override for the streaming refill chunk (doubles per repetition);
#: ``None`` auto-sizes through :func:`repro.utils.rng.resolve_stream_block`.
#: For the sequential driver an override must be a power of two dividing
#: the serial fetch block (the generator-position parity the Poissonised
#: driver relies on is only provable on that grid).
_BLOCK: int | None = None

#: Scalar-tail-finisher default: once this few repetitions survive (and,
#: for the parallel driver, each is already in the serial driver's scalar
#: narrow phase), every straggler repetition is handed to the serial
#: scalar micro-loop.  Counting *repetitions* rather than particles is
#: what engages the finisher throughout the deep settlement tail — a
#: handful of stragglers used to keep the whole lock-step round machinery
#: running until their combined particle count shrank too.
_TAIL_THRESHOLD = 16


def _parallel_streams(gens, m: int, budget_doubles=None) -> UniformStreams:
    """Streams for the parallel driver: one round consumes <= 2·m + 2."""
    return UniformStreams(
        gens,
        per_rep_min=2 * m + 2,
        block=_BLOCK,
        budget_doubles=budget_doubles,
    )


def _sequential_streams(gens, budget_doubles=None) -> UniformStreams:
    """Streams for the sequential driver, aligned to the serial fetch grid."""
    return UniformStreams(
        gens,
        per_rep_min=1,
        align=_SERIAL_SEQ_BLOCK,
        block=_BLOCK,
        budget_doubles=budget_doubles,
    )


def stream_block(
    process: str,
    reps: int,
    num_particles: int,
    *,
    budget_doubles: int | None = None,
) -> int:
    """Per-repetition streaming chunk (doubles) a batched run allocates.

    The synchronous drivers' own sizing export — resolved through the same
    :func:`repro.utils.rng.resolve_stream_block` the drivers' allocations
    use, so reported sizes always match reality (pinned by
    ``tests/test_streaming_buffers.py``).  ``budget_doubles`` is the
    stream shrink a byte :class:`~repro.core.budget.StateBudget` resolves
    to (``BudgetPlan.stream_budget_doubles``); pass it to report the
    budgeted allocation.
    """
    if process == "parallel":
        return resolve_stream_block(
            reps,
            per_rep_min=2 * num_particles + 2,
            block=_BLOCK,
            budget_doubles=budget_doubles,
        )
    if process == "sequential":
        return resolve_stream_block(
            reps,
            per_rep_min=1,
            align=_SERIAL_SEQ_BLOCK,
            block=_BLOCK,
            budget_doubles=budget_doubles,
        )
    raise ValueError(f"no synchronous batched driver for process {process!r}")


def buffer_doubles(process: str, reps: int, num_particles: int) -> int:
    """Uniform-buffer doubles a batched run allocates (reporting only).

    Consults the sizing export of the module that actually owns the
    driver: the synchronous processes resolve here, the tick-scheduled
    ones — **including** ``c-sequential``, whose driver lives in
    :mod:`repro.core.batched_continuous` — through that module's
    ``stream_block``.  The old version sized every non-continuous process
    with this module's block constant, which reported a size unrelated to
    what the owning driver allocated.  Since the streaming scheme bounds
    the total by construction, this is no longer a dispatch input, just
    an introspection helper.
    """
    if process in ("ctu", "uniform", "c-sequential"):
        from repro.core.batched_continuous import (
            stream_block as continuous_stream_block,
        )

        return reps * continuous_stream_block(process, reps, num_particles)
    return reps * stream_block(process, reps, num_particles)


def _resolve_generators(seeds, seed, reps) -> list[np.random.Generator]:
    """Normalise the (seeds | seed+reps) repetition-stream specification."""
    if seeds is not None:
        gens = [as_generator(s) for s in seeds]
        if reps is not None and reps != len(gens):
            raise ValueError(f"reps={reps} does not match len(seeds)={len(gens)}")
        return gens
    if reps is None:
        raise ValueError("either `seeds` or `reps` must be given")
    reps = check_integer("reps", reps)
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    return spawn_generators(seed, reps)


def _particle_count(g: Graph, num_particles, label: str) -> int:
    """Validated particle count ``m`` of a process that needs ``m <= n``."""
    m = g.n if num_particles is None else check_integer("num_particles", num_particles)
    if not 1 <= m <= g.n:
        raise ValueError(
            f"{label} IDLA needs 1 <= num_particles <= n, got {m} (n={g.n})"
        )
    return m


def _in_cohorts(driver, g, origin, gens, cohort_reps, **kwargs):
    """Budgeted cohorts: ``driver`` runs ``cohort_reps`` repetitions to
    completion at a time.  Repetition r always consumes generator r's
    stream, so the grouping is invisible in the results; each call
    re-resolves the same plan and proceeds single-cohort."""
    return [
        res
        for a, b in cohort_slices(len(gens), cohort_reps)
        for res in driver(g, origin, seeds=gens[a:b], **kwargs)
    ]


def _finalize(store, record):
    """Per-repetition trajectories of a recorded run, else ``None``."""
    if store is None:
        return None
    if record == "arrays":
        return store.finalize_arrays()
    return store.finalize()


def _resolve_tail_threshold(tail_threshold) -> int:
    if tail_threshold is None:
        return _TAIL_THRESHOLD
    threshold = check_integer("tail_threshold", tail_threshold)
    if threshold < 0:
        raise ValueError(f"tail_threshold must be >= 0, got {tail_threshold}")
    return threshold


# ----------------------------------------------------------------------
# Parallel-IDLA
# ----------------------------------------------------------------------
def _finish_parallel_rep(
    adj,
    occ_row,
    pids,
    positions,
    prio_of,
    t,
    free_r,
    tail: UniformStream,
    *,
    lazy,
    scalar_threshold,
    use_default_rule,
    rule,
    budget,
    max_rounds,
    steps_row,
    settled_row,
    round_row,
    traj_rows=None,
    kern=None,
    csr=None,
):
    """Run one straggler repetition to completion with the scalar micro-loop.

    Continues the repetition's uniform stream through ``tail`` in exactly
    the serial draw pattern: the lazy wide phase (``k > scalar_threshold``)
    consumes ``k`` hold gates then ``k`` step uniforms per round, the
    narrow phase one uniform per particle per round.  Settlement is the
    serial narrow-phase contest (per vacant vertex, best priority wins).
    Mutates the repetition's occupancy / steps / settled / round rows, and
    — when recording — appends to ``traj_rows``, the repetition's
    :meth:`TrajectoryStore.handoff` lists (one vertex per particle per
    round, holds included, the serial record shape).

    ``kern``/``csr`` (a compiled :class:`repro.kernels.KernelSet` and the
    graph's host CSR arrays) delegate the dominant single-straggler loop
    to the compiled twin; the caller passes them only when the run's
    gates hold (default rule, no recording).
    Multi-particle rounds write occupancy through a ``uint8`` view of the
    boolean row, so the compiled loop and the Python contest see the same
    cells.
    """
    occl = occ_row.view(np.uint8) if kern is not None else occ_row.tolist()
    uniform = tail.uniform
    rec = traj_rows is not None
    k = len(pids)
    while k and free_r > 0:
        if k == 1 and not (lazy and k > scalar_threshold):
            # the common straggler shape: one particle, no competition —
            # a dedicated micro-loop without the per-round contest
            p = pids[0]
            v = positions[0]
            row = traj_rows[p] if rec else None
            guard = k > scalar_threshold  # serial wide phase uses the vector step
            if kern is not None:
                v, t = kern.finish_parallel_single(
                    csr[0], csr[1], occl, tail,
                    v=v, t=t, lazy=lazy, guard=guard, budget=budget,
                    limit_msg=f"parallel IDLA exceeded max_rounds={max_rounds}",
                )
                steps_row[p] = t
                settled_row[p] = v
                round_row[p] = t
                return
            while True:
                t += 1
                if t > budget:
                    raise RuntimeError(
                        f"parallel IDLA exceeded max_rounds={max_rounds}"
                    )
                u = uniform()
                if lazy:
                    if u < 0.5:
                        if rec:
                            row.append(v)
                        continue
                    u = 2.0 * (u - 0.5)
                nbrs = adj[v]
                if guard:
                    d = len(nbrs)
                    off = int(u * d)
                    v = nbrs[d - 1 if off >= d else off]
                else:
                    v = nbrs[int(u * len(nbrs))]
                if rec:
                    row.append(v)
                if occl[v]:
                    continue
                if not use_default_rule and not rule(t, v, True):
                    continue
                occl[v] = True
                steps_row[p] = t
                settled_row[p] = v
                round_row[p] = t
                return
        t += 1
        if t > budget:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        if lazy and k > scalar_threshold:
            # wide draw pattern: k hold gates, then k step uniforms (the
            # serial eng.step_lazy order); steps use the vector-step guard
            gates = tail.take(k)
            steps_u = tail.take(k)
            for j in range(k):
                if gates[j] >= 0.5:
                    nbrs = adj[positions[j]]
                    d = len(nbrs)
                    off = int(steps_u[j] * d)
                    if off >= d:
                        off = d - 1
                    positions[j] = nbrs[off]
                if rec:
                    traj_rows[pids[j]].append(positions[j])
        elif lazy:
            for j in range(k):
                u = uniform()
                if u < 0.5:
                    if rec:
                        traj_rows[pids[j]].append(positions[j])
                    continue
                u = 2.0 * (u - 0.5)
                nbrs = adj[positions[j]]
                positions[j] = nbrs[int(u * len(nbrs))]
                if rec:
                    traj_rows[pids[j]].append(positions[j])
        elif k > scalar_threshold:
            for j in range(k):
                u = uniform()
                nbrs = adj[positions[j]]
                d = len(nbrs)
                off = int(u * d)
                if off >= d:
                    off = d - 1
                positions[j] = nbrs[off]
                if rec:
                    traj_rows[pids[j]].append(positions[j])
        else:
            for j in range(k):
                u = uniform()
                nbrs = adj[positions[j]]
                positions[j] = nbrs[int(u * len(nbrs))]
                if rec:
                    traj_rows[pids[j]].append(positions[j])
        best: dict[int, int] = {}
        for j in range(k):
            v = positions[j]
            if occl[v]:
                continue
            if not use_default_rule and not rule(t, v, True):
                continue
            b = best.get(v)
            if b is None or prio_of(pids[j]) < prio_of(pids[b]):
                best[v] = j
        if not best:
            continue
        for j in best.values():
            p, v = pids[j], positions[j]
            occl[v] = True
            free_r -= 1
            steps_row[p] = t
            settled_row[p] = v
            round_row[p] = t
        drop = set(best.values())
        pids = [p for j, p in enumerate(pids) if j not in drop]
        positions = [v for j, v in enumerate(positions) if j not in drop]
        k = len(pids)
        if free_r == 0 and k:
            # repetition complete with surplus particles (m > n): they
            # walked until the last vertex filled — t steps each
            for p in pids:
                steps_row[p] = t
            break


def batched_parallel_idla(
    g: Graph,
    origin=0,
    *,
    reps: int | None = None,
    seeds=None,
    seed=None,
    lazy: bool = False,
    record: bool | str = False,
    tie_break: str = "index",
    rule: StoppingRule | None = None,
    num_particles: int | None = None,
    scalar_threshold: int = 16,
    max_rounds: float | None = None,
    tail_threshold: int | None = None,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent Parallel-IDLA realisations in lock-step.

    Parameters
    ----------
    reps, seeds, seed:
        Either pass ``seeds`` — one seed/generator per repetition (the
        runner passes the children of one ``SeedSequence``) — or ``reps``
        plus an optional parent ``seed`` from which children are spawned
        exactly like :func:`repro.utils.rng.spawn_generators`.
    lazy, record, tie_break, rule, num_particles, scalar_threshold, max_rounds:
        As in :func:`repro.core.parallel.parallel_idla`; ``rule`` must be
        a pure predicate (it is evaluated only on vacant candidates).
        ``record=True`` (or ``"arrays"``) keeps full trajectories,
        appending one vectorised slice per round to the chunked
        :class:`~repro.core.trajectory.TrajectoryStore`.  Memory
        is ``O(total steps)`` as in the serial driver, and entry ``r``'s
        trajectories are identical to it.
    tail_threshold:
        Surviving-repetition count at which the scalar tail finisher
        takes over the stragglers (once each survivor is also down to
        ``scalar_threshold`` live particles — i.e. inside the serial
        driver's own scalar narrow phase); ``0`` disables the handoff,
        ``None`` uses the module default.  A performance knob only —
        results are bit-identical either way.
    state_budget:
        Optional :class:`repro.core.budget.StateBudget` (or spec string)
        capping resident simulation state.  Resolved by
        :func:`repro.core.budget.plan_state` into repetition cohorts run
        back to back, mid-round particle chunking of the step/probe
        transients, and a streaming-buffer shrink — all invisible in the
        results (each repetition still consumes its own stream in serial
        order).  ``record=True`` trajectory storage grows with total
        steps and is deliberately outside the cap.
    kernels:
        :class:`repro.kernels.KernelSet` (or provider name) for the
        compiled inner-loop layer.  Defaults to the ``REPRO_KERNELS``
        environment selection, then auto-detection.  Compiled kernels
        engage only with a materialised host CSR, and are a performance
        knob only — every sample stays bit-identical to the serial oracle
        (the differential harness pins this per provider).

    Returns
    -------
    list[DispersionResult]
        Entry ``r`` is bit-identical to
        ``parallel_idla(g, origin, seed=seeds[r], ...)``.

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> batch = batched_parallel_idla(cycle_graph(16), reps=3, seed=7)
    >>> [r.is_complete_dispersion() for r in batch]
    [True, True, True]
    """
    n = g.n
    m, scalar_threshold, budget = _parallel_checks(
        g, num_particles, tie_break, scalar_threshold, max_rounds
    )
    tail_total = _resolve_tail_threshold(tail_threshold)
    record = check_record(record)
    kern = get_kernels(kernels)
    gens = _resolve_generators(seeds, seed, reps)
    R = len(gens)
    if R == 0:
        return []
    plan = plan_state(state_budget, "parallel", n, m)
    if plan.cohort_reps < R:
        return _in_cohorts(
            batched_parallel_idla, g, origin, gens, plan.cohort_reps,
            lazy=lazy, record=record, tie_break=tie_break, rule=rule,
            num_particles=num_particles, scalar_threshold=scalar_threshold,
            max_rounds=max_rounds, tail_threshold=tail_threshold,
            state_budget=state_budget, kernels=kern,
        )
    step_chunk = plan.step_chunk
    use_default_rule = rule is None or rule is standard_rule
    process = "parallel-lazy" if lazy else "parallel"
    starts2d, prio2d, occ, free, steps2d, settled2d, round2d = _parallel_prelude(
        g, origin, m, gens, tie_break
    )
    steps2d_flat = steps2d.reshape(-1)
    settled2d_flat = settled2d.reshape(-1)
    round2d_flat = round2d.reshape(-1)
    store = TrajectoryStore(starts2d, n) if record else None

    # ---- flat lock-step state: all repetitions' unsettled particles,
    # grouped by repetition, ascending particle index within each group
    rep_ids, pid = np.nonzero(settled2d < 0)
    if np.any(free[rep_ids] == 0):
        # a repetition already complete at round 0 (m > n with covering
        # starts): its surplus particles performed 0 steps — drop them
        alive = free[rep_ids] > 0
        rep_ids, pid = rep_ids[alive], pid[alive]
    pos = starts2d[rep_ids, pid].copy()

    streams = _parallel_streams(gens, m, plan.stream_budget_doubles)
    block = streams.block
    streams.fill(range(R))
    buf_flat = streams.flat
    bptr = np.zeros(R, dtype=np.int64)

    # per-round flat metadata, recomputed whenever particles leave
    k = counts = counts_exp = rep_off = prio_flat = bidx = None
    k_exp = wide_exp = None
    rounds_buffered = 0

    def buffered_rounds() -> int:
        """Rounds the repetition buffers can serve before the next refill."""
        live = counts > 0
        if not np.any(live):
            return 1
        return int(np.min((block - bptr[live]) // counts[live]))

    def rebuild():
        nonlocal k, counts, counts_exp, rep_off, prio_flat, bidx
        nonlocal k_exp, wide_exp, rounds_buffered
        k = np.bincount(rep_ids, minlength=R)
        if lazy:
            # the serial driver's wide phase (active > threshold) consumes
            # 2 uniforms per particle per round, the scalar tail only 1
            wide = k > scalar_threshold
            counts = np.where(wide, 2 * k, k)
            k_exp = k[rep_ids]
            wide_exp = wide[rep_ids]
        else:
            counts = k
        counts_exp = counts[rep_ids]
        rep_off = rep_ids * n
        prio_flat = pid if prio2d is None else prio2d[rep_ids, pid]
        group_start = (np.cumsum(k) - k)[rep_ids]
        within = np.arange(rep_ids.size, dtype=np.int64) - group_start
        bidx = rep_ids * block + bptr[rep_ids] + within
        rounds_buffered = buffered_rounds()

    def compact(keep, affected):
        """Drop masked-out particles, fixing only the affected repetitions.

        Incremental replacement for :func:`rebuild` on settlement rounds:
        per-particle
        metadata is preserved by the mask for every repetition that lost no
        particles (a particle's buffer slot ``bidx`` and ``counts_exp``
        depend only on its repetition's state and its rank *within* that
        repetition), so only the few repetitions in ``affected`` need their
        slices rewritten.
        """
        nonlocal rep_ids, pid, pos, counts_exp, rep_off, prio_flat, bidx
        nonlocal k_exp, wide_exp, rounds_buffered
        rep_ids, pid, pos = rep_ids[keep], pid[keep], pos[keep]
        counts_exp, rep_off, bidx = counts_exp[keep], rep_off[keep], bidx[keep]
        prio_flat = pid if prio2d is None else prio_flat[keep]
        if lazy:
            k_exp, wide_exp = k_exp[keep], wide_exp[keep]
        group_start = np.cumsum(k) - k
        for r in affected:
            kr = int(k[r])
            if lazy:
                wide_r = kr > scalar_threshold
                counts[r] = 2 * kr if wide_r else kr
            sl = slice(int(group_start[r]), int(group_start[r]) + kr)
            counts_exp[sl] = counts[r]
            bidx[sl] = r * block + bptr[r] + np.arange(kr, dtype=np.int64)
            if lazy:
                k_exp[sl] = kr
                wide_exp[sl] = wide_r
        rounds_buffered = buffered_rounds()

    def refill():
        nonlocal rounds_buffered
        for r in np.flatnonzero(bptr + counts > block):
            bidx[rep_ids == r] -= bptr[r]
            streams.refill_tail(int(r), int(bptr[r]))
            bptr[r] = 0
        rounds_buffered = buffered_rounds()

    def tail_ready() -> bool:
        """Handoff criterion, recomputed only when ``k`` changes.

        Hand off when few *repetitions* survive — the lock-step round
        cost is dominated by per-repetition metadata, not particles —
        and every survivor is already inside the serial driver's scalar
        narrow phase (``<= scalar_threshold`` live particles), so the
        micro-loop is the regime the serial driver itself would use.
        Counting live particles instead (the old criterion) kept the
        round machinery running through the whole deep settlement tail.
        """
        if tail_total <= 0 or rep_ids.size == 0:
            return False
        return (
            int(np.count_nonzero(k)) <= tail_total
            and int(k.max()) <= scalar_threshold
        )

    rebuild()
    kernel = neighbor_kernel(g)
    degrees_g = g.degrees
    # compiled inner-loop layer: the step/finisher need a materialised
    # host CSR; the settlement kernel needs none, so it serves implicit
    # families too.
    compiled = kern.compiled
    fused = kern.stepper(g)
    csr = csr_arrays(g) if compiled else None
    settle_scratch = kern.make_settle_scratch(n) if compiled else None
    # narrow rounds (the settlement tail) keep the numpy expressions: the
    # compiled call overhead only pays for itself from min_width lanes up
    minw = kern.min_width
    # regular graphs (most of Table 1): constant degree turns the degree
    # gathers into scalar arithmetic — the round body drops to the uniform
    # lookup, the slot kernel and the occupancy probe.  The O(n) helper
    # arrays exist only on the irregular path, so implicit regular
    # families keep their O(1)-in-m footprint.
    regular = n > 0 and g.is_regular()
    if regular:
        c_int = int(degrees_g[0])
        c_float = float(c_int)
    else:
        degm1 = degrees_g - 1
        degf = degrees_g.astype(np.float64)
    t = 0
    handoff = tail_ready()

    while rep_ids.size:
        if handoff:
            # ---- scalar tail finisher: the lock-step round costs more
            # than scalar work on the few stragglers left; hand each
            # surviving repetition its stream mid-flight and finish it
            # with the serial micro-loop.
            fin_kern = (
                kern
                if compiled
                and csr is not None
                and use_default_rule
                and store is None
                else None
            )
            # the compiled single-straggler loop walks the CSR directly;
            # adjacency lists are only needed for the Python rounds
            # (multi-particle stragglers, or the lazy wide shape at k=1)
            adj = (
                None
                if fin_kern is not None
                and int(k.max()) == 1
                and not (lazy and scalar_threshold < 1)
                else g.adjacency_lists()
            )
            for r in np.unique(rep_ids).tolist():
                mask = rep_ids == r
                prio_row = prio2d[r] if prio2d is not None else None
                _finish_parallel_rep(
                    adj,
                    occ[r * n : (r + 1) * n],
                    pid[mask].tolist(),
                    pos[mask].tolist(),
                    (lambda p: p)
                    if prio_row is None
                    else (lambda p, _row=prio_row: _row[p]),
                    t,
                    int(free[r]),
                    streams.tail(r, int(bptr[r])),
                    lazy=lazy,
                    scalar_threshold=scalar_threshold,
                    use_default_rule=use_default_rule,
                    rule=rule,
                    budget=budget,
                    max_rounds=max_rounds,
                    steps_row=steps2d[r],
                    settled_row=settled2d[r],
                    round_row=round2d[r],
                    traj_rows=store.handoff(r) if store is not None else None,
                    kern=fin_kern,
                    csr=csr,
                )
            break
        t += 1
        if t > budget:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        if rounds_buffered <= 0:
            refill()
        rounds_buffered -= 1
        if step_chunk is not None and step_chunk < rep_ids.size:
            # budgeted round body: identical elementwise work over
            # `step_chunk`-sized slices of the flat state, so the per-round
            # scratch (uniform gathers, offsets, `where` temps) is bounded
            # by the chunk instead of the walker count.  Elementwise ufuncs
            # are slice-invariant, so every double lands exactly where the
            # one-shot body would put it.
            for a in range(0, rep_ids.size, step_chunk):
                sl = slice(a, min(a + step_chunk, rep_ids.size))
                wide_enough = fused is not None and sl.stop - sl.start >= minw
                if lazy:
                    we = wide_exp[sl]
                    u = buf_flat[bidx[sl]]
                    u2 = buf_flat[bidx[sl] + np.where(we, k_exp[sl], 0)]
                    move = u >= 0.5
                    ustep = np.where(we, u2, 2.0 * (u - 0.5))
                    if wide_enough:
                        new = fused(pos[sl], ustep)
                    else:
                        new = neighbor_step(kernel, degrees_g, pos[sl], ustep)
                    pos[sl] = np.where(move, new, pos[sl])
                elif wide_enough:
                    pos[sl] = fused(pos[sl], buf_flat[bidx[sl]])
                elif regular:
                    u = buf_flat[bidx[sl]]
                    offsets = (u * c_float).astype(np.int64)
                    np.minimum(offsets, c_int - 1, out=offsets)
                    pos[sl] = kernel(pos[sl], offsets)
                else:
                    u = buf_flat[bidx[sl]]
                    deg = degf[pos[sl]]
                    offsets = (u * deg).astype(np.int64)
                    np.minimum(offsets, degm1[pos[sl]], out=offsets)
                    pos[sl] = kernel(pos[sl], offsets)
        elif lazy:
            u = buf_flat[bidx]
            u2 = buf_flat[bidx + np.where(wide_exp, k_exp, 0)]
            move = u >= 0.5
            # wide phase: independent step uniform; scalar tail: upper half
            ustep = np.where(wide_exp, u2, 2.0 * (u - 0.5))
            if fused is not None and pos.size >= minw:
                new = fused(pos, ustep)
            else:
                new = neighbor_step(kernel, degrees_g, pos, ustep)
            pos = np.where(move, new, pos)
        elif fused is not None and pos.size >= minw:
            # one C pass fuses the degree gather, offset truncation and
            # slot gather — no walker-sized transients
            pos = fused(pos, buf_flat[bidx])
        elif regular:
            # constant degree: offsets come from scalar arithmetic and the
            # slot kernel resolves them (one CSR hop, or pure arithmetic
            # on implicit families)
            u = buf_flat[bidx]
            offsets = (u * c_float).astype(np.int64)
            np.minimum(offsets, c_int - 1, out=offsets)
            pos = kernel(pos, offsets)
        else:
            # neighbor_step inlined with precomputed float degrees /
            # degrees-1 arrays: the fast path is these vector ops plus the
            # occupancy probe
            u = buf_flat[bidx]
            deg = degf[pos]
            offsets = (u * deg).astype(np.int64)
            np.minimum(offsets, degm1[pos], out=offsets)
            pos = kernel(pos, offsets)
        if store is not None:
            # one vertex per active particle per round, holds included —
            # the serial record shape, appended as one chunked slice
            store.append(rep_ids, pid, pos)
        bptr += counts
        bidx += counts_exp
        if (
            settle_scratch is not None
            and rep_ids.size >= minw
            and use_default_rule
            and (step_chunk is None or step_chunk >= rep_ids.size)
        ):
            # fused probe + per-(repetition, vertex) contest in one pass;
            # winner set and order identical to the lexsort path below
            # (budgeted chunked probes keep the numpy path: the compiled
            # probe's single pass would defeat the transient cap)
            winners = kern.settle_round(
                occ, rep_ids, pos, prio_flat, n, settle_scratch
            )
            if winners.size == 0:
                continue
        else:
            cand = chunked_vacancies(occ, rep_off, pos, step_chunk, kernels=kern)
            if cand.size == 0:
                continue
            if not use_default_rule:
                allowed = np.fromiter(
                    (bool(rule(t, int(v), True)) for v in pos[cand]),
                    dtype=bool,
                    count=cand.size,
                )
                cand = cand[allowed]
                if cand.size == 0:
                    continue
            winners = cand[select_settlers(rep_off[cand] + pos[cand], prio_flat[cand])]
        w_rep, w_pid, w_vert = rep_ids[winners], pid[winners], pos[winners]
        occ[rep_off[winners] + w_vert] = True
        w_cell = w_rep * m + w_pid
        steps2d_flat[w_cell] = t
        settled2d_flat[w_cell] = w_vert
        round2d_flat[w_cell] = t
        w_counts = np.bincount(w_rep, minlength=R)
        free -= w_counts
        k -= w_counts  # aliases `counts` in the non-lazy case
        keep = np.ones(rep_ids.size, dtype=bool)
        keep[winners] = False
        if m > n and np.any(free[w_rep] == 0):
            # repetition complete: surplus particles (m > n) walked until
            # the last vertex filled — they stop now with t steps each
            stopped = keep & (free[rep_ids] == 0)
            if np.any(stopped):
                steps2d_flat[rep_ids[stopped] * m + pid[stopped]] = t
                keep[stopped] = False
                k -= np.bincount(rep_ids[stopped], minlength=R)
        compact(keep, np.unique(w_rep))
        handoff = tail_ready()

    return _parallel_results(
        g, process, starts2d, steps2d, settled2d, round2d, prio2d,
        _finalize(store, record),
    )


def _parallel_checks(g, num_particles, tie_break, scalar_threshold, max_rounds):
    """Validated ``(m, scalar_threshold, budget)`` of a Parallel-IDLA batch."""
    m = g.n if num_particles is None else check_integer("num_particles", num_particles)
    if m < 1:
        raise ValueError(f"num_particles must be >= 1, got {m}")
    if tie_break not in ("index", "random"):
        raise ValueError(f"tie_break must be 'index' or 'random', got {tie_break!r}")
    scalar_threshold = check_integer("scalar_threshold", scalar_threshold)
    return m, scalar_threshold, check_limit("max_rounds", max_rounds)


def _parallel_prelude(g, origin, m, gens, tie_break):
    """Each repetition's initial draws, in the serial driver's order,
    then the round-0 settlement pass over its starts.

    Returns ``(starts2d, prio2d, occ, free, steps2d, settled2d,
    round2d)``.  With the default "index" tie-break the priority of
    particle p is p itself, so ``prio2d`` is ``None``.
    """
    n, R = g.n, len(gens)
    arange_m = np.arange(m, dtype=np.int64)
    starts2d = np.empty((R, m), dtype=np.int64)
    prio2d = None if tie_break == "index" else np.empty((R, m), dtype=np.int64)
    occ = np.zeros(R * n, dtype=bool)
    free = np.full(R, n, dtype=np.int64)
    steps2d = np.zeros((R, m), dtype=np.int64)
    settled2d = np.full((R, m), -1, dtype=np.int64)
    round2d = np.full((R, m), -1, dtype=np.int64)
    for r, gen in enumerate(gens):
        starts2d[r] = resolve_origins(g, origin, m, gen)
        if prio2d is not None:
            # σ(1) = 1 as in the serial driver: particle 0 keeps top priority
            prio2d[r, 0] = 0
            prio2d[r, 1:] = 1 + gen.permutation(m - 1)
        occ_r = occ[r * n : (r + 1) * n]
        prio_r = arange_m if prio2d is None else prio2d[r]
        winners = settle_vacant_starts(occ_r, starts2d[r], prio_r)
        if winners.size:
            occ_r[starts2d[r, winners]] = True
            free[r] -= winners.size
            settled2d[r, winners] = starts2d[r, winners]
            round2d[r, winners] = 0
    return starts2d, prio2d, occ, free, steps2d, settled2d, round2d


def _parallel_results(
    g, process, starts2d, steps2d, settled2d, round2d, prio2d, traj_all
) -> list[DispersionResult]:
    """Assemble the per-repetition results of a batched parallel run;
    the settle order is the serial ``(round, priority)`` order."""
    results = []
    for r in range(steps2d.shape[0]):
        settled = np.flatnonzero(settled2d[r] >= 0)
        prio_vals = settled if prio2d is None else prio2d[r, settled]
        order = np.lexsort((prio_vals, round2d[r, settled]))
        steps_r = steps2d[r].copy()
        results.append(_result(
            g, process, starts2d[r, 0], steps_r, settled2d[r].copy(),
            settled[order], None if traj_all is None else traj_all[r],
            dispersion_time=int(steps_r[settled].max()) if settled.size else 0,
        ))
    return results


def _result(g, process, origin, steps, settled, order, traj, **extra):
    """One repetition's :class:`DispersionResult` from its own rows; τ is
    its longest walk unless ``extra`` gives ``dispersion_time``."""
    m = steps.shape[0]
    extra.setdefault("dispersion_time", int(steps.max()))
    return DispersionResult(
        process=process, graph_name=g.name, n=g.n, origin=int(origin),
        total_steps=int(steps.sum()), steps=steps, settled_at=settled,
        settle_order=order, trajectories=traj,
        num_particles=None if m == g.n else m, **extra,
    )


# ----------------------------------------------------------------------
# Sequential-IDLA
# ----------------------------------------------------------------------
def _finish_sequential_rep(
    adj,
    occ_row,
    starts_r,
    walker,
    pos,
    pstep,
    tail: UniformStream,
    *,
    lazy,
    use_default_rule,
    rule,
    total,
    budget,
    max_total_steps,
    steps_row,
    settled_row,
    traj_rows=None,
):
    """Run one straggler repetition to completion with the scalar micro-loop.

    The serial sequential driver's inner loop, continued mid-walk:
    ``walker`` is the repetition's current particle, ``pstep`` steps into
    its walk at position ``pos``, with ``total`` stream doubles consumed
    so far.  When recording, ``traj_rows`` are the repetition's
    :meth:`TrajectoryStore.handoff` lists and every step (holds included)
    appends to the walking particle's row.  Returns the repetition's
    final consumed-double count (for the generator fast-forward onto the
    serial fetch grid).
    """
    occl = occ_row.tolist()
    uniform = tail.uniform
    rec = traj_rows is not None
    row = traj_rows[walker] if rec else None
    m = len(starts_r)
    t = pstep
    particle = walker
    while True:
        u = uniform()
        total += 1
        t += 1
        if total > budget:
            raise RuntimeError(
                f"sequential IDLA exceeded max_total_steps={max_total_steps}"
            )
        if lazy:
            if u < 0.5:
                if rec:
                    row.append(pos)
                continue  # hold step: t already counted it
            u = 2.0 * (u - 0.5)
        nbrs = adj[pos]
        pos = nbrs[int(u * len(nbrs))]
        if rec:
            row.append(pos)
        if occl[pos]:
            continue
        if not use_default_rule and not rule(t, pos, True):
            continue
        occl[pos] = True
        steps_row[particle] = t
        settled_row[particle] = pos
        particle = instant_settle_chain(
            occl, starts_r, particle + 1, steps_row, settled_row
        )
        if particle == m:
            return total
        pos = int(starts_r[particle])
        row = traj_rows[particle] if rec else None
        t = 0


def batched_sequential_idla(
    g: Graph,
    origin=0,
    *,
    reps: int | None = None,
    seeds=None,
    seed=None,
    lazy: bool = False,
    record: bool | str = False,
    rule: StoppingRule | None = None,
    num_particles: int | None = None,
    max_total_steps: float | None = None,
    tail_threshold: int | None = None,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent Sequential-IDLA realisations in lock-step.

    Each repetition has exactly one walking particle at a time, so the
    flat state is one position per live repetition and every tick
    advances all of them with a single :func:`neighbor_step`.  Repetition
    streams, settlement and the instant-settle release chain follow the
    serial driver exactly — entry ``r`` of the result is bit-identical to
    ``sequential_idla(g, origin, seed=seeds[r], ...)``, and every
    repetition's generator finishes at the serial stream position (the
    Poissonised driver keeps drawing from it).

    ``tail_threshold`` (``0`` disables, ``None`` the module default) is
    the live-repetition count at which the scalar tail finisher hands
    each straggler to the serial micro-loop — a performance knob only,
    results are bit-identical either way.  ``record=True`` (or
    ``"arrays"``) keeps full trajectories, identical to the serial
    driver's, in the chunked :class:`~repro.core.trajectory
    .TrajectoryStore` (one vectorised append per tick; the Python
    finisher continues each straggler's recorded prefix).

    Note on throughput: with one particle per repetition the batch width
    equals the number of *live* repetitions, and it shrinks with every
    repetition that finishes, so lock-step beats the serial driver's
    scalar loop only from ``reps ≈ 64``; the parallel driver, whose
    batch width is repetitions × active particles, wins much earlier.
    """
    n = g.n
    m = _particle_count(g, num_particles, "sequential")
    tail_total = _resolve_tail_threshold(tail_threshold)
    budget = check_limit("max_total_steps", max_total_steps)
    record = check_record(record)
    kern = get_kernels(kernels)
    gens = _resolve_generators(seeds, seed, reps)
    R = len(gens)
    if R == 0:
        return []
    plan = plan_state(state_budget, "sequential", n, m)
    if plan.cohort_reps < R:
        return _in_cohorts(
            batched_sequential_idla, g, origin, gens, plan.cohort_reps,
            lazy=lazy, record=record, rule=rule, num_particles=num_particles,
            max_total_steps=max_total_steps, tail_threshold=tail_threshold,
            state_budget=state_budget, kernels=kern,
        )
    use_default_rule = rule is None or rule is standard_rule
    limit_msg = f"sequential IDLA exceeded max_total_steps={max_total_steps}"
    # the compiled finisher needs host CSR arrays and the default rule; a
    # recorded run keeps the Python finisher, which continues the store's
    # recorded prefix
    csr = csr_arrays(g) if kern.compiled and use_default_rule and not record else None

    # `current`: the walking particle of each repetition (m once done)
    starts2d, occ, steps2d, settled2d, current = _sequential_prelude(
        g, origin, m, gens
    )
    store = TrajectoryStore(starts2d, n) if record else None
    live = np.flatnonzero(current < m)
    pos = starts2d[live, current[live]]

    streams = _sequential_streams(gens, plan.stream_budget_doubles)
    block = streams.block
    buf_flat = streams.flat
    # every live repetition consumes exactly one uniform per tick, so a
    # single shared cursor serves all buffers; the first tick fills them,
    # so a handoff at tick 0 fetches nothing ahead of the finisher
    cursor = block
    base = live * block
    vert_off = live * n
    pstep = np.zeros(live.size, dtype=np.int64)  # current particle's step count
    adj = None  # built lazily when the finisher engages
    kernel = neighbor_kernel(g)
    degrees_g = g.degrees
    fused = kern.stepper(g)
    minw = kern.min_width  # narrow ticks keep the numpy expressions
    ticks = 0

    while live.size:
        if 0 < live.size <= tail_total:
            # ---- scalar tail finisher: with this few live repetitions
            # the lock-step tick costs more than the serial micro-loop;
            # finish each straggler on its own stream, then land its
            # generator on the serial fetch grid.
            if adj is None and csr is None:
                adj = g.adjacency_lists()
            for i in range(live.size):
                r = int(live[i])
                tail = streams.tail(r, cursor)
                if csr is not None:
                    # compiled micro-loop (walk + settle + release chain
                    # in one pass); same fetch cadence via take_block, so
                    # the consumed count lands on the serial grid as the
                    # Python loop's would
                    consumed = kern.finish_sequential(
                        csr[0], csr[1],
                        occ[r * n : (r + 1) * n],
                        starts2d[r],
                        tail,
                        walker=int(current[r]),
                        pos=int(pos[i]),
                        pstep=int(pstep[i]),
                        total=ticks,
                        lazy=lazy,
                        budget=budget,
                        limit_msg=limit_msg,
                        steps_row=steps2d[r],
                        settled_row=settled2d[r],
                    )
                else:
                    consumed = _finish_sequential_rep(
                        adj,
                        occ[r * n : (r + 1) * n],
                        starts2d[r],
                        int(current[r]),
                        int(pos[i]),
                        int(pstep[i]),
                        tail,
                        lazy=lazy,
                        use_default_rule=use_default_rule,
                        rule=rule,
                        total=ticks,
                        budget=budget,
                        max_total_steps=max_total_steps,
                        steps_row=steps2d[r],
                        settled_row=settled2d[r],
                        traj_rows=store.handoff(r)
                        if store is not None
                        else None,
                    )
                streams.align_to_serial(r, consumed, tail)
            break
        if cursor == block:
            streams.fill(live.tolist())
            cursor = 0
        u = buf_flat[base + cursor]
        cursor += 1
        ticks += 1
        pstep += 1
        if ticks > budget:
            raise RuntimeError(limit_msg)
        if lazy:
            move = u >= 0.5
            ustep = 2.0 * (u - 0.5)
            if fused is not None and pos.size >= minw:
                new = fused(pos, ustep)
            else:
                new = neighbor_step(kernel, degrees_g, pos, ustep)
            pos = np.where(move, new, pos)
            settling = move & ~occ[vert_off + pos]
        else:
            if fused is not None and pos.size >= minw:
                pos = fused(pos, u)
            else:
                pos = neighbor_step(kernel, degrees_g, pos, u)
            settling = ~occ[vert_off + pos]
        if store is not None:
            # each live repetition's walker appends its post-tick position
            # (holds included) — the serial record shape
            store.append(live, current[live], pos)
        if not settling.any():
            continue
        idx = np.flatnonzero(settling)
        if not use_default_rule:
            idx = idx[
                [bool(rule(int(pstep[i]), int(pos[i]), True)) for i in idx]
            ]
            if idx.size == 0:
                continue
        finished = []
        for i in idx:
            r, v = int(live[i]), int(pos[i])
            occ_r = occ[r * n : (r + 1) * n]
            occ_r[v] = True
            steps2d[r, current[r]] = pstep[i]
            settled2d[r, current[r]] = v
            walker = instant_settle_chain(
                occ_r, starts2d[r], current[r] + 1, steps2d[r], settled2d[r]
            )
            if walker == m:
                # every live repetition has consumed `ticks` doubles
                streams.align_to_serial(r, ticks)
                finished.append(i)
            else:
                current[r] = walker
                pos[i] = starts2d[r, walker]
                pstep[i] = 0
        if finished:
            keep = np.ones(live.size, dtype=bool)
            keep[finished] = False
            live, pos, pstep = live[keep], pos[keep], pstep[keep]
            base = live * block
            vert_off = live * n

    return _sequential_results(
        g, lazy, starts2d, steps2d, settled2d, _finalize(store, record)
    )


def _sequential_prelude(g, origin, m, gens):
    """Each repetition's starts, then its release chain from particle 0
    (vacant starts settle instantly).

    Returns ``(starts2d, occ, steps2d, settled2d, walker)``, where
    ``walker[r]`` is repetition ``r``'s first walking particle, ``m``
    when every particle settled at its start.
    """
    n, R = g.n, len(gens)
    starts2d = np.empty((R, m), dtype=np.int64)
    occ = np.zeros(R * n, dtype=bool)
    steps2d = np.zeros((R, m), dtype=np.int64)
    settled2d = np.full((R, m), -1, dtype=np.int64)
    walker = np.empty(R, dtype=np.int64)
    for r, gen in enumerate(gens):
        starts2d[r] = resolve_origins(g, origin, m, gen)
        walker[r] = instant_settle_chain(
            occ[r * n : (r + 1) * n], starts2d[r], 0, steps2d[r], settled2d[r]
        )
    return starts2d, occ, steps2d, settled2d, walker


def _sequential_results(
    g, lazy, starts2d, steps2d, settled2d, traj_all
) -> list[DispersionResult]:
    """Assemble the per-repetition results of a batched sequential run;
    particles settle in index order."""
    R, m = steps2d.shape
    return [
        _result(
            g, "sequential-lazy" if lazy else "sequential", starts2d[r, 0],
            steps2d[r].copy(), settled2d[r].copy(), np.arange(m, dtype=np.int64),
            None if traj_all is None else traj_all[r],
        )
        for r in range(R)
    ]
