"""Batched cross-repetition dispersion drivers.

Monte-Carlo estimation of ``E[τ]`` repeats one stochastic process ``R``
times.  The serial runner replays the full per-round NumPy dispatch cost
``R`` times — on graphs with long settlement tails (the cycle spends
``Θ(n² log n)`` rounds on a handful of stragglers) that overhead dwarfs
the useful element work.  The drivers here advance **all repetitions in
lock-step** instead: one flat state vector concatenates every
repetition's unsettled particles, one walk step of
:func:`repro.walks.engine.make_stepper` advances them together, and one
lexsort resolves settlement per
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
to its serial driver's scalar narrow phase — at most
:data:`repro.core.parallel._SCALAR_THRESHOLD` live particles), the
lock-step round (a fixed number of NumPy calls, ~µs
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
A Parallel-IDLA round draws one double per active particle in every
phase (a lazy particle holds iff it is below 1/2), so a repetition's
stream position is the same whichever loop runs its round.  One serial
quirk is reproduced deliberately: settling rules are evaluated only on
vacant candidates — identical outcomes for the library's (pure) rules,
far fewer Python calls.

The sequential driver additionally leaves every repetition's generator at
the **serial stream position** (``UniformStreams.align_to_serial``): the
Poissonised sequential driver keeps consuming the generator after the
discrete walks, so the fetch grid matters there, not just the values.

``record=True`` routes the flat per-round state into the chunked
:class:`repro.core.trajectory.TrajectoryStore` — one slice append per
round, finalised into :class:`~repro.core.results.TrajectoryArrays`
equal to the serial drivers' trajectories, with straggler repetitions
handed to the finisher via :meth:`TrajectoryStore.handoff` so the scalar
micro-loops keep appending to the recorded prefix.  The runner
validates driver kwargs up front (unknown keys raise ``TypeError``
there) and routes impure settling rules to the serial reference path,
which stays the oracle the batched subsystem is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core import parallel as serial_parallel
from repro.core.budget import plan_state
from repro.core.results import DispersionResult
from repro.core.route import (
    _parallel_checks,
    _parallel_prelude,
    _parallel_results,
    _particle_count,
    _sequential_prelude,
    _sequential_results,
)
from repro.core.sequential import _BLOCK as _SERIAL_SEQ_BLOCK
from repro.core.settlement import (
    chunked_vacancies,
    instant_settle_chain,
    select_settlers,
)
from repro.core.stopping_rules import StoppingRule, standard_rule
from repro.core.trajectory import TrajectoryStore
from repro.graphs.csr import Graph
from repro.kernels import csr_arrays, get_kernels
from repro.utils.validation import check_integer, check_limit, check_record
from repro.utils.rng import (
    UniformStream,
    UniformStreams,
    as_generator,
    resolve_stream_block,
    spawn_generators,
)
from repro.walks.engine import make_stepper

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
    """Streams for the parallel driver: one round consumes <= m doubles."""
    return UniformStreams(
        gens,
        per_rep_min=m,
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
            per_rep_min=num_particles,
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


def _finalize(store):
    """Per-repetition trajectories of a recorded run, else ``None``."""
    return None if store is None else store.finalize_arrays()


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
    the serial draw pattern: one uniform per particle per round.
    Settlement is the serial narrow-phase contest (per vacant vertex,
    best priority wins).
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
        if k == 1:
            # the common straggler shape: one particle, no competition —
            # a dedicated micro-loop without the per-round contest
            p = pids[0]
            v = positions[0]
            row = traj_rows[p] if rec else None
            if kern is not None:
                v, t = kern.finish_parallel_single(
                    csr[0], csr[1], occl, tail,
                    v=v, t=t, lazy=lazy, budget=budget,
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
        if lazy:
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
    record: bool = False,
    tie_break: str = "index",
    rule: StoppingRule | None = None,
    num_particles: int | None = None,
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
    lazy, record, tie_break, rule, num_particles, max_rounds:
        As in :func:`repro.core.parallel.parallel_idla`; ``rule`` must be
        a pure predicate (it is evaluated only on vacant candidates).
        ``record=True`` keeps full trajectories, appending one
        vectorised slice per round to the chunked
        :class:`~repro.core.trajectory.TrajectoryStore`.  Memory is
        ``O(total steps)`` as in the serial driver, and entry ``r``'s
        trajectories are identical to it.
    tail_threshold:
        Surviving-repetition count at which the scalar tail finisher
        takes over the stragglers (once each survivor is also down to
        the serial driver's own scalar narrow phase); ``0`` disables the
        handoff, ``None`` uses the module default.  A performance knob only —
        results are bit-identical either way.
    state_budget:
        Optional :class:`repro.core.budget.StateBudget` (or spec string)
        capping resident simulation state.  The runner cuts repetition
        cohorts before it calls a driver; here
        :func:`repro.core.budget.plan_state` supplies the in-cohort
        levers: mid-round particle chunking of the step/probe transients
        and a streaming-buffer shrink — both invisible in the results
        (each repetition still consumes its own stream in serial order).
        ``record=True`` trajectory storage grows with total steps and is
        deliberately outside the cap.
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
    m, budget = _parallel_checks(g, num_particles, tie_break, max_rounds)
    tail_total = _resolve_tail_threshold(tail_threshold)
    record = check_record(record)
    kern = get_kernels(kernels)
    gens = _resolve_generators(seeds, seed, reps)
    R = len(gens)
    if R == 0:
        return []
    plan = plan_state(state_budget, "parallel", n, m)
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

    # per-round flat metadata, recomputed whenever particles leave; a
    # repetition's k live particles draw k doubles a round
    k = counts_exp = rep_off = prio_flat = bidx = None
    rounds_buffered = 0

    def buffered_rounds() -> int:
        """Rounds the repetition buffers can serve before the next refill."""
        live = k > 0
        if not np.any(live):
            return 1
        return int(np.min((block - bptr[live]) // k[live]))

    def rebuild():
        nonlocal k, counts_exp, rep_off, prio_flat, bidx, rounds_buffered
        k = np.bincount(rep_ids, minlength=R)
        counts_exp = k[rep_ids]
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
        nonlocal rounds_buffered
        rep_ids, pid, pos = rep_ids[keep], pid[keep], pos[keep]
        counts_exp, rep_off, bidx = counts_exp[keep], rep_off[keep], bidx[keep]
        prio_flat = pid if prio2d is None else prio_flat[keep]
        group_start = np.cumsum(k) - k
        for r in affected:
            kr = int(k[r])
            sl = slice(int(group_start[r]), int(group_start[r]) + kr)
            counts_exp[sl] = kr
            bidx[sl] = r * block + bptr[r] + np.arange(kr, dtype=np.int64)
        rounds_buffered = buffered_rounds()

    def refill():
        nonlocal rounds_buffered
        for r in np.flatnonzero(bptr + k > block):
            bidx[rep_ids == r] -= bptr[r]
            streams.refill_tail(int(r), int(bptr[r]))
            bptr[r] = 0
        rounds_buffered = buffered_rounds()

    def tail_ready() -> bool:
        """Handoff criterion, recomputed only when ``k`` changes.

        Hand off when few *repetitions* survive — the lock-step round
        cost is dominated by per-repetition metadata, not particles —
        and every survivor is already inside the serial driver's scalar
        narrow phase (at most ``_SCALAR_THRESHOLD`` live particles), so
        the micro-loop is the regime the serial driver itself would use.
        Counting live particles instead (the old criterion) kept the
        round machinery running through the whole deep settlement tail.
        """
        if tail_total <= 0 or rep_ids.size == 0:
            return False
        return (
            int(np.count_nonzero(k)) <= tail_total
            and int(k.max()) <= serial_parallel._SCALAR_THRESHOLD
        )

    rebuild()
    step = make_stepper(g, kern)
    # compiled inner-loop layer: the finisher needs a materialised host
    # CSR; the settlement kernel needs none, so it serves implicit
    # families too.
    compiled = kern.compiled
    csr = csr_arrays(g) if compiled else None
    settle_scratch = kern.make_settle_scratch(n) if compiled else None
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
            # adjacency lists are only needed for multi-particle rounds
            adj = (
                None
                if fin_kern is not None and int(k.max()) == 1
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
        # the round body runs over `step_chunk`-sized slices of the flat
        # state (one slice when no chunk is set), so a budget bounds the
        # per-round scratch (uniform gathers, offsets, `where` temps) by
        # the chunk instead of the walker count.  Elementwise ufuncs are
        # slice-invariant, so every double lands where one slice puts it.
        chunk = step_chunk or rep_ids.size
        for a in range(0, rep_ids.size, chunk):
            sl = slice(a, a + chunk)
            p = pos[sl]
            if lazy:
                # hold iff u < 1/2; a held lane's step result is discarded
                u = buf_flat[bidx[sl]]
                np.copyto(p, step(p, 2.0 * (u - 0.5)), where=u >= 0.5)
            else:
                step(p, buf_flat[bidx[sl]], out=p)
        if store is not None:
            # one vertex per active particle per round, holds included —
            # the serial record shape, appended as one chunked slice
            store.append(rep_ids, pid, pos)
        bptr += k
        bidx += counts_exp
        if (
            settle_scratch is not None
            and rep_ids.size >= kern.min_width
            and use_default_rule
            and (step_chunk is None or step_chunk >= rep_ids.size)
        ):
            # vacancy probe + per-(repetition, vertex) contest in one C pass;
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
        k -= w_counts
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

    return list(
        _parallel_results(
            g, process, starts2d, steps2d, settled2d, round2d, prio2d,
            _finalize(store),
        )
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
    record: bool = False,
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
    advances all of them with one walk step (:func:`repro.walks.engine
    .make_stepper`).  Repetition
    streams, settlement and the instant-settle release chain follow the
    serial driver exactly — entry ``r`` of the result is bit-identical to
    ``sequential_idla(g, origin, seed=seeds[r], ...)``, and every
    repetition's generator finishes at the serial stream position (the
    Poissonised driver keeps drawing from it).

    ``tail_threshold`` (``0`` disables, ``None`` the module default) is
    the live-repetition count at which the scalar tail finisher hands
    each straggler to the serial micro-loop — a performance knob only,
    results are bit-identical either way.  ``record=True`` keeps full
    trajectories, identical to the serial driver's, in the chunked
    :class:`~repro.core.trajectory.TrajectoryStore` (one vectorised
    append per tick; the Python finisher continues each straggler's
    recorded prefix).

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
    step = make_stepper(g, kern)
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
                if csr is not None:
                    # compiled micro-loop (walk + settle + release chain
                    # in one pass): the row's unconsumed doubles, then
                    # the generator itself, one double per step
                    prefix = streams.buf[r, cursor:]
                    (consumed,) = kern.finish_sequential(
                        csr[0], csr[1],
                        occ[r * n : (r + 1) * n],
                        starts2d[r : r + 1],
                        [gens[r]],
                        prefixes=[prefix],
                        walker=int(current[r]),
                        pos=int(pos[i]),
                        pstep=int(pstep[i]),
                        total=ticks,
                        lazy=lazy,
                        budget=budget,
                        limit_msg=limit_msg,
                        steps=steps2d[r : r + 1],
                        settled=settled2d[r : r + 1],
                    )
                    consumed = int(consumed)
                    drawn = max(0, consumed - ticks - prefix.shape[0])
                else:
                    tail = streams.tail(r, cursor)
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
                    drawn = tail.drawn
                streams.align_to_serial(r, consumed, drawn)
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
            np.copyto(pos, step(pos, 2.0 * (u - 0.5)), where=move)
            settling = move & ~occ[vert_off + pos]
        else:
            step(pos, u, out=pos)
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

    return list(
        _sequential_results(
            g, lazy, starts2d, steps2d, settled2d, _finalize(store)
        )
    )
