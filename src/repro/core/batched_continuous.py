"""Batched cross-repetition drivers for the continuous-time/uniform family.

:mod:`repro.core.batched` vectorises the outer Monte-Carlo loop of the
*synchronous* processes, whose batch width is repetitions × active
particles.  The tick-scheduled processes here — Uniform-IDLA, CTU-IDLA
and Poissonised Sequential-IDLA — advance exactly **one particle per
repetition per tick**, so the lock-step state is one lane per live
repetition: one scheduler pick, one walk step and one occupancy probe
serve the whole batch, amortising the per-tick interpreter/dispatch cost
the serial drivers pay once per ring.

Bit-identical replay
--------------------
The serial drivers (:mod:`repro.core.uniform`,
:mod:`repro.core.continuous`) consume *nothing but uniform doubles* from
a block-buffered :class:`repro.utils.rng.UniformStream` — exponential
clocks, geometric skips and scheduler picks are inverse-CDF transforms of
that one stream (see the "draw contract" in their module docstrings).
NumPy double streams are chunk-invariant (``random(a)`` then ``random(b)``
equals ``random(a + b)`` split), so the per-repetition buffers here can
be refilled on any schedule whatsoever: only the consumption *order*
matters, and every tick consumes each live repetition's doubles in the
serial order.  That is what lets the buffers come from the bounded
:class:`repro.utils.rng.UniformStreams` scheme (the refill chunk shrinks
as the repetition count grows, so the allocation never outgrows a fixed
budget — no more ``_BATCHED_MAX_BUFFER_DOUBLES`` dispatch decline).
The transforms use the same NumPy ufuncs (``np.log1p`` is
elementwise-deterministic across array shapes and strides but *not*
bit-identical to ``math.log1p`` — hence the shared log lane in
``UniformStream``), the same truncations and the same division operand
order, making every result field bit-identical::

    batched_ctu_idla(g, seeds=seeds) ==
        [ctu_idla(g, seed=s) for s in seeds]           # bit for bit

and likewise for ``batched_uniform_idla`` (default scheduler mode) and
``batched_continuous_sequential_idla`` — enforced by
``tests/test_core_batched_continuous.py``.  Time-0 settlement and the
scheduler's swap-remove pool go through the shared helpers in
:mod:`repro.core.settlement` so both execution modes resolve them
identically by construction.

``record=True`` routes each tick's ``(repetition, particle, vertex)``
into the chunked :class:`repro.core.trajectory.TrajectoryStore` (one
slice append per tick), and Uniform-IDLA's ``faithful_r=True`` runs a
dedicated lock-step branch that draws the literal i.i.d. schedule — one
scheduler pick per live repetition per tick, wasted ticks consuming
exactly one double — recording it through
:class:`repro.core.trajectory.ScheduleStore` into the same per-repetition
``result.schedule`` arrays the serial driver attaches.  Both finalise
bit-identical to the serial oracles, which remain the reference the
batched subsystem is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import (
    _finalize,
    _in_cohorts,
    _particle_count,
    _result,
    _resolve_generators,
    batched_sequential_idla,
)
from repro.core.budget import plan_state
from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult
from repro.core.sequential import _BLOCK as _SEQ_BLOCK
from repro.core.settlement import settle_vacant_starts_inorder
from repro.core.trajectory import ScheduleStore, TrajectoryStore
from repro.graphs.csr import Graph, neighbor_kernel
from repro.kernels import get_kernels
from repro.utils.rng import UniformStreams, resolve_stream_block
from repro.utils.validation import check_limit, check_positive_finite, check_record
from repro.walks.continuous import poissonise_steps

__all__ = [
    "batched_ctu_idla",
    "batched_uniform_idla",
    "batched_continuous_sequential_idla",
    "stream_block",
]

#: Test override for the streaming refill chunk (doubles per repetition);
#: ``None`` auto-sizes through :func:`repro.utils.rng.resolve_stream_block`.
#: Any value >= 3 (one tick's worst-case consumption) yields the same
#: results — chunk-invariance of the double stream is exactly what the
#: equivalence tests vary this for.
_BLOCK: int | None = None


def _lane_streams(gens, budget_doubles=None) -> UniformStreams:
    """Streams for the tick-scheduled drivers: <= 3 doubles per tick."""
    return UniformStreams(
        gens,
        per_rep_min=3,
        block=_BLOCK,
        budget_doubles=budget_doubles,
    )


def stream_block(process: str, reps: int, num_particles: int | None = None) -> int:
    """Per-repetition streaming chunk (doubles) a batched run allocates.

    The tick-scheduled drivers' own sizing export, consulted by
    :func:`repro.core.batched.buffer_doubles`.  ``c-sequential`` is owned
    by this module but rides ``batched_sequential_idla`` for its discrete
    walks, so its allocation *is* the sequential driver's — delegating
    here is the fix for the old ``buffer_doubles``, which sized every
    non-continuous process with :mod:`repro.core.batched`'s block constant
    regardless of which module's driver (and block) actually ran.
    """
    if process == "c-sequential":
        from repro.core.batched import stream_block as sync_stream_block

        return sync_stream_block("sequential", reps, num_particles)
    if process in ("ctu", "uniform"):
        return resolve_stream_block(reps, per_rep_min=3, block=_BLOCK)
    raise ValueError(f"no tick-scheduled batched driver for process {process!r}")


def _init_lanes(g, origin, m, gens):
    """Each repetition's starts, then its time-0 settlement via the
    shared in-order helper: the flat per-particle rows, each settle order
    so far, each pool row in ``unsflat``, and the live lanes (repetitions
    with unsettled particles) with their pool sizes."""
    n, R = g.n, len(gens)
    starts2d = np.empty((R, m), dtype=np.int64)
    occ = np.zeros(R * n, dtype=bool)
    stepsflat = np.zeros(R * m, dtype=np.int64)
    settledflat = np.full(R * m, -1, dtype=np.int64)
    orders: list[list[int]] = [[] for _ in range(R)]
    unsflat = np.empty(R * m, dtype=np.int64)
    lanes_list, k_list = [], []
    for r, gen in enumerate(gens):
        starts2d[r] = resolve_origins(g, origin, m, gen)
        uns = settle_vacant_starts_inorder(
            occ[r * n : (r + 1) * n],
            starts2d[r],
            settledflat[r * m : (r + 1) * m],
            orders[r],
        )
        if uns:
            unsflat[r * m : r * m + len(uns)] = uns
            lanes_list.append(r)
            k_list.append(len(uns))
    posflat = starts2d.reshape(-1).copy()
    return (
        starts2d, occ, posflat, stepsflat, settledflat, orders, unsflat,
        lanes_list, k_list,
    )


def _make_stepper(g: Graph, kernels):
    """One-walk-step kernel ``(positions, u) -> new positions``.

    The inlined :func:`repro.walks.engine.neighbor_step` with precomputed
    degree arrays, resolving slots through the graph's ``neighbor_slots``
    kernel (CSR gather or implicit arithmetic); regular graphs (most of
    Table 1) reduce the degree gathers to scalar arithmetic and allocate
    no O(n) helpers.  ``kernels`` is the caller's resolved provider; for
    a compiled one the fused offset+gather (bit-identical by
    construction) replaces both closures whenever the graph exposes CSR
    arrays and the call is at least ``kernels.min_width`` lanes wide —
    the tick-scheduled drivers step one lane-sized batch at a time, so
    narrow runs (few repetitions) stay on the numpy path where they are
    faster.
    """
    kernel = neighbor_kernel(g)
    degrees = g.degrees
    if g.n > 0 and g.is_regular():
        c_int = int(degrees[0])
        c_float = float(c_int)

        def step(pos, u):
            off = (u * c_float).astype(np.int64)
            np.minimum(off, c_int - 1, out=off)
            return kernel(pos, off)

    else:
        degf = degrees.astype(np.float64)
        degm1 = degrees - 1

        def step(pos, u):
            off = (u * degf[pos]).astype(np.int64)
            np.minimum(off, degm1[pos], out=off)
            return kernel(pos, off)

    fused = kernels.stepper(g)
    if fused is not None:
        minw = kernels.min_width
        numpy_step = step

        def step(pos, u):
            if pos.shape[0] >= minw:
                return fused(pos, u)
            return numpy_step(pos, u)

    return step


# ----------------------------------------------------------------------
# CTU-IDLA
# ----------------------------------------------------------------------
def batched_ctu_idla(
    g: Graph,
    origin=0,
    *,
    reps: int | None = None,
    seeds=None,
    seed=None,
    rate: float = 1.0,
    record: bool | str = False,
    num_particles: int | None = None,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent CTU-IDLA realisations in lock-step.

    Parameters
    ----------
    reps, seeds, seed:
        Either pass ``seeds`` — one seed/generator per repetition (the
        runner passes the children of one ``SeedSequence``) — or ``reps``
        plus an optional parent ``seed``, spawned exactly like
        :func:`repro.utils.rng.spawn_generators`.
    rate, record, num_particles:
        As in :func:`repro.core.continuous.ctu_idla`; ``record=True``
        (or ``"arrays"``) keeps full trajectories, identical to the
        serial driver's, in the chunked
        :class:`~repro.core.trajectory.TrajectoryStore`.
    kernels:
        Kernel-provider name/:class:`~repro.kernels.KernelSet` (see
        :mod:`repro.kernels`); resolution order is this kwarg, then
        ``REPRO_KERNELS``, then auto-detect.  Compiled providers stay
        bit-identical.

    Returns
    -------
    list[DispersionResult]
        Entry ``r`` is bit-identical to
        ``ctu_idla(g, origin, seed=seeds[r], ...)``, including the
        ``settle_clock`` extra attribute.

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> batch = batched_ctu_idla(complete_graph(16), reps=3, seed=7)
    >>> [r.is_complete_dispersion() for r in batch]
    [True, True, True]
    """
    n = g.n
    m = _particle_count(g, num_particles, "CTU")
    check_positive_finite("rate", rate)
    record = check_record(record)
    gens = _resolve_generators(seeds, seed, reps)
    R = len(gens)
    if R == 0:
        return []
    kern = get_kernels(kernels)
    plan = plan_state(state_budget, "ctu", n, m)
    if plan.cohort_reps < R:
        return _in_cohorts(
            batched_ctu_idla, g, origin, gens, plan.cohort_reps, rate=rate,
            record=record, num_particles=num_particles,
            state_budget=state_budget, kernels=kern,
        )

    (
        starts2d, occ, posflat, stepsflat, settledflat, orders, unsflat,
        lanes_list, k_list,
    ) = _init_lanes(g, origin, m, gens)
    settle_clock = np.zeros(R * m, dtype=np.float64)
    final_clock = np.zeros(R, dtype=np.float64)
    store = TrajectoryStore(starts2d, n) if record else None

    # ---- per-lane compact state (one lane per live repetition)
    lanes = np.asarray(lanes_list, dtype=np.int64)
    kL = np.asarray(k_list, dtype=np.int64)
    kfL = kL.astype(np.float64)
    km1L = kL - 1
    denomL = kfL * rate
    clockL = np.zeros(lanes.size, dtype=np.float64)
    laneM = lanes * m
    laneN = lanes * n

    streams = _lane_streams(gens, plan.stream_budget_doubles)
    block = streams.block
    buf = streams.buf
    cursor = block  # forces the initial fill
    step = _make_stepper(g, kern)

    # Every live lane consumes exactly 3 doubles per tick and all lanes
    # join at tick 0, so one shared cursor serves every buffer row; the
    # remainder copy keeps already-drawn doubles when a tick straddles a
    # refill (the serial stream has no block boundaries to respect).
    while lanes.size:
        if cursor + 3 > block:
            for r in lanes.tolist():
                streams.refill_tail(r, cursor)
            cursor = 0
        u3 = buf[lanes, cursor : cursor + 3]
        cursor += 3
        # exponential clock by inversion: clock += -log1p(-u) / (k·rate)
        dt = np.log1p(-u3[:, 0])
        np.negative(dt, out=dt)
        dt /= denomL
        clockL += dt
        # ringer: uniform slot of the unsettled pool
        i = (u3[:, 1] * kfL).astype(np.int64)
        np.minimum(i, km1L, out=i)
        p = unsflat[laneM + i]
        cell = laneM + p
        vnew = step(posflat[cell], u3[:, 2])
        posflat[cell] = vnew
        stepsflat[cell] += 1
        if store is not None:
            store.append(lanes, p, vnew)
        occv = occ[laneN + vnew]
        if occv.all():
            continue
        finished = False
        for li in np.flatnonzero(~occv).tolist():
            r = int(lanes[li])
            pp = int(p[li])
            occ[r * n + int(vnew[li])] = True
            cellr = r * m + pp
            settledflat[cellr] = vnew[li]
            settle_clock[cellr] = clockL[li]
            orders[r].append(pp)
            kk = int(kL[li]) - 1
            # swap-remove, as UnsettledPool does in the serial driver
            unsflat[r * m + int(i[li])] = unsflat[r * m + kk]
            kL[li] = kk
            if kk:
                kfL[li] = kk
                km1L[li] = kk - 1
                denomL[li] = float(kk) * rate
            else:
                final_clock[r] = clockL[li]
                finished = True
        if finished:
            keep = kL > 0
            lanes, kL, kfL = lanes[keep], kL[keep], kfL[keep]
            km1L, denomL, clockL = km1L[keep], denomL[keep], clockL[keep]
            laneM, laneN = laneM[keep], laneN[keep]

    return _ctu_results(
        g, starts2d, stepsflat, settledflat, orders, final_clock,
        settle_clock, _finalize(store, record),
    )


def _ctu_results(
    g, starts2d, stepsflat, settledflat, orders, final_clock, settle_clock,
    traj_all,
) -> list[DispersionResult]:
    """Per-repetition result assembly of :func:`batched_ctu_idla`."""
    R, m = starts2d.shape
    results = []
    for r in range(R):
        row = slice(r * m, (r + 1) * m)
        result = _result(
            g, "ctu", starts2d[r, 0], stepsflat[row].copy(),
            settledflat[row].copy(), np.asarray(orders[r], dtype=np.int64),
            None if traj_all is None else traj_all[r],
            dispersion_time=float(final_clock[r]), ticks=float(final_clock[r]),
        )
        object.__setattr__(result, "settle_clock", settle_clock[row].copy())
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Uniform-IDLA
# ----------------------------------------------------------------------
def _finish_faithful_lane(
    r: int,
    row: np.ndarray,
    bptr: int,
    ticks: int,
    k: int,
    streams: UniformStreams,
    m: int,
    n: int,
    pickf: float,
    pick_cap: int,
    step,
    posflat,
    stepsflat,
    settledflat,
    occ,
    order: list,
    schedule_store: ScheduleStore,
    store,
) -> int:
    """Finish the last live ``faithful_r`` repetition by bulk-scanning picks.

    Late in a ``faithful_r`` run almost every tick is wasted — the literal
    i.i.d. schedule keeps naming already-settled particles, and the
    lock-step loop pays a full round of NumPy dispatch per single wasted
    double.  With one lane left the schedule no longer interleaves with
    other lanes, so the remaining buffered doubles can be scanned in
    bulk: vectorise the picks over the whole unconsumed buffer, find the
    first one naming an unsettled particle, append the wasted run to the
    :class:`~repro.core.trajectory.ScheduleStore` in one slice and jump
    the clock by the run length.  The very same doubles are consumed in
    the very same order as the per-tick loop (the extra picks computed
    past the first active one are discarded, not consumed), so results
    remain bit-identical to the serial oracle — this is an O(1)-NumPy-
    calls-per-run replacement for O(run) wasted ticks, not a change of
    schedule distribution.

    Returns the repetition's final tick count.
    """
    block = row.size
    settled_row = settledflat[r * m : (r + 1) * m]
    occ_row = occ[r * n : (r + 1) * n]
    rarr = np.array([r], dtype=np.int64)
    while True:
        if bptr >= block:
            streams.refill_tail(r, bptr)
            bptr = 0
        avail = row[bptr:]
        picks = (avail * pickf).astype(np.int64)
        np.minimum(picks, pick_cap, out=picks)
        picks += 1
        wasted = settled_row[picks] >= 0
        if wasted.all():
            # the whole buffer is wasted ticks: one slice append, one jump
            schedule_store.append_run(r, picks)
            ticks += picks.size
            bptr = block
            continue
        j = int(np.argmin(wasted))  # first pick naming an unsettled particle
        schedule_store.append_run(r, picks[: j + 1])
        ticks += j + 1
        bptr += j + 1
        if bptr >= block:
            streams.refill_tail(r, bptr)
            bptr = 0
        p = int(picks[j])
        cell = r * m + p
        # 1-element slice through the same vectorised stepper the lock-step
        # loop uses: identical ufunc path, identical bits
        vnew = step(posflat[cell : cell + 1], row[bptr : bptr + 1])
        posflat[cell] = vnew[0]
        stepsflat[cell] += 1
        bptr += 1
        if store is not None:
            store.append(rarr, np.array([p], dtype=np.int64), vnew)
        v = int(vnew[0])
        if not occ_row[v]:
            occ_row[v] = True
            settled_row[p] = v
            order.append(p)
            k -= 1
            if not k:
                return ticks


def batched_uniform_idla(
    g: Graph,
    origin=0,
    *,
    reps: int | None = None,
    seeds=None,
    seed=None,
    record: bool | str = False,
    faithful_r: bool = False,
    num_particles: int | None = None,
    max_ticks: float | None = None,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent Uniform-IDLA realisations in lock-step.

    Both scheduler modes of :func:`repro.core.uniform.uniform_idla` run
    in lock-step: the default (geometric-skip) mode, and the
    ``faithful_r=True`` mode that draws the literal i.i.d. schedule —
    one scheduler pick per live repetition per tick (wasted ticks consume
    exactly that one double), recorded per repetition and attached as
    ``result.schedule``.  Entry ``r`` of the result is bit-identical to
    ``uniform_idla(g, origin, seed=seeds[r], ...)``, including the
    wasted-tick clock in ``result.ticks`` (and trajectories under
    ``record=True``).

    Unlike the CTU driver, per-tick consumption varies per lane (the
    geometric skip and the wasted-tick short-circuit make it 1–3
    doubles), so each lane keeps its own buffer pointer; a conservative
    shared countdown batches the refill checks.
    """
    n = g.n
    m = _particle_count(g, num_particles, "uniform")
    budget = check_limit("max_ticks", max_ticks)
    record = check_record(record)
    gens = _resolve_generators(seeds, seed, reps)
    R = len(gens)
    if R == 0:
        return []
    kern = get_kernels(kernels)
    plan = plan_state(state_budget, "uniform", n, m)
    if plan.cohort_reps < R:
        return _in_cohorts(
            batched_uniform_idla, g, origin, gens, plan.cohort_reps,
            record=record, faithful_r=faithful_r, num_particles=num_particles,
            max_ticks=max_ticks, state_budget=state_budget, kernels=kern,
        )
    limit_msg = f"uniform IDLA exceeded max_ticks={max_ticks}"
    check_budget = max_ticks is not None

    (
        starts2d, occ, posflat, stepsflat, settledflat, orders, unsflat,
        lanes_list, k_list,
    ) = _init_lanes(g, origin, m, gens)
    final_ticks = np.zeros(R, dtype=np.int64)
    pool_size = max(m - 1, 1)
    store = TrajectoryStore(starts2d, n) if record else None

    def logq_for(k: int) -> float:
        # same scalar np.log1p computation as the serial driver's cache;
        # -inf parks lanes with k == pool_size (ratio 0, masked anyway)
        if k < pool_size:
            return float(np.log1p(-(k / pool_size)))
        return float("-inf")

    lanes = np.asarray(lanes_list, dtype=np.int64)
    kL = np.asarray(k_list, dtype=np.int64)
    kfL = kL.astype(np.float64)
    km1L = kL - 1
    logqL = np.asarray([logq_for(int(k)) for k in kL], dtype=np.float64)
    ticksL = np.zeros(lanes.size, dtype=np.int64)
    laneM = lanes * m
    laneN = lanes * n

    streams = _lane_streams(gens, plan.stream_budget_doubles)
    block = streams.block
    laneB = lanes * block
    streams.fill(lanes_list)
    bufflat = streams.flat
    bptrL = np.zeros(lanes.size, dtype=np.int64)
    refill_countdown = block // 3
    step = _make_stepper(g, kern)

    schedules: list[np.ndarray] | None = None
    if faithful_r:
        # ---- literal-schedule mode: one i.i.d. pick over particles
        # ``1..m-1`` per live repetition per tick (the paper's R), drawn
        # whether or not the tick is wasted; only non-wasted ticks draw
        # the walk-step double.  The unsettled pool is never consulted —
        # exactly the serial driver's ``faithful_r`` branch.
        schedule_store = ScheduleStore(R)
        pickf = float(m - 1)
        pick_cap = m - 2
        refill_countdown = block // 2
        while lanes.size:
            if lanes.size == 1 and not check_budget:
                # single lane left (or a budget forced 1-rep cohorts):
                # switch to the bulk wasted-tick scanner — late-run
                # faithful_r time is dominated by wasted schedule picks,
                # which it consumes a whole buffer at a time
                r = int(lanes[0])
                final_ticks[r] = _finish_faithful_lane(
                    r,
                    bufflat[r * block : (r + 1) * block],
                    int(bptrL[0]),
                    int(ticksL[0]),
                    int(kL[0]),
                    streams,
                    m,
                    n,
                    pickf,
                    pick_cap,
                    step,
                    posflat,
                    stepsflat,
                    settledflat,
                    occ,
                    orders[r],
                    schedule_store,
                    store,
                )
                lanes = lanes[:0]  # run complete; skip the default-mode loop
                break
            if refill_countdown <= 0:
                for li in np.flatnonzero(bptrL + 2 > block).tolist():
                    streams.refill_tail(int(lanes[li]), int(bptrL[li]))
                    bptrL[li] = 0
                # conservative: assumes every lane consumes 2 per tick
                refill_countdown = int(((block - bptrL) // 2).min())
            refill_countdown -= 1
            base = laneB + bptrL
            s = (bufflat[base] * pickf).astype(np.int64)
            np.minimum(s, pick_cap, out=s)
            p = s + 1
            schedule_store.append(lanes, p)
            ticksL += 1
            if check_budget and (ticksL > budget).any():
                raise RuntimeError(limit_msg)
            bptrL += 1
            act = np.flatnonzero(settledflat[laneM + p] < 0)
            if act.size == 0:
                continue  # every live lane wasted this tick
            cell = laneM[act] + p[act]
            vnew = step(posflat[cell], bufflat[base[act] + 1])
            posflat[cell] = vnew
            stepsflat[cell] += 1
            bptrL[act] += 1
            if store is not None:
                store.append(lanes[act], p[act], vnew)
            occv = occ[laneN[act] + vnew]
            if occv.all():
                continue
            finished = False
            for j in np.flatnonzero(~occv).tolist():
                li = int(act[j])
                r = int(lanes[li])
                pp = int(p[li])
                occ[r * n + int(vnew[j])] = True
                settledflat[r * m + pp] = vnew[j]
                orders[r].append(pp)
                kk = int(kL[li]) - 1
                kL[li] = kk
                if not kk:
                    final_ticks[r] = ticksL[li]
                    finished = True
            if finished:
                keep = kL > 0
                lanes, kL, ticksL = lanes[keep], kL[keep], ticksL[keep]
                bptrL = bptrL[keep]
                laneM, laneN, laneB = laneM[keep], laneN[keep], laneB[keep]
        schedules = schedule_store.finalize()

    while lanes.size:
        if refill_countdown <= 0:
            for li in np.flatnonzero(bptrL + 3 > block).tolist():
                streams.refill_tail(int(lanes[li]), int(bptrL[li]))
                bptrL[li] = 0
            # conservative: assumes every lane consumes 3 per tick, and
            # stays a valid lower bound across lane compactions
            refill_countdown = int(((block - bptrL) // 3).min())
        refill_countdown -= 1
        base = laneB + bptrL
        # geometric skip draw, consumed only by lanes with k < pool_size
        skip = (kL < pool_size).astype(np.int64)
        lv = np.log1p(-bufflat[base])
        extra = (lv / logqL).astype(np.int64)
        extra *= skip
        ticksL += 1
        if check_budget and (ticksL > budget).any():
            raise RuntimeError(limit_msg)
        ticksL += extra
        if check_budget and (ticksL > budget).any():
            raise RuntimeError(limit_msg)
        # scheduler pick + walk step
        sidx = base + skip
        i = (bufflat[sidx] * kfL).astype(np.int64)
        np.minimum(i, km1L, out=i)
        p = unsflat[laneM + i]
        cell = laneM + p
        vnew = step(posflat[cell], bufflat[sidx + 1])
        posflat[cell] = vnew
        stepsflat[cell] += 1
        if store is not None:
            store.append(lanes, p, vnew)
        bptrL += skip
        bptrL += 2
        occv = occ[laneN + vnew]
        if occv.all():
            continue
        finished = False
        for li in np.flatnonzero(~occv).tolist():
            r = int(lanes[li])
            pp = int(p[li])
            occ[r * n + int(vnew[li])] = True
            settledflat[r * m + pp] = vnew[li]
            orders[r].append(pp)
            kk = int(kL[li]) - 1
            unsflat[r * m + int(i[li])] = unsflat[r * m + kk]
            kL[li] = kk
            if kk:
                kfL[li] = kk
                km1L[li] = kk - 1
                logqL[li] = logq_for(kk)
            else:
                final_ticks[r] = ticksL[li]
                finished = True
        if finished:
            keep = kL > 0
            lanes, kL, kfL, km1L = lanes[keep], kL[keep], kfL[keep], km1L[keep]
            logqL, ticksL, bptrL = logqL[keep], ticksL[keep], bptrL[keep]
            laneM, laneN, laneB = laneM[keep], laneN[keep], laneB[keep]

    return _uniform_results(
        g, starts2d, stepsflat, settledflat, orders, final_ticks,
        _finalize(store, record), schedules,
    )


def _uniform_results(
    g, starts2d, stepsflat, settledflat, orders, final_ticks, traj_all,
    schedules,
) -> list[DispersionResult]:
    """Per-repetition result assembly of :func:`batched_uniform_idla`."""
    R, m = starts2d.shape
    results = []
    for r in range(R):
        row = slice(r * m, (r + 1) * m)
        result = _result(
            g, "uniform", starts2d[r, 0], stepsflat[row].copy(),
            settledflat[row].copy(), np.asarray(orders[r], dtype=np.int64),
            None if traj_all is None else traj_all[r], ticks=float(final_ticks[r]),
        )
        if schedules is not None:
            # frozen dataclass: attach like the serial driver does
            object.__setattr__(result, "schedule", schedules[r])
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Poissonised Sequential-IDLA
# ----------------------------------------------------------------------
def batched_continuous_sequential_idla(
    g: Graph,
    origin=0,
    *,
    reps: int | None = None,
    seeds=None,
    seed=None,
    rate: float = 1.0,
    record: bool | str = False,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent Poissonised Sequential-IDLA realisations.

    Rides :func:`repro.core.batched.batched_sequential_idla` for the
    discrete walks (bit-identical to the serial loop, and it leaves every
    repetition's generator at the serial stream position), then attaches
    the ``Gamma(ρ_i, 1/rate)`` duration sums with the very same per-
    repetition call the serial driver makes.  Entry ``r`` is bit-identical
    to ``continuous_sequential_idla(g, origin, seed=seeds[r], rate=rate)``,
    including the ``durations`` extra attribute.
    """
    check_positive_finite("rate", rate)
    record = check_record(record)
    gens = _resolve_generators(seeds, seed, reps)
    if not gens:
        return []
    walks = batched_sequential_idla(
        g, origin, seeds=gens, record=record, state_budget=state_budget,
        kernels=kernels,
    )
    return _poissonised(g, walks, gens, rate)


def _poissonised(g, walks, gens, rate) -> list[DispersionResult]:
    """c-sequential results from Sequential-IDLA ``walks`` that leave
    each generator at the serial stream position: the ``Gamma(ρ_i,
    1/rate)`` durations come from the very same per-repetition call the
    serial driver makes."""
    results = []
    for res, gen in zip(walks, gens):
        if res.total_steps == 0:
            # The serial driver draws its first uniform block before the
            # release loop; a repetition whose particles all settle
            # instantly consumes none of it, but the draw still advances
            # the stream the Gamma call below reads from.
            gen.random(_SEQ_BLOCK)
        durations = poissonise_steps(res.steps, gen, rate=rate)
        out = _result(
            g, "c-sequential", res.origin, res.steps, res.settled_at,
            res.settle_order, res.trajectories,
            dispersion_time=float(durations.max()), ticks=float(durations.max()),
        )
        object.__setattr__(out, "durations", durations)
        results.append(out)
    return results
