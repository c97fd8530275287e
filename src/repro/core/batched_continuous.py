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
:mod:`repro.core.continuous`) walk one jump chain that consumes *nothing
but uniform doubles*, two a tick, from a block-buffered
:class:`repro.utils.rng.UniformStream` (see the "draw contract" in their
module docstrings), then draw each level's clock from the generator
where the stream's last block fetch leaves it.  NumPy double streams are
chunk-invariant (``random(a)`` then ``random(b)`` equals ``random(a + b)``
split), so the per-repetition buffers here can be refilled on any
schedule whose fetches stay on the serial block grid: every tick
consumes each live repetition's doubles in the serial order, and the
bounded :class:`repro.utils.rng.UniformStreams` scheme sizes its chunks
to divide the serial block (the allocation never outgrows a fixed
budget), so :meth:`~repro.utils.rng.UniformStreams.align_to_serial` can
bring a finished repetition's generator to the serial position before
its ``Generator.gamma`` / ``negative_binomial`` level draws -- the very
calls the serial drivers make.  Every result field is bit-identical::

    batched_ctu_idla(g, seeds=seeds) ==
        [ctu_idla(g, seed=s) for s in seeds]           # bit for bit

and likewise for ``batched_uniform_idla`` (both scheduler modes) and
``batched_continuous_sequential_idla`` — enforced by
``tests/test_core_batched_continuous.py``.  Time-0 settlement is the
serial drivers' in-order pass (:func:`repro.core.settlement
.settle_vacant_starts_inorder`), resolved for every repetition in one
numpy pass and pinned against that helper, and the scheduler's pool rows
swap-remove as :class:`repro.core.settlement.UnsettledPool` does.

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

from repro.core import continuous as _ctu_mod
from repro.core import uniform as _uniform_mod
from repro.core.batched import (
    _finalize,
    _in_cohorts,
    _resolve_generators,
    batched_sequential_idla,
)
from repro.core.budget import plan_state
from repro.core.continuous import level_clocks
from repro.core.results import DispersionResult
from repro.core.route import (
    _ctu_results,
    _particle_count,
    _poissonised,
    _resolve_starts,
    _time0,
    _uniform_results,
)
from repro.core.sequential import _BLOCK as _SEQ_BLOCK
from repro.core.trajectory import ScheduleStore, TrajectoryStore
from repro.core.uniform import wasted_ticks
from repro.graphs.csr import Graph
from repro.kernels import get_kernels
from repro.utils.rng import UniformStreams, resolve_stream_block
from repro.utils.validation import check_limit, check_positive_finite, check_record
from repro.walks.continuous import poissonise_steps
from repro.walks.engine import make_stepper

__all__ = [
    "batched_ctu_idla",
    "batched_uniform_idla",
    "batched_continuous_sequential_idla",
    "stream_block",
]

#: Test override for the streaming refill chunk (doubles per repetition);
#: ``None`` auto-sizes through :func:`repro.utils.rng.resolve_stream_block`.
#: Any power of two from 2 (one tick's worst-case consumption) up to the
#: serial fetch block yields the same results — chunk-invariance of the
#: double stream is exactly what the equivalence tests vary this for.
_BLOCK: int | None = None


def _serial_block(process: str) -> int:
    """The fetch block of ``process``'s serial driver, which the lock-step
    chunks divide."""
    return (_ctu_mod if process == "ctu" else _uniform_mod)._BLOCK


def _lane_streams(process, gens, budget_doubles=None) -> UniformStreams:
    """Streams for the tick-scheduled drivers: <= 2 doubles per tick, in
    chunks that divide the serial fetch block of ``process``."""
    return UniformStreams(
        gens,
        per_rep_min=2,
        align=_serial_block(process),
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
        return resolve_stream_block(
            reps, per_rep_min=2, align=_serial_block(process), block=_BLOCK
        )
    raise ValueError(f"no tick-scheduled batched driver for process {process!r}")


def _init_lanes(g, origin, m, gens):
    """Each repetition's starts, then the time-0 settlement of every
    repetition in one numpy pass: the flat per-particle rows, each settle
    order so far, each pool row in ``unsflat``, and the live lanes
    (repetitions with unsettled particles) with their pool sizes.

    The settlement is :func:`~repro.core.settlement
    .settle_vacant_starts_inorder`'s, per repetition: the first particle
    on each start vertex settles there, and both the settle order and
    the pool of the rest are ascending."""
    starts2d = _resolve_starts(g, origin, m, gens)
    occ, first = _time0(origin, starts2d, g.n)
    settledflat = np.where(first, starts2d, -1).reshape(-1)
    orders: list[list[int]] = [np.flatnonzero(row).tolist() for row in first]
    # unsettled particles first, each group ascending
    unsflat = np.argsort(first, axis=1, kind="stable").reshape(-1)
    ks = m - first.sum(axis=1)
    lanes_list = np.flatnonzero(ks).tolist()
    posflat = starts2d.reshape(-1).copy()
    return (
        starts2d, occ, posflat, np.zeros(len(gens) * m, dtype=np.int64),
        settledflat, orders, unsflat, lanes_list, ks[lanes_list].tolist(),
    )


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
    record: bool = False,
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
        keeps full trajectories, identical to the serial driver's, in
        the chunked
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

    starts2d, steps2d, settled2d, orders, ends, store, streams = _jump_chain(
        g, origin, m, gens, kern, plan, record, "ctu"
    )
    settle_clock = np.zeros((R, m), dtype=np.float64)
    final_clock = np.zeros(R, dtype=np.float64)
    for r, gen in enumerate(gens):
        if ends[r]:
            streams.align_to_serial(r, 2 * ends[r][-1])
            clocks = level_clocks(gen, ends[r], rate)
            settle_clock[r, orders[r][m - len(ends[r]):]] = clocks
            final_clock[r] = clocks[-1]
    return list(
        _ctu_results(
            g, starts2d, steps2d, settled2d, _order_arrays(orders), final_clock,
            settle_clock, _finalize(store),
        )
    )


def _jump_chain(g, origin, m, gens, kern, plan, record, process,
                budget=float("inf"), limit_msg=""):
    """The jump chain of every repetition in lock-step, as
    :func:`repro.core.uniform.jump_chain` walks each: per tick, each live
    repetition's scheduler pick (a uniform slot of its unsettled pool)
    and walk step, two doubles.  A tick count past ``budget`` raises
    ``RuntimeError(limit_msg)``.

    Returns ``(starts2d, steps2d, settled2d, orders, ends, store,
    streams)``: ``ends[r]`` lists the ticks at which repetition ``r``'s
    levels ended, and ``streams`` holds the generators, ready to be
    aligned to the block grid of ``process``'s serial driver."""
    n, R = g.n, len(gens)
    (
        starts2d, occ, posflat, stepsflat, settledflat, orders, unsflat,
        lanes_list, k_list,
    ) = _init_lanes(g, origin, m, gens)
    store = TrajectoryStore(starts2d, n) if record else None
    ends: list[list[int]] = [[] for _ in range(R)]

    # ---- per-lane compact state (one lane per live repetition)
    lanes = np.asarray(lanes_list, dtype=np.int64)
    kL = np.asarray(k_list, dtype=np.int64)
    kfL = kL.astype(np.float64)
    km1L = kL - 1
    laneM = lanes * m
    laneN = lanes * n

    streams = _lane_streams(process, gens, plan.stream_budget_doubles)
    block = streams.block
    buf = streams.buf
    cursor = block  # forces the initial fill
    step = make_stepper(g, kern)

    # Every live lane consumes exactly 2 doubles per tick and all lanes
    # join at tick 0, so one shared cursor serves every buffer row, and
    # since the chunk is a power of two a tick never straddles a refill
    t = 0
    while lanes.size:
        t += 1
        if t > budget:
            raise RuntimeError(limit_msg)
        if cursor == block:
            streams.fill(lanes.tolist())
            cursor = 0
        u2 = buf[lanes, cursor : cursor + 2]
        cursor += 2
        # ringer: uniform slot of the unsettled pool
        i = (u2[:, 0] * kfL).astype(np.int64)
        np.minimum(i, km1L, out=i)
        p = unsflat[laneM + i]
        cell = laneM + p
        vnew = step(posflat[cell], u2[:, 1])
        posflat[cell] = vnew
        stepsflat[cell] += 1
        if store is not None:
            store.append(lanes, p, vnew)
        occv = occ[laneN + vnew]
        if occv.all():
            continue
        for li in np.flatnonzero(~occv).tolist():
            r = int(lanes[li])
            pp = int(p[li])
            occ[r * n + int(vnew[li])] = True
            settledflat[r * m + pp] = vnew[li]
            orders[r].append(pp)
            ends[r].append(t)
            kk = int(kL[li]) - 1
            # swap-remove, as UnsettledPool does in the serial driver
            unsflat[r * m + int(i[li])] = unsflat[r * m + kk]
            kL[li] = kk
            kfL[li] = kk
            km1L[li] = kk - 1
        keep = kL > 0
        if not keep.all():
            lanes, kL, kfL, km1L = lanes[keep], kL[keep], kfL[keep], km1L[keep]
            laneM, laneN = laneM[keep], laneN[keep]
    return (
        starts2d, stepsflat.reshape(R, m), settledflat.reshape(R, m), orders,
        ends, store, streams,
    )


def _order_arrays(orders: list[list[int]]) -> list[np.ndarray]:
    return [np.asarray(order, dtype=np.int64) for order in orders]


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
    record: bool = False,
    faithful_r: bool = False,
    num_particles: int | None = None,
    max_ticks: float | None = None,
    state_budget=None,
    kernels=None,
) -> list[DispersionResult]:
    """Run ``R`` independent Uniform-IDLA realisations in lock-step.

    Both scheduler modes of :func:`repro.core.uniform.uniform_idla` run
    in lock-step: the default (per-level wasted-tick) mode, and the
    ``faithful_r=True`` mode that draws the literal i.i.d. schedule —
    one scheduler pick per live repetition per tick (wasted ticks consume
    exactly that one double), recorded per repetition and attached as
    ``result.schedule``.  Entry ``r`` of the result is bit-identical to
    ``uniform_idla(g, origin, seed=seeds[r], ...)``, including the
    wasted-tick clock in ``result.ticks`` (and trajectories under
    ``record=True``).

    The default mode runs CTU-IDLA's lock-step jump chain, then each
    repetition's per-level wasted ticks.  In ``faithful_r`` mode per-tick
    consumption varies per lane (a wasted tick takes 1 double, a useful
    one 2), so each lane keeps its own buffer pointer; a conservative
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
    if not faithful_r:
        starts2d, steps2d, settled2d, orders, ends, store, streams = _jump_chain(
            g, origin, m, gens, kern, plan, record, "uniform", budget,
            limit_msg,
        )
        final_ticks = np.zeros(R, dtype=np.int64)
        for r, gen in enumerate(gens):
            if ends[r]:
                streams.align_to_serial(r, 2 * ends[r][-1])
                final_ticks[r] = ends[r][-1] + wasted_ticks(gen, ends[r], m)
                if final_ticks[r] > budget:
                    raise RuntimeError(limit_msg)
        return list(
            _uniform_results(
                g, starts2d, steps2d, settled2d, _order_arrays(orders),
                final_ticks, _finalize(store), None,
            )
        )

    # ---- literal-schedule mode: one i.i.d. pick over particles
    # ``1..m-1`` per live repetition per tick (the paper's R), drawn
    # whether or not the tick is wasted; only non-wasted ticks draw the
    # walk-step double.  The unsettled pool is never consulted — exactly
    # the serial driver's ``faithful_r`` branch.
    check_budget = max_ticks is not None
    (
        starts2d, occ, posflat, stepsflat, settledflat, orders, unsflat,
        lanes_list, k_list,
    ) = _init_lanes(g, origin, m, gens)
    final_ticks = np.zeros(R, dtype=np.int64)
    store = TrajectoryStore(starts2d, n) if record else None
    lanes = np.asarray(lanes_list, dtype=np.int64)
    kL = np.asarray(k_list, dtype=np.int64)
    ticksL = np.zeros(lanes.size, dtype=np.int64)
    laneM = lanes * m
    laneN = lanes * n

    # aligned though it never aligns: stream_block reports one chunk
    # for both scheduler modes
    streams = _lane_streams("uniform", gens, plan.stream_budget_doubles)
    block = streams.block
    laneB = lanes * block
    streams.fill(lanes_list)
    bufflat = streams.flat
    bptrL = np.zeros(lanes.size, dtype=np.int64)
    step = make_stepper(g, kern)
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

    return list(
        _uniform_results(
            g, starts2d, stepsflat.reshape(R, m), settledflat.reshape(R, m),
            _order_arrays(orders), final_ticks, _finalize(store), schedules,
        )
    )


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
    record: bool = False,
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
    for res, gen in zip(walks, gens):
        if res.total_steps == 0:
            # The serial driver draws its first uniform block before the
            # release loop; a repetition whose particles all settle
            # instantly consumes none of it, but the draw still advances
            # the stream the Gamma call reads from.
            gen.random(_SEQ_BLOCK)
    durations = np.array(
        [poissonise_steps(res.steps, gen, rate=rate) for res, gen in zip(walks, gens)]
    )
    return list(
        _poissonised(
            g, [res.origin for res in walks], np.array([res.steps for res in walks]),
            np.array([res.settled_at for res in walks]),
            [res.trajectories for res in walks], durations,
        )
    )
