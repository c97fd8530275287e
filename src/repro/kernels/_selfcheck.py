"""The load-time self-check of a compiled kernel provider.

Imported only when a compiled provider loads: :func:`self_check` runs
every exported C function on the path graph P3 and asserts the answers,
so a miscompiled or mis-installed provider fails at resolution, not
mid-run.
"""

from __future__ import annotations

import ctypes
import threading
from itertools import product
from types import SimpleNamespace

import numpy as np

from repro.kernels import _CAPSULE, CompiledKernels, EventSink, Shard, _bitgen_address

# with a prototype of its own: the shared ctypes.pythonapi function is
# left as other code may have set it
_capsule_new = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
)(("PyCapsule_New", ctypes.pythonapi))


class _BlockFeeder:
    """Fixed block sequence standing in for a stream (self-check only)."""

    def __init__(self, blocks):
        self._blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        self.drawn = 0

    def take_block(self) -> np.ndarray:
        if not self._blocks:
            raise AssertionError("kernel self-check over-consumed its stream")
        return self._blocks.pop(0)

    def random(self, n: int) -> np.ndarray:  # stub generator for the walks
        out = self.take_block()
        if out.shape[0] != n:
            raise AssertionError("kernel self-check block size mismatch")
        return out


class _ArrayGenerator:
    """Generator stand-in over a fixed double sequence.

    Its ``bit_generator`` has what the bit-generator loops read of
    numpy's: a ``lock`` and the ``bitgen_t`` capsule, here of the C
    source's prefix bit generator, whose ``drawn()`` counts every double
    the loop asked for.  Past the array it serves the doubles of the
    numpy generator ``rest``, or (the self-check) ``0.0`` with none.
    """

    def __init__(self, ks: CompiledKernels, doubles, rest=None):
        bitgen = ks._impl.prefix_bitgen(
            np.asarray(doubles, dtype=np.float64),
            None if rest is None else _bitgen_address(rest.bit_generator),
        )
        self.drawn = bitgen.drawn
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(),
            capsule=_capsule_new(bitgen.address, _CAPSULE, None),
            _keep=(bitgen, rest),
        )


def self_check(ks: CompiledKernels) -> None:
    """Exercise every kernel on the path graph P3 and assert the answers.

    Catches toolchain miscompiles at selection time, loudly.  Every
    shard loop runs several rows in one call, the recorded runs fill
    their event sinks, and the tick loops also run with a one-slot log
    lane, so the row offsets and the resume protocols are checked too.
    """
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)

    # the draw contract: C steps a numpy PCG64 inline (its pcg64_state
    # read through bitgen_t.state) and stores the state back (the other
    # bit generators' generic call is the prefix bit generator's, below);
    # each row of the C-seeded states is the one numpy.random.PCG64 seeds
    # from that SeedSequence child (an entropy of three words and a
    # nested spawn key with a word above 2**32)
    from repro.utils.rng import SpawnRange

    rng, twin = (np.random.Generator(np.random.PCG64(20260)) for _ in range(2))
    drawn = ks.draw_doubles([rng], 5)
    assert drawn.tolist() == [twin.random(5).tolist()], drawn
    assert rng.bit_generator.state == twin.bit_generator.state
    children = SpawnRange(np.random.SeedSequence(2**70 + 9, spawn_key=(1, 2**33)), 0, 2)
    for row, child in zip(ks.pcg64_seeds(children).tolist(), children):
        state = np.random.PCG64(child).state["state"]
        assert row == [
            word >> shift & 0xFFFFFFFFFFFFFFFF
            for word in (state["state"], state["inc"])
            for shift in (0, 64)
        ], row

    stepped = ks.csr_step(
        indptr, indices,
        np.array([0, 1, 1, 2], dtype=np.int64),
        np.array([0.99, 0.0, 0.51, 0.2]),
    )
    assert stepped.tolist() == [1, 0, 2, 1], stepped

    occ2 = np.array([1, 0, 0, 1, 1, 0], dtype=bool)
    cand = ks.vacant_candidates(
        occ2,
        np.array([0, 0, 3, 3], dtype=np.int64),
        np.array([1, 0, 2, 0], dtype=np.int64),
    )
    assert cand.tolist() == [0, 2], cand

    winners = ks.settle_round(
        occ2,
        np.array([0, 0, 1, 1], dtype=np.int64),
        np.array([1, 1, 2, 2], dtype=np.int64),
        np.array([5, 3, 7, 9], dtype=np.int64),
        3,
    )
    assert winners.tolist() == [1, 2], winners

    occ = np.zeros(3, dtype=bool)
    occ[0] = True
    vertex, rounds = ks.finish_parallel_single(
        indptr, indices, occ, _BlockFeeder([[0.9]]),
        v=0, t=0, lazy=False, budget=float("inf"),
        limit_msg="self-check",
    )
    assert (vertex, rounds) == (1, 1) and bool(occ[1])

    # recorded runs use one-event sinks (a Parallel-IDLA sink: one round),
    # so every loop also re-enters after "sink full"; the loops that run
    # their rows in order take them unopened, as the route hands them
    def sink(starts, capacity=1, opened=True):
        return EventSink(ks._impl.scatter_events, capacity, starts, opened=opened)

    # Sequential-IDLA in one call of ten rows, two particles each, vertex
    # 0 taken: row 0 settled both at time 0; row 1 resumes particle 0 one
    # step (and one double) in, reading two doubles from a prefix, then
    # one from its generator; rows 2-9 walk from time 0, more rows than
    # the loop has lanes, so lanes take new rows.  Each walking particle
    # holds once, then steps.  The 4-step budget stops a loop that
    # over-draws: past its doubles a generator yields 0.0, a hold.  The
    # recorded run's one-event sinks make every lane re-enter
    walk_a = ([1, 2], [0.2, 0.9, 0.1, 0.6], [2, 1], [[1, 1, 2], [2, 2, 1]])
    walk_b = ([2, 1], [0.2, 0.9, 0.1, 0.9], [1, 2], [[2, 2, 1], [1, 1, 2]])
    walks = [walk_a, walk_b] * 4
    for rec in (False, True):
        starts = np.array([[0, 2], [1, 2]] + [w[0] for w in walks], dtype=np.int64)
        R = starts.shape[0]
        occ = np.zeros((R, 3), dtype=bool)
        occ[:, 0] = occ[0, 2] = True
        steps = np.zeros((R, 2), dtype=np.int64)
        settled = np.full((R, 2), -1, dtype=np.int64)
        settled[0] = [0, 2]
        rngs = [_ArrayGenerator(ks, d) for d in [[], [0.6]] + [w[1] for w in walks]]
        sinks = [sink(row) for row in starts] if rec else None
        consumed = ks.finish_sequential(
            indptr, indices, occ.reshape(-1), starts, rngs,
            prefixes=[None, np.array([0.9, 0.1])] + [None] * (R - 2),
            walker=[2] + [0] * (R - 1), pstep=[0, 1] + [0] * (R - 2),
            total=[0, 1] + [0] * (R - 2), lazy=True, budget=4.0,
            limit_msg="self-check", steps=steps, settled=settled, sinks=sinks,
        )
        drawn = [rng.drawn() for rng in rngs]
        assert consumed.tolist() == [0] + [4] * (R - 1), consumed
        assert drawn == [0, 1] + [4] * (R - 2), drawn
        assert settled.tolist() == [[0, 2], [2, 1]] + [w[2] for w in walks]
        assert steps.tolist() == [[0, 0]] + [[2, 2]] * (R - 1), steps
        if rec:
            traj = [sk.trajectories.to_lists() for sk in sinks]
            assert traj == [[[0], [2]], [[1, 2], [2, 2, 1]]] + [
                w[3] for w in walks
            ], traj

    out = np.empty(3, dtype=np.int64)
    out[0] = 0
    ks.walk_positions(indptr, indices, out, _BlockFeeder([[0.5, 0.5]]), 2)
    assert out.tolist() == [0, 1, 2], out

    hits = ks.walk_until_hit(
        indptr, indices, np.array([0, 0, 1], dtype=np.uint8), 0,
        _BlockFeeder([[0.9, 0.9]]), 2, float("inf"), "self-check",
    )
    assert hits == 2, hits

    # three particles from vertex 0, particle 0 settled at time 0: particle
    # 2 steps to 1 and settles, particle 1 steps to 1, then on to 2.  Each
    # loop also runs two such rows in one call, each with its own
    # generator of the same doubles, and ends them alike
    def tick_rows(R):
        occ = np.tile(np.array([1, 0, 0], dtype=np.uint8), R)
        rows = [np.tile(np.array(a, dtype=np.int64), (R, 1)) for a in (
            [1, 2, 0], [0, 0, 0], [0, 0, 0], [0, -1, -1], [0, -1, -1],
        )]
        return occ, rows

    # CTU: 3 doubles a tick; Uniform: 2 a tick, plus a skip double on
    # ticks 2 and 3 (skips int(log1p(-0.8) / log1p(-0.5)) = 2, then 0)
    draws = {
        "ctu": [0.5, 0.9, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.9],
        "uniform": [0.9, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.9],
    }
    logq = np.log1p(-(np.arange(2) / 2))
    # every recorded loop below ends in the same trajectories: particle 0
    # settled at its start, particle 2 stepped once, particle 1 twice
    walked = [[0], [0, 1, 2], [0, 1]]
    starts = np.zeros(3, dtype=np.int64)
    dt = -float(np.log1p(-0.5))
    clock = dt / 2.0 + dt + dt

    def tick_ends(R, rngs, loop, rows, sinks):
        _, pos, steps_row, settled_row, order = rows
        assert [rng.drawn() for rng in rngs] == [len(draws[loop])] * R
        assert settled_row.tolist() == order.tolist() == [[0, 2, 1]] * R
        assert steps_row.tolist() == pos.tolist() == [[0, 2, 1]] * R
        for rec in sinks or ():
            assert rec.trajectories == walked

    def tick_sinks(R, rec):
        return [sink(starts, opened=False) for _ in range(R)] if rec else None

    for R, rec in ((1, False), (1, True), (2, False), (2, True)):
        occ, rows = tick_rows(R)
        pool, pos, steps_row, settled_row, order = rows
        clock_rows = np.zeros((R, 3))
        rngs = [_ArrayGenerator(ks, draws["ctu"]) for _ in range(R)]
        sinks = tick_sinks(R, rec)
        clocks = ks.finish_ctu(
            indptr, indices, occ, pool, pos, steps_row, settled_row,
            clock_rows, order, rngs, k=2, norder=1, rate=1.0, sinks=sinks,
        )
        assert clocks.tolist() == [clock] * R, clocks
        assert clock_rows.tolist() == [[0.0, clock, dt / 2.0]] * R, clock_rows
        tick_ends(R, rngs, "ctu", rows, sinks)

        occ, rows = tick_rows(R)
        pool, pos, steps_row, settled_row, order = rows
        rngs = [_ArrayGenerator(ks, draws["uniform"]) for _ in range(R)]
        sinks = tick_sinks(R, rec)
        ticks = ks.finish_uniform(
            indptr, indices, occ, pool, pos, steps_row, settled_row, order,
            rngs, k=2, norder=1, logq=logq, budget=float("inf"),
            limit_msg="self-check", sinks=sinks,
        )
        assert ticks.tolist() == [5] * R, ticks
        tick_ends(R, rngs, "uniform", rows, sinks)

    # the same runs with a one-slot lane: before each tick that needs a
    # slot once it is taken, the loop returns 3 ("lane full"); every
    # return leaves the tick's log double, negated, and its divisor in the
    # lane.  Two rows share the lane: row 1 finds it holding row 0's last
    # double
    half = float(logq[1])
    full = {
        "ctu": [(3, -0.5, 2.0), (3, -0.5, 1.0), (1, -0.5, 1.0)],
        "uniform": [(3, -0.8, half), (1, -0.0, half)],
    }
    lane = np.empty(2)
    for (loop, seen), R in product(full.items(), (1, 2)):
        occ, rows = tick_rows(R)
        rngs = [_ArrayGenerator(ks, draws[loop]) for _ in range(R)]
        named = dict(zip(("pool", "pos", "steps", "settled", "order"), rows))
        if loop == "ctu":
            named["sclock"] = np.zeros((R, 3))
            extra, hi = {"width": 5, "rate": 1.0}, 3
        else:
            extra = {"width": 6, "logq": logq, "pool_size": 2, "budget": float("inf")}
            hi = 4
        shard = Shard(
            ks._impl, loop, rngs, graph=(indptr, indices, occ), rows=named,
            counts={0: 2, 1: 1}, lane=lane, lane_cap=1, **extra,
        )
        shard.bgs[:] = [_bitgen_address(rng.bit_generator) for rng in rngs]
        got = []
        while not got or got[-1][0] == 3:
            status = shard.enter(getattr(ks._impl, f"run_{loop}"))
            assert shard.state[:, hi].max() == 1, shard.state
            got.append((status, float(lane[0]), float(lane[1])))
        expect = [*seen[:-1], (3, *seen[-1][1:])] * (R - 1) + seen
        assert got == expect, got
        tick_ends(R, rngs, loop, rows, None)

    # the folds on a fixed lane of logarithms against the serial double
    # arithmetic, slot by slot: three rows, the middle one's segment
    # empty; CTU row 0's particle 1 settled on its segment's last slot,
    # row 2's particle 0 on its first, after a fold that left row 2's
    # clock at 0.5 and its settle order at 1
    logs = [float(np.log1p(-0.5)), -0.0, float(np.log1p(-0.25)), float(np.log1p(-0.9))]
    divs = [2.0, 3.0, 0.75, 1.5]
    lane = np.array(logs + divs)
    span = [(0, 2), (2, 2), (2, 4)]
    state = np.array([[0, 1, a, b, 0] for a, b in span], dtype=np.int64)
    state[2, 1] = 2
    sclock = np.array([[0.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
    order = np.array([[1, 0], [0, 0], [1, 0]], dtype=np.int64)
    folded, clocks = np.array([0, 1, 1], dtype=np.int64), np.array([0.0, 0.0, 0.5])
    shard, views = ks._impl.shard(
        R=3, m=2, lane=lane, lane_cap=4, state=state, sclock=sclock, order=order
    )
    ks._impl.fold_ctu(shard, folded, clocks)
    ends = []
    for (a, b), c in zip(span, (0.0, 0.0, 0.5)):
        for i in range(a, b):
            c = c - logs[i] / divs[i]
            ends.append(c)
    assert clocks.tolist() == [ends[1], 0.0, ends[3]], clocks
    assert sclock.tolist() == [[0.0, ends[1]], [0.0, 0.0], [ends[2], 0.0]], sclock
    assert folded.tolist() == [1, 1, 2] and lane[:4].tolist() == ends, lane
    lane = np.array(logs + [-1e-3, half, half, -1e-9])
    state = np.array([[0, 0, 7, a, b, 0] for a, b in span], dtype=np.int64)
    shard, views = ks._impl.shard(R=3, lane=lane, lane_cap=4, state=state)
    ks._impl.fold_uniform(shard)
    skips = [int(x / d) for x, d in zip(logs, lane[4:].tolist())]
    assert state[:, 2].tolist() == [7 + skips[0] + skips[1], 7, 7 + skips[2] + skips[3]]

    # lazy Parallel-IDLA, every round wide: round 1 moves both walkers
    # 0 -> 1, where particle 2 wins on priority; round 2 moves particle 1
    # on to 2.  A second row ranks particle 1 first, so there particle 1
    # settles at 1 and particle 2 moves on.  Six doubles a row, none
    # drawn past them.  The 2-round budget stops a loop that over-draws:
    # past its end the array yields 0.0, a hold gate, on which the walker
    # would stay forever
    ends = [([0, 2, 1], walked), ([0, 1, 2], [[0], [0, 1], [0, 1, 2]])]
    for R, rec in ((1, False), (1, True), (2, False), (2, True)):
        rngs = [
            _ArrayGenerator(ks, [0.9, 0.9, 0.5, 0.5, 0.9, 0.9]) for _ in range(R)
        ]
        occ = np.tile(np.array([1, 0, 0], dtype=np.uint8), R)
        act = np.tile(np.array([1, 2, 0], dtype=np.int64), (R, 1))
        pos = np.zeros((R, 3), dtype=np.int64)
        prio = np.array([[0, 2, 1], [0, 1, 2]][:R], dtype=np.int64)
        steps_row = np.zeros((R, 3), dtype=np.int64)
        settled_row = np.tile(np.array([0, -1, -1], dtype=np.int64), (R, 1))
        round_row = settled_row.copy()
        sinks = [sink(starts, 2, False) for _ in range(R)] if rec else None
        rounds = ks.finish_parallel(
            indptr, indices, occ, act, pos, prio, steps_row, settled_row,
            round_row, rngs, k=2, free=2, lazy=True,
            scalar_threshold=0, budget=2.0, max_rounds=None, sinks=sinks,
        )
        settled_at = [row for row, _ in ends[:R]]
        assert rounds.tolist() == [2] * R, rounds
        assert [rng.drawn() for rng in rngs] == [6] * R
        assert settled_row.tolist() == steps_row.tolist() == settled_at
        assert round_row.tolist() == settled_at
        for rec, (_, paths) in zip(sinks or (), ends):
            assert rec.trajectories == paths


