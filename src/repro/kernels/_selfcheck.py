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
from repro.utils.rng import SpawnRange

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
    shard loop runs several rows in one call and the recorded runs fill
    their event sinks, so the row offsets and the resume protocols are
    checked too; the holding layer runs on real bit generators against
    numpy's own ``Generator.gamma`` and ``negative_binomial``.
    """
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)

    # the draw contract: C steps a numpy PCG64 inline (its pcg64_state
    # read through bitgen_t.state) and stores the state back (the other
    # bit generators' generic call is the prefix bit generator's, below);
    # each row of the C-seeded states is the one numpy.random.PCG64 seeds
    # from that SeedSequence child (an entropy of three words and a
    # nested spawn key with a word above 2**32)
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

    # the jump chain: three particles from vertex 0, particle 0 settled at
    # time 0: particle 2 steps to 1 and settles (tick 1 ends level 2),
    # particle 1 steps to 1, then on to 2 (tick 3 ends level 1); two
    # doubles a tick.  Each run also has two such rows in one call, each
    # with its own generator of the same doubles, and ends them alike; a
    # budget of 2 ticks stops every row before its third tick draws
    doubles = [0.9, 0.0, 0.0, 0.0, 0.0, 0.9]
    walked = [[0], [0, 1, 2], [0, 1]]
    starts = np.zeros(3, dtype=np.int64)
    for R, rec, budget in product((1, 2), (False, True), (float("inf"), 2.0)):
        occ = np.tile(np.array([1, 0, 0], dtype=np.uint8), R)
        rows = {key: np.tile(np.array(a, dtype=np.int64), (R, 1)) for key, a in (
            ("pool", [1, 2, 0]), ("pos", [0, 0, 0]), ("steps", [0, 0, 0]),
            ("settled", [0, -1, -1]), ("order", [0, -1, -1]), ("jumps", [0, 0, 0]),
        )}
        rngs = [_ArrayGenerator(ks, doubles) for _ in range(R)]
        sinks = [sink(starts, opened=False) for _ in range(R)] if rec else None
        shard = Shard(
            ks._impl, "run_ticks", rngs, graph=(indptr, indices, occ), rows=rows,
            counts={0: 2, 1: 1}, width=4, sinks=sinks, budget=budget,
        )
        status = shard.run(ks._impl.run_ticks)
        if budget < 3:
            assert status == -1 and shard.which == 0, status
            assert [rng.drawn() for rng in rngs] == [4] + [0] * (R - 1)
            continue
        assert status == 1 and shard.state[:, 2].tolist() == [3] * R, shard.state
        assert [rng.drawn() for rng in rngs] == [6] * R
        assert rows["jumps"].tolist() == [[0, 3, 1]] * R, rows["jumps"]
        assert rows["settled"].tolist() == rows["order"].tolist() == [[0, 2, 1]] * R
        assert rows["steps"].tolist() == rows["pos"].tolist() == [[0, 2, 1]] * R
        for rec in sinks or ():
            assert rec.trajectories == walked

    # the holding layer against numpy's samplers, three rows: a numpy PCG64
    # (stepped inline, the samplers reach it through the shim), a C-seeded
    # PCG64 state and an MT19937 (its own bitgen_t), each skipping to its
    # block grid first.  Levels 3, 2, 1 took 1, 3 and 5 ticks; their ends
    # are settled by particles 3, 1, 2
    child = SpawnRange(np.random.SeedSequence(7), 0, 1)
    seeds = np.zeros((3, 4), dtype=np.uint64)
    seeds[1] = ks.pcg64_seeds(child)[0]
    levels, jumps, rate = np.array([3, 2, 1]), np.array([1, 3, 5]), 0.5
    skip = np.array([5, 16379, 2], dtype=np.int64)
    for kind in ("c-sequential", "ctu", "uniform"):
        rngs = [np.random.Generator(np.random.PCG64(5)), None,
                np.random.Generator(np.random.MT19937(5))]
        twins = [np.random.Generator(np.random.PCG64(5)),
                 np.random.Generator(np.random.PCG64(child[0])),
                 np.random.Generator(np.random.MT19937(5))]
        rows = {key: np.tile(np.array(a, dtype=np.int64), (3, 1)) for key, a in (
            ("steps", [0, 4, 1, 7]), ("jumps", [0, 9, 4, 1]), ("order", [0, 3, 1, 2]),
        )}
        rows["sclock"] = np.zeros((3, 4))
        states = seeds.copy()
        shard = Shard(ks._impl, "hold", rngs, rows=rows, width=4, seeds=states, rate=rate)
        shard.state[:, 2] = 9
        shard.run(lambda c: 1, lambda c: ks._impl.hold(c, ks._impl.hold_kind[kind], skip))
        expect = np.zeros((3, 4))
        for r, twin in enumerate(twins):
            twin.random(skip[r])
            if kind == "c-sequential":
                expect[r, 1:] = twin.gamma([4, 1, 7], 1.0 / rate)
            elif kind == "ctu":
                expect[r, [3, 1, 2]] = np.cumsum(twin.gamma(jumps, 1.0 / (levels * rate)))
            else:
                wasted = twin.negative_binomial(jumps[1:], levels[1:] / 3).sum()
                assert shard.state[r, 2] == 9 + wasted, (kind, shard.state)
        assert rows["sclock"].tolist() == expect.tolist(), (kind, rows["sclock"])
        # and each source ends where its twin does
        after = [rngs[0].random(2), ks.draw_doubles([None], 2, seeds=states[1:2])[0],
                 rngs[2].random(2)]
        assert [a.tolist() for a in after] == [t.random(2).tolist() for t in twins], kind

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


