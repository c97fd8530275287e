"""Unit tests for the trajectory arrays and the chunked trajectory /
schedule stores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trajectory import (
    ScheduleStore,
    TrajectoryArrays,
    TrajectoryStore,
    _ChunkedLog,
)


class TestTrajectoryArrays:
    ROWS = [[0, 1], [2, 3, 4]]

    @pytest.mark.parametrize("p", [0, 1, -1, -2])
    def test_index_wraps_like_a_list(self, p):
        t = TrajectoryArrays.from_lists(self.ROWS)
        assert t[p].tolist() == t.to_lists()[p]

    @pytest.mark.parametrize("p", [2, -3, 99])
    def test_out_of_range_index_raises(self, p):
        t = TrajectoryArrays.from_lists(self.ROWS)
        with pytest.raises(IndexError):
            t.to_lists()[p]
        with pytest.raises(IndexError):
            t[p]

    @pytest.mark.parametrize(
        "key",
        [
            slice(None),
            slice(1, None),
            slice(0, 1),
            slice(None, None, -1),
            slice(1, 0),
            slice(-5, 5),
            slice(None, None, 2),
        ],
        ids=repr,
    )
    def test_slice_selects_rows(self, key):
        rows = [[5], [0, 1], [2, 3, 4], [7, 6]]
        t = TrajectoryArrays.from_lists(rows)
        picked = t[key]
        assert isinstance(picked, TrajectoryArrays)
        assert picked.to_lists() == t.to_lists()[key]
        assert picked.flat.dtype == np.int32 and picked.offsets.dtype == np.int64

    def test_index_types(self):
        t = TrajectoryArrays.from_lists(self.ROWS)
        assert t[np.int64(-1)].tolist() == [2, 3, 4]
        with pytest.raises(TypeError):
            t[1.0]

    def test_one_dtype_from_every_builder(self):
        """Lists, the store (narrow log columns included) and a handed-off
        repetition all seal to ``int32`` vertices and ``int64`` offsets."""
        store = TrajectoryStore(np.array([[5, 2], [3, 4]]), n=8)
        store.append([0, 1], [0, 1], [1, 6])
        store.handoff(1)
        built = [TrajectoryArrays.from_lists(self.ROWS), *store.finalize_arrays()]
        for t in built:
            assert t.flat.dtype == np.int32 and t.offsets.dtype == np.int64
        # a step to a lower vertex stays negative under np.diff
        assert np.diff(built[1].row(0)).tolist() == [-4]
        assert built[2].to_lists() == [[3], [4, 6]]



class TestChunkedLog:
    def test_append_and_gather_across_chunk_boundaries(self):
        log = _ChunkedLog((np.uint16, np.int32), chunk=4)
        log.append([0, 1, 2], [10, 11, 12])
        log.append([3, 4, 5, 6, 7], [13, 14, 15, 16, 17])  # straddles twice
        assert len(log) == 8
        a, b = log.gathered()
        assert a.dtype == np.uint16 and b.dtype == np.int32
        assert a.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert b.tolist() == [10, 11, 12, 13, 14, 15, 16, 17]

    def test_empty_append_is_noop(self):
        log = _ChunkedLog((np.int32,) * 3, chunk=4)
        log.append(np.empty(0), np.empty(0), np.empty(0))
        assert len(log) == 0
        assert all(c.size == 0 for c in log.gathered())

    def test_gather_cache_invalidated_by_append(self):
        log = _ChunkedLog((np.int32,), chunk=2)
        log.append([1])
        assert log.gathered()[0].tolist() == [1]
        log.append([2, 3])
        assert log.gathered()[0].tolist() == [1, 2, 3]

    def test_oversized_single_append(self):
        log = _ChunkedLog((np.int32,), chunk=3)
        vals = list(range(11))
        log.append(vals)
        assert log.gathered()[0].tolist() == vals
        assert [c[0].tolist() for c in log.chunks()] == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7, 8],
            [9, 10],
        ]


class TestTrajectoryStore:
    def test_finalize_seeds_starts_and_groups_per_particle(self):
        starts = np.array([[5, 6], [7, 8]])
        store = TrajectoryStore(starts)
        # tick 1: rep 0 particle 1 -> 3; rep 1 particle 0 -> 2
        store.append([0, 1], [1, 0], [3, 2])
        # tick 2: rep 0 particle 1 -> 4
        store.append([0], [1], [4])
        out = store.finalize_arrays()
        assert out == [[[5], [6, 3, 4]], [[7, 2], [8]]]

    def test_event_order_within_a_call_groups_by_particle(self):
        starts = np.array([[0, 0, 0]])
        store = TrajectoryStore(starts)
        store.append([0, 0, 0], [2, 0, 1], [9, 7, 8])  # any in-call order
        store.append([0, 0, 0], [0, 1, 2], [1, 2, 3])
        out = store.finalize_arrays()
        assert out == [[[0, 7, 1], [0, 8, 2], [0, 9, 3]]]

    def test_handoff_returns_prefix_and_wins_at_finalize(self):
        starts = np.array([[1, 2], [3, 4]])
        store = TrajectoryStore(starts)
        store.append([0, 1], [0, 0], [5, 6])
        rows = store.handoff(1)
        assert rows == [[3, 6], [4]]
        rows[0].append(9)  # the scalar finisher keeps appending
        out = store.finalize_arrays()
        assert out[0] == [[1, 5], [2]]  # untouched rep: from the log
        assert out[1] == [[3, 6, 9], [4]]  # handed-off rep: the live lists

    def test_no_events_finalizes_to_bare_starts(self):
        store = TrajectoryStore(np.array([[2, 3]]))
        assert store.finalize_arrays() == [[[2], [3]]]


class TestScheduleStore:
    def test_per_repetition_tick_order(self):
        store = ScheduleStore(3)
        store.append([0, 1, 2], [5, 6, 7])
        store.append([0, 2], [8, 9])
        store.append([0], [1])
        out = store.finalize()
        assert [a.tolist() for a in out] == [[5, 8, 1], [6], [7, 9]]
        assert all(a.dtype == np.int64 for a in out)

    def test_empty(self):
        out = ScheduleStore(2).finalize()
        assert [a.tolist() for a in out] == [[], []]


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_store_is_chunk_size_invariant(monkeypatch, chunk):
    """The chunk is a pure storage granularity: any size yields the same
    finalised trajectories."""
    import repro.core.trajectory as traj_mod

    rng = np.random.default_rng(0)
    starts = rng.integers(0, 10, size=(4, 3))
    # each append names a (repetition, particle) cell at most once, as
    # every driver's round does (the store's rank-stamping contract)
    cells = [rng.choice(12, size=k, replace=False) for k in rng.integers(0, 6, size=12)]
    events = [(c // 3, c % 3, rng.integers(0, 10, size=c.size)) for c in cells]

    def run():
        store = TrajectoryStore(starts)
        for e in events:
            store.append(*e)
        return store.finalize_arrays()

    ref = run()
    monkeypatch.setattr(traj_mod, "_CHUNK", chunk)
    # _ChunkedLog reads the default at construction time via TrajectoryStore
    # (defaults tuple covers the trailing chunk parameter)
    monkeypatch.setattr(traj_mod._ChunkedLog.__init__, "__defaults__", (chunk,))
    assert run() == ref
