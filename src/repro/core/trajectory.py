"""Chunked per-repetition trajectory recording for the batched drivers.

``record=True`` asks a driver for the full vertex sequence of every
particle.  The serial drivers build those sequences the obvious way —
one Python list per particle, appended per step — which is exactly the
per-element bookkeeping the lock-step drivers exist to avoid: a batched
round touches *every live repetition at once*, so appending through
``R`` Python lists per round would hand the whole batching win back.

The :class:`TrajectoryStore` here keeps recording on the vector path.
Each round the driver appends its flat ``(repetition, particle, vertex)``
state in one slice assignment per column into append-only int32
**chunks** (a grown chunk is started, never copied; columns are stored
separately so every later pass streams contiguous memory), and the exact
``list[list[int]]`` shape :class:`repro.core.results.DispersionResult`
exposes is materialised once, by a single sort-free counting scatter
(each append touches a cell at most once, so events are rank-stamped on
the way in) — ``O(events)`` NumPy work plus one ``tolist()`` per
particle instead of per-step interpreter dispatch.  The grouping pass is
computed lazily and cached, so the scalar tail finisher's handoffs and
the final assembly share one scatter.

Two contracts make the store drop-in for the batched subsystem:

* **bit-shape identity** — every particle's sequence starts at its start
  vertex and appends one vertex per recorded event in consumption order,
  so the finalised lists equal the serial drivers' ``trajectories``
  element for element (the differential harness pins this across all
  five processes);
* **mid-stream handoff** — :meth:`handoff` materialises one straggler
  repetition's prefix as mutable per-particle lists for the scalar tail
  finisher to keep appending to, mirroring :meth:`UniformStreams.tail
  <repro.utils.rng.UniformStreams.tail>` on the uniform-stream side; the
  handed-off lists win at :meth:`finalize`.

:class:`ScheduleStore` is the same chunked-append idea for Uniform-IDLA's
``faithful_r`` mode, where the realised i.i.d. schedule is one extra int
per tick per live repetition.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np

__all__ = ["TrajectoryArrays", "TrajectoryStore", "ScheduleStore"]


@contextlib.contextmanager
def _gc_paused():
    """Pause garbage collection around bulk Python-list materialisation.

    Finalising a big run creates hundreds of millions of ints and lists;
    none of them can participate in a reference cycle, but every
    generational collection the allocations trigger still scans the
    ever-growing heap — a quadratic tax on exactly the hot path this
    store exists to keep linear.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()

#: Events per chunk.  Chunks are linked, not reallocated: growing the log
#: never copies what was already recorded.
_CHUNK = 1 << 16


class _ChunkedLog:
    """Append-only integer columns, grown chunk by chunk, stored per column.

    Layout is chosen for a memory-bandwidth-bound consumer: columns are
    separate (every finalisation pass streams one column contiguously)
    and each column takes the narrowest dtype its values need — on a
    recording run the log is by far the largest data structure, so bytes
    per event are the constant that matters.
    """

    __slots__ = ("_dtypes", "_chunk", "_full", "_cur", "_fill", "_cache")

    def __init__(self, dtypes, chunk: int = _CHUNK):
        self._dtypes = tuple(dtypes)
        self._chunk = chunk
        # per-column lists of exhausted chunks + the open chunk
        self._full: list[list[np.ndarray]] = [[] for _ in self._dtypes]
        self._cur = [np.empty(chunk, dtype=d) for d in self._dtypes]
        self._fill = 0
        self._cache: tuple[int, tuple[np.ndarray, ...]] | None = None

    def __len__(self) -> int:
        return len(self._full[0]) * self._chunk + self._fill

    def append(self, *cols) -> None:
        """Append one event per row of the given equal-length columns."""
        k = len(cols[0])
        if k == 0:
            return
        start = 0
        while start < k:
            room = self._chunk - self._fill
            if room == 0:
                for c, dtype in enumerate(self._dtypes):
                    self._full[c].append(self._cur[c])
                    self._cur[c] = np.empty(self._chunk, dtype=dtype)
                self._fill = 0
                room = self._chunk
            take = min(room, k - start)
            row = slice(self._fill, self._fill + take)
            for c, col in enumerate(cols):
                self._cur[c][row] = col[start : start + take]
            self._fill += take
            start += take

    def chunks(self):
        """Yield the log as per-column chunk tuples, in append order.

        Iterating chunks lets consumers stream the log without ever
        materialising a monolithic copy of it (the log can be gigabytes).
        """
        for i in range(len(self._full[0])):
            yield tuple(self._full[c][i] for c in range(len(self._dtypes)))
        if self._fill:
            yield tuple(c[: self._fill] for c in self._cur)

    def gathered(self) -> tuple[np.ndarray, ...]:
        """Each column so far as one contiguous array (cached by length)."""
        size = len(self)
        if self._cache is not None and self._cache[0] == size:
            return self._cache[1]
        ncols = len(self._dtypes)
        out = tuple(
            np.concatenate([*self._full[c], self._cur[c][: self._fill]])
            if self._full[c]
            else self._cur[c][: self._fill]
            for c in range(ncols)
        )
        self._cache = (size, out)
        return out


def _narrow_dtype(max_value: int):
    """Narrowest unsigned/signed dtype holding ``0..max_value``."""
    if max_value <= np.iinfo(np.uint16).max:
        return np.uint16
    if max_value <= np.iinfo(np.int32).max:
        return np.int32
    return np.int64


class TrajectoryArrays:
    """One repetition's trajectories as a ragged array pair, zero-copy rows.

    The ``list[list[int]]`` trajectory shape costs one Python object per
    recorded vertex — at large ``n`` the final materialisation dominates a
    recording run (the ROADMAP's "trajectory list tax").  This container
    is the array-native alternative ``record="arrays"`` produces: one flat
    vertex array plus an ``(m + 1,)`` int64 offset array, with
    :meth:`row` returning a **view** (no copy, no Python ints) of particle
    ``p``'s vertex sequence.

    Equality is by content against either another :class:`TrajectoryArrays`
    or the serial drivers' list-of-lists shape (``lists == arrays`` also
    works — Python's reflected ``__eq__`` lands here), which is what lets
    the differential harness compare the two recording modes directly.
    :class:`repro.core.blocks.Block` accepts either shape as rows.
    """

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets: np.ndarray, flat: np.ndarray):
        self.offsets = offsets
        self.flat = flat

    @classmethod
    def from_lists(cls, rows) -> TrajectoryArrays:
        """Build from the serial drivers' ``list[list[int]]`` shape."""
        lens = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.concatenate(([0], np.cumsum(lens)))
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        at = 0
        for row in rows:
            flat[at : at + len(row)] = row
            at += len(row)
        return cls(offsets, flat)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def row(self, p: int) -> np.ndarray:
        """Particle ``p``'s vertex sequence — a zero-copy view."""
        return self.flat[self.offsets[p] : self.offsets[p + 1]]

    def __getitem__(self, p: int) -> np.ndarray:
        return self.row(p)

    def __iter__(self):
        for p in range(len(self)):
            yield self.row(p)

    def to_lists(self) -> list[list[int]]:
        """Materialise the serial ``list[list[int]]`` shape (pays the tax)."""
        with _gc_paused():
            return [self.row(p).tolist() for p in range(len(self))]

    def __eq__(self, other):
        if isinstance(other, TrajectoryArrays):
            return np.array_equal(self.offsets, other.offsets) and np.array_equal(
                self.flat, other.flat
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return all(
                self.row(p).tolist() == list(other[p]) for p in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # mutable array content

    def __repr__(self) -> str:
        return (
            f"TrajectoryArrays(particles={len(self)}, "
            f"events={self.flat.size})"
        )


class TrajectoryStore:
    """Record ``(repetition, particle, vertex)`` events for a batched run.

    Grouping events back into per-particle sequences never sorts: every
    lock-step round advances each ``(repetition, particle)`` cell at most
    once, so :meth:`append` can stamp each event with its per-cell rank —
    a conflict-free gather/scatter against one cache-resident counter
    table — and :meth:`_grouped` places all events with a single O(events)
    scatter through the cells' cumulative counts.

    Parameters
    ----------
    starts2d:
        ``(R, m)`` start vertices — particle ``p`` of repetition ``r``
        seeds its trajectory with ``starts2d[r, p]``, exactly like the
        serial drivers' ``[[int(v)] for v in starts]`` initialisation
        (instantly-settled particles therefore finalise to ``[start]``
        without ever producing an event).
    """

    __slots__ = ("_starts", "_log", "_counter", "_handoff", "_groups")

    def __init__(self, starts2d: np.ndarray, n: int | None = None):
        self._starts = np.asarray(starts2d)
        R, m = self._starts.shape
        if R * m - 1 > np.iinfo(np.int32).max:
            raise ValueError(
                f"trajectory recording supports at most 2^31 (repetition, "
                f"particle) cells, got {R} x {m}"
            )
        self._counter = np.zeros(R * m, dtype=np.int64)
        vert_max = int(n) - 1 if n is not None else np.iinfo(np.int32).max
        # cell id, rank within cell, vertex — each as narrow as it can be
        self._log = _ChunkedLog(
            (_narrow_dtype(R * m - 1), np.int32, _narrow_dtype(vert_max))
        )
        self._handoff: dict[int, list[list[int]]] = {}
        self._groups: tuple[int, tuple] | None = None

    def append(self, rep_ids, pids, verts) -> None:
        """Record one vertex per ``(repetition, particle)`` row, in order.

        Called once per lock-step round/tick with the driver's flat state.
        Within a call each ``(repetition, particle)`` cell may appear **at
        most once** (every driver's round advances a particle at most one
        step) — that is what keeps the rank stamping conflict-free;
        per-particle chronology is the append-call order.
        """
        if len(rep_ids) == 0:
            return
        keys = np.asarray(rep_ids) * self._starts.shape[1] + pids
        rank = self._counter[keys]
        self._counter[keys] = rank + 1
        self._log.append(keys, rank, verts)

    def _grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Events grouped by ``(repetition, particle)`` cell, chronological
        within each group: ``(group cell ids, group bounds, grouped verts)``.

        One counting scatter over the whole log — no sort — cached by log
        length so the tail finisher's per-straggler :meth:`handoff` calls
        and the final :meth:`finalize` pass all share it.
        """
        size = len(self._log)
        if self._groups is not None and self._groups[0] == size:
            return self._groups[1]
        cell_start = np.concatenate(([0], np.cumsum(self._counter)))
        grouped_verts = np.empty(size, dtype=self._log._dtypes[2])
        # stream the log chunk by chunk: the per-chunk dest temps stay
        # cache-resident and the multi-gigabyte log is never copied whole
        for keys, rank, vert in self._log.chunks():
            dest = cell_start[keys]
            dest += rank
            grouped_verts[dest] = vert
        cells = np.flatnonzero(self._counter)
        bounds = np.concatenate(([0], np.cumsum(self._counter[cells])))
        grouped = (cells, bounds, grouped_verts)
        self._groups = (size, grouped)
        return grouped

    def handoff(self, r: int) -> list[list[int]]:
        """Materialise repetition ``r``'s prefix for the scalar tail finisher.

        Returns one mutable list per particle — ``[start]`` plus every
        event recorded so far — which the finisher keeps appending to in
        the serial drivers' own shape.  The returned lists (not the event
        log) are what :meth:`finalize` reports for this repetition.
        """
        rows = [[int(v)] for v in self._starts[r]]
        if len(self._log):
            m = self._starts.shape[1]
            cells, bounds, verts = self._grouped()
            lo = int(np.searchsorted(cells, r * m))
            hi = int(np.searchsorted(cells, (r + 1) * m))
            with _gc_paused():
                for i in range(lo, hi):
                    p = int(cells[i]) - r * m
                    rows[p].extend(verts[bounds[i] : bounds[i + 1]].tolist())
        self._handoff[r] = rows
        return rows

    def finalize_arrays(self) -> list[TrajectoryArrays]:
        """Materialise every repetition's :class:`TrajectoryArrays`.

        The ``record="arrays"`` finaliser: the same (cached) grouping
        scatter as :meth:`finalize`, but the grouped vertices land in one
        flat array with each particle's start vertex prepended — no
        Python ints, no per-particle lists.  Per-repetition results are
        zero-copy views into that one array; repetitions previously
        handed to a scalar finisher contribute their (finisher-mutated)
        :meth:`handoff` lists, converted.
        """
        R, m = self._starts.shape
        # +1: every particle's sequence is seeded with its start vertex
        lens = self._counter + 1
        offsets_all = np.concatenate(([0], np.cumsum(lens)))
        flat = np.empty(int(offsets_all[-1]), dtype=self._log._dtypes[2])
        seq_start = offsets_all[:-1]
        flat[seq_start] = self._starts.reshape(-1)
        if len(self._log):
            # the grouped pass orders events by cell then rank — exactly
            # the order of the non-start positions of `flat`
            _, _, grouped_verts = self._grouped()
            mask = np.ones(flat.size, dtype=bool)
            mask[seq_start] = False
            flat[mask] = grouped_verts
        out = []
        for r in range(R):
            if r in self._handoff:
                out.append(TrajectoryArrays.from_lists(self._handoff[r]))
                continue
            lo, hi = int(offsets_all[r * m]), int(offsets_all[(r + 1) * m])
            out.append(
                TrajectoryArrays(
                    offsets_all[r * m : (r + 1) * m + 1] - lo, flat[lo:hi]
                )
            )
        return out

    def finalize(self) -> list[list[list[int]]]:
        """Materialise every repetition's ``list[list[int]]`` trajectories.

        One bulk ``extend`` per particle over the (cached) grouping pass;
        repetitions previously handed to a scalar finisher contribute
        their (finisher-mutated) :meth:`handoff` lists instead of their
        logged prefix.
        """
        R, m = self._starts.shape
        with _gc_paused():
            out = [
                self._handoff[r]
                if r in self._handoff
                else [[int(v)] for v in self._starts[r]]
                for r in range(R)
            ]
            if not len(self._log):
                return out
            cells, bounds, verts = self._grouped()
            for i, cell in enumerate(cells.tolist()):
                r, p = divmod(cell, m)
                if r in self._handoff:
                    continue  # the handed-off lists already hold this prefix
                out[r][p].extend(verts[bounds[i] : bounds[i + 1]].tolist())
        return out


class ScheduleStore:
    """Record Uniform-IDLA's realised ``faithful_r`` schedule per repetition.

    One ``(repetition, pick)`` event per tick per live repetition —
    including wasted ticks, exactly like the serial driver's
    ``schedule.append(p)``.  The same rank-stamped counting scatter as
    :class:`TrajectoryStore` (a repetition ticks at most once per append)
    groups the log without sorting.  Finalises to one int64 array per
    repetition (the dtype ``uniform_idla`` attaches as
    ``result.schedule``).
    """

    __slots__ = ("_reps", "_counter", "_log")

    def __init__(self, reps: int):
        self._reps = reps
        self._counter = np.zeros(reps, dtype=np.int64)
        # repetition, rank within it, pick
        self._log = _ChunkedLog((_narrow_dtype(max(reps - 1, 0)), np.int32, np.int32))

    def append(self, rep_ids, picks) -> None:
        if len(rep_ids) == 0:
            return
        rank = self._counter[rep_ids]
        self._counter[rep_ids] = rank + 1
        self._log.append(rep_ids, rank, picks)

    def append_run(self, r: int, picks) -> None:
        """Record a consecutive run of picks for one repetition.

        The bulk path of the ``faithful_r`` wasted-tick scanner
        (:func:`repro.core.batched_continuous._finish_faithful_lane`): a
        whole run of schedule picks — the wasted ticks plus the first
        active one — lands as one slice append with consecutive ranks,
        equivalent to ``run-length`` single-repetition :meth:`append`
        calls.
        """
        count = len(picks)
        if count == 0:
            return
        start = int(self._counter[r])
        self._counter[r] = start + count
        self._log.append(
            np.full(count, r, dtype=np.int64),
            np.arange(start, start + count, dtype=np.int64),
            picks,
        )

    def finalize(self) -> list[np.ndarray]:
        out = [np.empty(0, dtype=np.int64)] * self._reps
        if not len(self._log):
            return out
        rep, rank, pick = self._log.gathered()
        rep_start = np.concatenate(([0], np.cumsum(self._counter)))
        grouped = np.empty(len(self._log), dtype=np.int64)
        grouped[rep_start[rep] + rank] = pick
        for r in np.flatnonzero(self._counter).tolist():
            # copy: a view would pin the whole all-repetitions array (and
            # the serial driver hands out independent arrays)
            out[r] = grouped[rep_start[r] : rep_start[r + 1]].copy()
        return out
