"""Compiled inner-loop kernels behind an import-time seam.

The lock-step drivers are pure array programs, but two costs survive the
vectorisation: per-round numpy dispatch (a fixed number of ufunc calls
whose overhead dominates once the live-walker count is small) and the
scalar tail finisher's plain-Python micro-loops.  This package provides
optional compiled replacements — the pattern scikit-learn applies with
its Cython layer — behind a registry resolved in this order:

1. an explicit ``kernels=`` argument (name or :class:`KernelSet`),
2. the ``REPRO_KERNELS`` environment variable,
3. auto-detection: the ``cffi`` provider (the C kernels compiled with
   the system toolchain) when cffi and a compiler are present, else
   ``numpy``.

Providers
---------
``numpy``
    The existing vectorised/scalar code paths — no compiled code, always
    available.  ``compiled=False`` makes every driver keep its current
    body, so forcing ``REPRO_KERNELS=numpy`` is the honest fallback mode.
``cffi``
    The kernels as C (:mod:`repro.kernels._csource`), built once with
    the system compiler (``$CC``, default ``cc``) and opened in cffi ABI
    mode.

Bit-identity contract
---------------------
Compiled kernels activate only for materialised-CSR graphs
(:func:`csr_arrays`); the differential harness in
``tests/test_differential_drivers.py`` pins every swapped kernel against
the serial oracles, double for double.  A provider passes a load-time
self-check (:func:`_self_check`) exercising all twelve entry points before
it can be selected, so a miscompiled or mis-installed provider fails at
resolution, not mid-run.
"""

from __future__ import annotations

import os
import shlex
import threading
import warnings
from importlib.util import find_spec
from types import SimpleNamespace

import numpy as np

__all__ = [
    "ENV_VAR",
    "CompiledKernels",
    "EventSink",
    "KernelSet",
    "KernelsUnavailableError",
    "NumpyKernels",
    "available_kernels",
    "check_kernels",
    "csr_arrays",
    "get_kernels",
]

ENV_VAR = "REPRO_KERNELS"

#: Auto-detection preference; ``numpy`` is the implicit final fallback.
_AUTO_ORDER = ("cffi",)

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)

#: Events an :class:`EventSink` buffer holds before a recording loop
#: returns "sink full" (a Parallel-IDLA sink holds at least one round).
_SINK_EVENTS = 1 << 15


class KernelsUnavailableError(ValueError):
    """A requested kernel provider cannot be initialised here."""


def csr_arrays(g) -> tuple[np.ndarray, np.ndarray] | None:
    """Host CSR arrays of ``g``, or ``None`` when compiled kernels must
    stand down.

    Implicit families expose no ``indptr``/``indices`` (their slot kernel
    is arithmetic, and materialising would defeat their O(1)-in-n
    footprint), so they keep the numpy path.
    :class:`repro.graphs.csr.Graph` stores both arrays C-contiguous
    ``int64``, which is exactly what the kernels consume.
    """
    indptr = getattr(g, "indptr", None)
    indices = getattr(g, "indices", None)
    if not isinstance(indptr, np.ndarray) or not isinstance(indices, np.ndarray):
        return None
    if indptr.dtype != _I64 or indices.dtype != _I64:
        return None
    if not (indptr.flags.c_contiguous and indices.flags.c_contiguous):
        return None
    return indptr, indices


def _i64(a: np.ndarray) -> np.ndarray:
    if a.dtype == _I64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.int64)


def _f64(a: np.ndarray) -> np.ndarray:
    if a.dtype == _F64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


def _u8(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.bool_:
        return a.view(np.uint8)
    return a if a.dtype == np.uint8 else np.ascontiguousarray(a, dtype=np.uint8)


# The per-repetition loops write through raw pointers, so their wrappers
# refuse, before any draw, what C would misread or overrun: a row of
# another dtype or a strided view (reinterpreted, or silently copied so
# the update is lost), a row too short, an index outside its row.
def _check_rows(name: str, dtype, length: int, *rows) -> None:
    for a in rows:
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError(f"{name} needs C-contiguous {dtype} rows")
        if a.shape[0] < length:
            raise ValueError(f"{name}: a row is shorter than {length}")


def _check_range(name: str, what: str, values: np.ndarray, hi: int) -> None:
    # int64 values: seen as uint64 a negative one is huge, so one max()
    # tests both ends of [0, hi)
    if values.size and values.view(np.uint64).max() >= hi:
        raise ValueError(f"{name}: {what} outside [0, {hi})")


def _occ_row(name: str, occ_row: np.ndarray, n: int) -> np.ndarray:
    """``occ_row`` as the ``uint8`` view a loop updates in place."""
    if occ_row.dtype not in (np.bool_, np.uint8) or not occ_row.flags.c_contiguous:
        raise ValueError(f"{name} needs a C-contiguous bool or uint8 occ_row")
    if occ_row.shape[0] < n:
        raise ValueError(f"{name}: occ_row is shorter than the graph")
    return occ_row.view(np.uint8)


def _tick_occ(name, indptr, occ_row, pool, rows, clock_row, order, k, norder):
    """A tick loop's checks (``rows[0]`` is ``pos_row``); returns ``occ``."""
    n = indptr.shape[0] - 1
    occ = _occ_row(name, occ_row, n)
    if k < 0 or norder < 0:
        raise ValueError(f"{name}: k and norder must be >= 0")
    m = rows[0].shape[0]
    _check_rows(name, _I64, m, *rows)
    _check_rows(name, _I64, k, pool)
    _check_rows(name, _I64, norder + k, order)
    if clock_row is not None:
        _check_rows(name, _F64, m, clock_row)
    _check_range(name, "a pool entry", pool[:k], m)
    _check_range(name, "a pooled particle's vertex", rows[0][pool[:k]], n)
    return occ


class KernelSet:
    """Resolved kernel provider: the object the drivers thread around.

    ``compiled`` is the single flag call sites gate on — ``False`` (the
    numpy provider) means "keep the existing code path", so the numpy
    fallback costs nothing and cannot drift.  Instances pickle by name
    (:meth:`__reduce__`), so a resolved provider travels through the
    fan-out runner's kwargs and is re-resolved inside each worker.
    """

    __slots__ = ("name",)
    compiled = False
    #: Narrowest array width at which the lock-step drivers call the
    #: compiled array kernels.  Below it the FFI/launch overhead loses to
    #: numpy's ufunc path (measured crossover ~64 lanes on x86-64), so
    #: the narrowest rounds — the very end of the settlement tail — keep
    #: the numpy expressions; the scalar finishers and single-walker
    #: loops ignore this (they replace per-*step* Python loops, where
    #: compiled always wins).  Irrelevant when ``compiled`` is ``False``.
    min_width = 0

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelSet name={self.name!r} compiled={self.compiled}>"

    def __reduce__(self):
        return (get_kernels, (self.name,))

    # ------------------------------------------------------------------
    def stepper(self, g):
        """Fused-step closure ``step(pos, u, out=None)`` for ``g``, or
        ``None`` when this provider (or this graph) keeps the numpy path."""
        return None


class NumpyKernels(KernelSet):
    """Reference provider: the kernels' semantics in plain numpy.

    The array kernels are implemented (they are what the unit tests
    compare the compiled providers against); the drivers never call them
    because ``compiled=False`` keeps the existing inlined bodies.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__("numpy")

    def csr_step(self, indptr, indices, pos, u, out=None):
        deg = indptr[pos + 1] - indptr[pos]
        offsets = (u * deg).astype(np.int64)
        np.minimum(offsets, deg - 1, out=offsets)
        flat = indptr[pos] + offsets
        if out is None:
            return indices[flat]
        np.take(indices, flat, out=out)
        return out

    def vacant_candidates(self, occupied, rep_off, pos):
        return np.flatnonzero(occupied[rep_off + pos] == 0)

    def make_settle_scratch(self, n: int):
        return None

    def settle_round(self, occupied, rep_ids, pos, priority, n, scratch=None):
        from repro.core.settlement import select_settlers

        rep_off = rep_ids * n
        cand = np.flatnonzero(occupied[rep_off + pos] == 0)
        if cand.size == 0:
            return cand
        winners = select_settlers(rep_off[cand] + pos[cand], priority[cand])
        return cand[winners]


class EventSink:
    """Event log of one recorded repetition of a per-repetition C loop.

    The loop writes one ``(particle, vertex)`` int32 pair per
    particle-step into :attr:`buf` (holds included, the serial drivers'
    record shape).  Before a step or round that would overflow it, the
    loop returns "sink full"; the wrapper then seals the filled
    buffer and re-enters with a fresh one.  :meth:`trajectories` groups
    the events by particle in one counting scatter, no sort.
    """

    __slots__ = ("capacity", "buf", "_sealed", "_scatter")

    def __init__(self, scatter, capacity: int):
        if capacity < 1:
            # a loop could never record its next step: it would re-enter forever
            raise ValueError(f"event sink capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.buf = np.empty(2 * capacity, dtype=np.int32)
        self._sealed: list[np.ndarray] = []
        self._scatter = scatter

    def seal(self, count: int, *, reopen: bool = True) -> None:
        """Keep the first ``count`` events of :attr:`buf`; with
        ``reopen``, start an empty buffer for the loop to continue in."""
        self._sealed.append(self.buf[: 2 * count])
        self.buf = np.empty(2 * self.capacity if reopen else 0, dtype=np.int32)

    def trajectories(self, starts: np.ndarray):
        """The sealed events as :class:`~repro.core.trajectory
        .TrajectoryArrays`: particle ``p``'s row is ``starts[p]`` followed
        by its recorded vertices in order."""
        from repro.core.trajectory import TrajectoryArrays

        m = starts.shape[0]
        lens = np.ones(m, dtype=np.int64)  # every row opens with its start
        for ev in self._sealed:
            lens += np.bincount(ev[0::2], minlength=m)
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int32)
        flat[offsets[:-1]] = starts
        cursor = offsets[:-1] + 1
        for ev in self._sealed:
            self._scatter(ev, ev.shape[0] // 2, cursor, flat)
        return TrajectoryArrays(offsets, flat)


class CompiledKernels(KernelSet):
    """Wrapper over the low-level provider namespace (:mod:`cffi_impl`).

    The loop kernels speak a shared buffer protocol: they consume
    uniforms from the array they were handed and return ``0`` when it
    runs dry, whereupon the wrapper fetches the next block from the
    stream object (``UniformStream.take_block`` for the finishers, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay reconcilable
    with the serial grid (``UniformStreams.align_to_serial``).  The
    Parallel-IDLA loop (:meth:`finish_parallel`) instead draws from the
    generator's ``bitgen_t`` inside C, one call per repetition.

    The per-repetition loops take an optional ``sink``
    (:meth:`event_sink`) that records the repetition's trajectories.
    """

    __slots__ = ("_impl",)
    compiled = True
    min_width = 64

    def __init__(self, name: str, impl):
        super().__init__(name)
        self._impl = impl

    # ---- array kernels -----------------------------------------------
    def csr_step(self, indptr, indices, pos, u, out=None):
        pos = _i64(pos)
        k = pos.shape[0]
        if out is None:
            out = np.empty(k, dtype=np.int64)
        self._impl.csr_step(indptr, indices, pos, _f64(u), out, k)
        return out

    def stepper(self, g):
        csr = csr_arrays(g)
        if csr is None:
            return None
        indptr, indices = csr

        def step(pos, u, out=None, _self=self, _ip=indptr, _ix=indices):
            return _self.csr_step(_ip, _ix, pos, u, out)

        return step

    def vacant_candidates(self, occupied, rep_off, pos):
        pos = _i64(pos)
        k = pos.shape[0]
        out = np.empty(k, dtype=np.int64)
        c = self._impl.vacant(_u8(occupied), _i64(rep_off), pos, k, out)
        return out[: int(c)]

    def make_settle_scratch(self, n: int) -> np.ndarray:
        """Persistent per-vertex contest scratch (must stay all ``-1``
        between calls; :meth:`settle_round` restores it)."""
        return np.full(n, -1, dtype=np.int64)

    def settle_round(self, occupied, rep_ids, pos, priority, n, scratch=None):
        pos = _i64(pos)
        k = pos.shape[0]
        if scratch is None:
            scratch = self.make_settle_scratch(n)
        touched = np.empty(min(k, n), dtype=np.int64)
        winners = np.empty(k, dtype=np.int64)
        c = self._impl.settle_round(
            _u8(occupied), _i64(rep_ids), pos, _i64(priority), k, n,
            scratch, touched, winners,
        )
        return winners[: int(c)]

    # ---- event sinks ---------------------------------------------------
    def event_sink(self, min_capacity: int = 1) -> EventSink:
        """A fresh :class:`EventSink` for one recorded repetition, holding
        at least ``min_capacity`` events per buffer."""
        return EventSink(self._impl.scatter_events, max(_SINK_EVENTS, min_capacity))

    @staticmethod
    def _sink_args(sink):
        # the room of the buffer actually passed, so C never writes past it
        return (None, 0) if sink is None else (sink.buf, sink.buf.shape[0] // 2)

    @staticmethod
    def _feed(run, stream, state, sink, *, cursor, events, carry, limit_msg=None):
        """Drive a block-fed loop to completion: ``run(buf, lg)`` enters
        it once and returns 1 done, 0 buffer dry (next block; with
        ``carry`` behind the unconsumed tail, with its numpy log lane
        ``lg``), 2 sink full (sealed) or < 0 over budget."""
        buf = _f64(stream.take_block())
        lg = np.log1p(-buf) if carry else None
        while True:
            status = run(buf, lg)
            if status == 2:
                sink.seal(int(state[events]))
                state[events] = 0
                continue
            if status == 1:
                if sink is not None:
                    sink.seal(int(state[events]), reopen=False)
                return
            if status < 0:
                raise RuntimeError(limit_msg)
            if carry:
                buf = np.concatenate((buf[state[cursor] :], stream.take_block()))
                lg = np.log1p(-buf)
            else:
                buf = _f64(stream.take_block())
            state[cursor] = 0

    # ---- scalar-tail finisher loops ----------------------------------
    def finish_sequential(
        self, indptr, indices, occ_row, starts, tail, *,
        walker, pos, pstep, total, lazy, budget, limit_msg,
        steps_row, settled_row, sink=None,
    ) -> int:
        """Compiled ``_finish_sequential_rep``; returns consumed doubles.

        With ``sink``, every step from here on is recorded into it."""
        n = indptr.shape[0] - 1
        occ = _occ_row("finish_sequential", occ_row, n)
        starts = _i64(starts)
        m = starts.shape[0]
        _check_rows("finish_sequential", _I64, m, steps_row, settled_row)
        _check_range("finish_sequential", "a start", starts, n)
        if not (0 <= walker < m and 0 <= pos < n):
            raise ValueError("finish_sequential: walker or pos out of range")
        state = np.array([walker, pos, pstep, total, 0, 0], dtype=np.int64)
        lz = 1 if lazy else 0
        self._feed(
            lambda buf, _: self._impl.finish_seq(
                indptr, indices, occ, starts, steps_row, settled_row,
                buf, buf.shape[0], state, m, lz, budget,
                *self._sink_args(sink),
            ),
            tail, state, sink, cursor=4, events=5, carry=False,
            limit_msg=limit_msg,
        )
        return int(state[3])

    def finish_parallel_single(
        self, indptr, indices, occ_arr, tail, *,
        v, t, lazy, guard, budget, limit_msg,
    ) -> tuple[int, int]:
        """Compiled single-straggler loop; returns ``(vertex, round)``."""
        state = np.array([v, t], dtype=np.int64)
        occ = _u8(occ_arr)
        lz = 1 if lazy else 0
        gd = 1 if guard else 0
        buf = tail.take_block()
        while True:
            status = self._impl.finish_par1(
                indptr, indices, occ, _f64(buf), buf.shape[0], state,
                lz, gd, budget,
            )
            if status == 1:
                return int(state[0]), int(state[1])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = tail.take_block()

    # ---- per-repetition tick-process loops ---------------------------
    # One whole repetition of CTU-/Uniform-IDLA per call, from its time-0
    # state: pool[:k] the unsettled particles, order[:norder] the settle
    # order so far; the row arrays are updated in place.  Each buffer
    # comes with its numpy log lane, and the unconsumed tail of a buffer
    # (at most 2 doubles: the loops stop before a tick they cannot finish)
    # is carried in front of the next block (``_feed``'s ``carry``), so
    # whole blocks are fetched exactly when the serial driver's
    # UniformStream fetches them.
    def finish_ctu(
        self, indptr, indices, occ_row, pool, pos_row, steps_row,
        settled_row, clock_row, order, stream, *, k, norder, rate,
        sink=None,
    ) -> float:
        """Compiled :func:`repro.core.continuous.ctu_idla` tick loop;
        returns the repetition's final clock.  With ``sink``, every tick
        is recorded into it."""
        occ = _tick_occ(
            "finish_ctu", indptr, occ_row, pool,
            (pos_row, steps_row, settled_row), clock_row, order, k, norder,
        )
        state = np.array([k, norder, 0, 0], dtype=np.int64)
        clock = np.zeros(1, dtype=np.float64)
        self._feed(
            lambda buf, lg: self._impl.run_ctu(
                indptr, indices, occ, pool, pos_row, steps_row, settled_row,
                clock_row, order, buf, lg, buf.shape[0], state,
                clock, float(rate), *self._sink_args(sink),
            ),
            stream, state, sink, cursor=2, events=3, carry=True,
        )
        return float(clock[0])

    def finish_uniform(
        self, indptr, indices, occ_row, pool, pos_row, steps_row,
        settled_row, order, stream, *, k, norder, logq, budget, limit_msg,
        sink=None,
    ) -> int:
        """Compiled :func:`repro.core.uniform.uniform_idla` tick loop
        (default scheduler); returns the repetition's tick count.

        ``logq[j]`` is ``np.log1p(-(j / pool_size))`` for
        ``j < pool_size = logq.shape[0]``, the geometric-skip divisor.
        With ``sink``, every tick that steps is recorded into it.
        """
        occ = _tick_occ(
            "finish_uniform", indptr, occ_row, pool,
            (pos_row, steps_row, settled_row), None, order, k, norder,
        )
        _check_rows("finish_uniform", _F64, 0, logq)
        state = np.array([k, norder, 0, 0, 0], dtype=np.int64)
        self._feed(
            lambda buf, lg: self._impl.run_uniform(
                indptr, indices, occ, pool, pos_row, steps_row, settled_row,
                order, buf, lg, buf.shape[0], logq,
                logq.shape[0], state, budget, *self._sink_args(sink),
            ),
            stream, state, sink, cursor=3, events=4, carry=True,
            limit_msg=limit_msg,
        )
        return int(state[2])

    def finish_parallel(
        self, indptr, indices, occ_row, act, pos, prio, best, steps_row,
        settled_row, round_row, rng, *, free, lazy, scalar_threshold,
        budget, max_rounds, sink=None,
    ) -> int:
        """Compiled :func:`repro.core.parallel.parallel_idla` round loop
        for one repetition; returns its final round.

        Starts after the round-0 settlement pass: ``act`` holds the
        unsettled particles ascending and ``pos`` their vertices (both
        are reordered in place), ``free`` the vacant-vertex count.
        ``prio`` is the per-particle priority and ``best`` an all ``-1``
        scratch of size ``n``, restored on return.  The loop reads its
        own generator directly: it draws each double from ``rng``'s bit
        generator, under that generator's lock, in the serial order.  The
        samples are the serial ones, and the generator ends right after
        the last double consumed.  With ``sink`` (capacity at least
        ``act.size``: one round's events), every round is recorded into
        it.
        """
        n = indptr.shape[0] - 1
        occ = _occ_row("finish_parallel", occ_row, n)
        _check_rows(
            "finish_parallel", _I64, 0, act, pos, prio, steps_row,
            settled_row, round_row,
        )
        _check_rows("finish_parallel", _I64, n, best)
        if pos.shape != act.shape:
            raise ValueError("finish_parallel: act/pos size mismatch")
        k = act.shape[0]
        if sink is not None and sink.capacity < k:
            raise ValueError("finish_parallel: sink holds less than one round")
        # the loop checks 0 <= act < m and 0 <= pos < n before any draw
        m = min(a.shape[0] for a in (prio, steps_row, settled_row, round_row))
        # k only shrinks, so clamping keeps every `k > threshold` test
        thr = max(-1, min(scalar_threshold, k))
        state = np.array([k, 0, free, 0], dtype=np.int64)
        hold = np.empty(k) if lazy else None
        lz = 1 if lazy else 0
        bitgen = rng.bit_generator
        with bitgen.lock:
            address = bitgen.ctypes.bit_generator.value
            while True:
                status = self._impl.run_parallel(
                    indptr, indices, occ, act, pos, prio, best, steps_row,
                    settled_row, round_row, address, hold, m, n, state, lz,
                    thr, budget, *self._sink_args(sink),
                )
                if status != 2:
                    break
                sink.seal(int(state[3]))
                state[3] = 0
        if status == -2:
            raise ValueError(
                "finish_parallel: an act entry is past a row or a pos entry "
                "is not a vertex"
            )
        if status < 0:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        if sink is not None:
            sink.seal(int(state[3]), reopen=False)
        return int(state[1])

    # ---- single-walker loops -----------------------------------------
    def walk_positions(self, indptr, indices, out, rng, block: int):
        """Compiled :func:`repro.walks.single.random_walk` loop.

        ``out[0]`` must hold the start; the first block is drawn eagerly
        (``SingleWalkKernel.__init__`` does), refills are whole blocks.
        """
        steps = out.shape[0] - 1
        state = np.array([0, out[0]], dtype=np.int64)
        buf = rng.random(block)
        while True:
            status = self._impl.walk_fill(
                indptr, indices, out, steps, buf, buf.shape[0], state
            )
            if status == 1:
                return out
            buf = rng.random(block)

    def walk_until_hit(
        self, indptr, indices, hit, start, rng, block: int,
        limit: float, limit_msg: str,
    ) -> int:
        """Compiled :func:`repro.walks.single.walk_until_hit` loop."""
        state = np.array([0, start], dtype=np.int64)
        hit = _u8(hit)
        buf = rng.random(block)
        while True:
            status = self._impl.walk_hit(
                indptr, indices, hit, buf, buf.shape[0], state, limit
            )
            if status == 1:
                return int(state[0])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = rng.random(block)


# ----------------------------------------------------------------------
# load-time self-check
# ----------------------------------------------------------------------
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
    """Generator stand-in over a fixed double sequence (self-check only).

    Its ``bit_generator`` has what ``finish_parallel`` reads of numpy's:
    a ``lock`` and the ``bitgen_t`` address, here of the C source's
    array-backed bit generator, whose ``drawn()`` counts every double
    the loop asked for.
    """

    def __init__(self, ks: CompiledKernels, doubles):
        bitgen = ks._impl.array_bitgen(np.asarray(doubles, dtype=np.float64))
        self.drawn = bitgen.drawn
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(),
            ctypes=SimpleNamespace(
                bit_generator=SimpleNamespace(value=bitgen.address)
            ),
            _keep=bitgen,
        )


def _self_check(ks: CompiledKernels) -> None:
    """Exercise every kernel on the path graph P3 and assert the answers.

    Catches toolchain miscompiles at selection time, loudly.  Inputs
    cross a buffer-refill boundary, and the recorded runs fill their
    event sinks, so the resume protocols are checked too.
    """
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)

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
        v=0, t=0, lazy=False, guard=False, budget=float("inf"),
        limit_msg="self-check",
    )
    assert (vertex, rounds) == (1, 1) and bool(occ[1])

    # recorded runs use one-event sinks (a Parallel-IDLA sink: one round),
    # so every loop also re-enters after "sink full"
    def sink(capacity=1):
        return EventSink(ks._impl.scatter_events, capacity)

    occ = np.zeros(3, dtype=bool)
    occ[0] = True
    steps_row = np.zeros(2, dtype=np.int64)
    settled_row = np.full(2, -1, dtype=np.int64)
    consumed = ks.finish_sequential(
        indptr, indices, occ,
        np.array([1, 2], dtype=np.int64),
        _BlockFeeder([[0.9], [0.1]]),
        walker=0, pos=1, pstep=0, total=0, lazy=False,
        budget=float("inf"), limit_msg="self-check",
        steps_row=steps_row, settled_row=settled_row,
    )
    assert consumed == 2
    assert settled_row.tolist() == [2, 1] and steps_row.tolist() == [1, 1]

    # lazy: each particle holds once, then steps; with a one-event sink
    # the loop re-enters mid-buffer after every event
    for rec in (None, sink()):
        occ = np.zeros(3, dtype=bool)
        occ[0] = True
        steps_row = np.zeros(2, dtype=np.int64)
        settled_row = np.full(2, -1, dtype=np.int64)
        starts = np.array([1, 2], dtype=np.int64)
        consumed = ks.finish_sequential(
            indptr, indices, occ, starts,
            _BlockFeeder([[0.2, 0.9], [0.1, 0.6]]),
            walker=0, pos=1, pstep=0, total=0, lazy=True,
            budget=float("inf"), limit_msg="self-check",
            steps_row=steps_row, settled_row=settled_row, sink=rec,
        )
        assert consumed == 4
        assert settled_row.tolist() == [2, 1] and steps_row.tolist() == [2, 2]
        if rec is not None:
            traj = rec.trajectories(starts)
            assert traj.to_lists() == [[1, 1, 2], [2, 2, 1]], traj.to_lists()

    out = np.empty(3, dtype=np.int64)
    out[0] = 0
    ks.walk_positions(indptr, indices, out, _BlockFeeder([[0.5, 0.5]]), 2)
    assert out.tolist() == [0, 1, 2], out

    hits = ks.walk_until_hit(
        indptr, indices, np.array([0, 0, 1], dtype=np.uint8), 0,
        _BlockFeeder([[0.9, 0.9]]), 2, float("inf"), "self-check",
    )
    assert hits == 2, hits

    # three particles from vertex 0, particle 0 settled at time 0; the
    # second tick straddles the first buffer's end in both loops
    def tick_state():
        occ = np.array([1, 0, 0], dtype=np.uint8)
        rows = [np.array(a, dtype=np.int64) for a in (
            [1, 2], [0, 0, 0], [0, 0, 0], [0, -1, -1], [0, -1, -1],
        )]
        return occ, rows

    # every recorded loop below ends in the same trajectories: particle 0
    # settled at its start, particle 2 stepped once, particle 1 twice
    walked = [[0], [0, 1, 2], [0, 1]]
    starts = np.zeros(3, dtype=np.int64)
    for rec in (None, sink()):
        occ, (pool, pos, steps_row, settled_row, order) = tick_state()
        clock_row = np.zeros(3)
        clock = ks.finish_ctu(
            indptr, indices, occ, pool, pos, steps_row, settled_row,
            clock_row, order,
            _BlockFeeder([[0.5, 0.9, 0.0, 0.5], [0.0, 0.0, 0.5, 0.0, 0.9]]),
            k=2, norder=1, rate=1.0, sink=rec,
        )
        dt = -float(np.log1p(-0.5))
        assert clock == dt / 2.0 + dt + dt, clock
        assert clock_row.tolist() == [0.0, clock, dt / 2.0], clock_row
        assert settled_row.tolist() == [0, 2, 1] and order.tolist() == [0, 2, 1]
        assert steps_row.tolist() == [0, 2, 1] and pos.tolist() == [0, 2, 1]
        assert rec is None or rec.trajectories(starts) == walked

    for rec in (None, sink()):
        occ, (pool, pos, steps_row, settled_row, order) = tick_state()
        ticks = ks.finish_uniform(
            indptr, indices, occ, pool, pos, steps_row, settled_row, order,
            _BlockFeeder([[0.9, 0.0, 0.8], [0.0, 0.0, 0.0, 0.0, 0.9]]),
            k=2, norder=1, logq=np.log1p(-(np.arange(2) / 2)),
            budget=float("inf"), limit_msg="self-check", sink=rec,
        )
        # skips: int(log1p(-0.8) / log1p(-0.5)) = 2, then 0
        assert ticks == 5, ticks
        assert settled_row.tolist() == [0, 2, 1] and order.tolist() == [0, 2, 1]
        assert steps_row.tolist() == [0, 2, 1] and pos.tolist() == [0, 2, 1]
        assert rec is None or rec.trajectories(starts) == walked

    # lazy Parallel-IDLA, every round wide: round 1 moves both walkers
    # 0 -> 1, where particle 2 wins on priority; round 2 moves particle 1
    # on to 2.  Six doubles in all, none drawn past them.  The 2-round
    # budget stops a loop that over-draws: past its end the array yields
    # 0.0, a hold gate, on which the walker would stay forever
    for rec in (None, sink(2)):
        rng = _ArrayGenerator(ks, [0.9, 0.9, 0.5, 0.5, 0.9, 0.9])
        occ = np.array([1, 0, 0], dtype=np.uint8)
        act = np.array([1, 2], dtype=np.int64)
        pos = np.zeros(2, dtype=np.int64)
        best = np.full(3, -1, dtype=np.int64)
        steps_row = np.zeros(3, dtype=np.int64)
        settled_row = np.array([0, -1, -1], dtype=np.int64)
        round_row = np.array([0, -1, -1], dtype=np.int64)
        rounds = ks.finish_parallel(
            indptr, indices, occ, act, pos, np.array([0, 2, 1], dtype=np.int64),
            best, steps_row, settled_row, round_row, rng,
            free=2, lazy=True, scalar_threshold=0, budget=2.0,
            max_rounds=None, sink=rec,
        )
        assert rounds == 2 and rng.drawn() == 6, (rounds, rng.drawn())
        assert settled_row.tolist() == [0, 2, 1] and steps_row.tolist() == [0, 2, 1]
        assert round_row.tolist() == [0, 2, 1] and best.tolist() == [-1, -1, -1]
        assert rec is None or rec.trajectories(starts) == walked


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
_CACHE: dict[str, KernelSet] = {}
_FAILED: dict[str, str] = {}


def _dep_present(name: str) -> bool:
    if name == "cffi":
        if find_spec("cffi") is None:
            return False
        from shutil import which

        cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
        return which(cc[0]) is not None
    return True


def _load(name: str) -> KernelSet:
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILED:
        raise KernelsUnavailableError(
            f"kernel provider {name!r} unavailable: {_FAILED[name]}"
        )
    if name == "numpy":
        ks: KernelSet = NumpyKernels()
    else:
        try:
            from repro.kernels import cffi_impl

            ks = CompiledKernels(name, cffi_impl.load())
            _self_check(ks)
        except Exception as exc:
            _FAILED[name] = f"{type(exc).__name__}: {exc}"
            raise KernelsUnavailableError(
                f"kernel provider {name!r} unavailable: {_FAILED[name]}"
            ) from exc
    _CACHE[name] = ks
    return ks


def available_kernels() -> dict[str, bool]:
    """Provider name -> availability *here* (probing builds on demand)."""
    out = {"numpy": True}
    for name in _AUTO_ORDER:
        if name in _CACHE:
            out[name] = True
        elif name in _FAILED or not _dep_present(name):
            out[name] = False
        else:
            try:
                _load(name)
                out[name] = True
            except KernelsUnavailableError:
                out[name] = False
    return out


def _provider_name(spec: str | None) -> str:
    """The provider name ``spec`` selects (``None``: ``REPRO_KERNELS``),
    or ``"auto"``; raises for anything that names no provider."""
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "auto"
    if not isinstance(spec, str):
        raise TypeError(
            f"kernels must be a provider name or a KernelSet instance, "
            f"got {type(spec).__name__}"
        )
    if spec not in ("auto", "numpy", *_AUTO_ORDER):
        raise ValueError(
            f"unknown kernel provider {spec!r}; available: "
            f"{', '.join(('numpy', *_AUTO_ORDER))} (or 'auto')"
        )
    return spec


def check_kernels(spec: str | KernelSet | None = None) -> None:
    """Raise now if ``spec`` names no provider, without resolving it.

    Callers that may never need the provider (a serial estimate) use
    this to reject a misspelt ``kernels=`` or ``REPRO_KERNELS`` up front;
    whether a known provider initialises here is left to
    :func:`get_kernels`.
    """
    if not isinstance(spec, KernelSet):
        _provider_name(spec)


def get_kernels(spec: str | KernelSet | None = None) -> KernelSet:
    """Resolve ``spec`` to a :class:`KernelSet`.

    ``None`` consults ``REPRO_KERNELS`` and falls back to auto-detection;
    a name is a registry lookup (``"auto"`` runs the detection order); a
    :class:`KernelSet` instance passes through unchanged.  An explicitly
    requested provider that cannot initialise raises
    :class:`KernelsUnavailableError` (a ``ValueError``); under
    auto-detection a *present but broken* provider warns and ``numpy``
    is used — cffi or a compiler simply being absent stays silent.
    """
    if isinstance(spec, KernelSet):
        return spec
    spec = _provider_name(spec)
    if spec == "auto":
        for name in _AUTO_ORDER:
            if not _dep_present(name):
                continue
            try:
                return _load(name)
            except KernelsUnavailableError as exc:
                warnings.warn(
                    f"kernel provider {name!r} failed to initialise; "
                    f"falling back ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return _load("numpy")
    return _load(spec)
