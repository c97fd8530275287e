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
    the system compiler (``$CC``, default ``cc``) and opened in cffi's
    out-of-line ABI mode (:mod:`repro.kernels.cffi_impl`).

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

import ctypes
import os
import shlex
import threading
import warnings
from contextlib import ExitStack
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

#: Doubles a tick loop's log lane holds (CTU: one per tick, Uniform: one
#: per geometric skip) before the loop returns "lane full" and the
#: wrapper takes their logarithms with numpy.  No result depends on it.
#: Each re-entry costs a compiled call and a fold: on a 2-core x86-64 VM
#: (best of 30 interleaved runs of 16-repetition estimates on cycle-64 and
#: grid-10x10, ~8-23k ticks a repetition), lanes of 4096 took ~10% longer
#: than lanes of 16384 or 65536, which measured alike.
_LANE = 1 << 14


#: The name numpy gives the capsule of a BitGenerator's ``bitgen_t``.
_CAPSULE = b"BitGenerator"

# with prototypes of their own: the shared ctypes.pythonapi functions
# are left as other code may have set them
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))
_capsule_new = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
)(("PyCapsule_New", ctypes.pythonapi))


def _bitgen_address(bit_generator) -> int:
    """Address of a numpy BitGenerator's ``bitgen_t``, read from its
    ``capsule``: ~1 us a generator, where ``bit_generator.ctypes``
    builds several ctypes objects for each new one (~10 us)."""
    return _capsule_pointer(bit_generator.capsule, _CAPSULE)


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

    The walk loops speak a buffer protocol: they consume uniforms from
    the array they were handed and return ``0`` when it runs dry,
    whereupon the wrapper fetches the next block from the stream object
    (``UniformStream.take_block`` for the parallel straggler loop, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay where the
    serial drivers leave them.  The four per-repetition loops
    (:meth:`finish_sequential`, :meth:`finish_parallel`,
    :meth:`finish_ctu`, :meth:`finish_uniform`) instead draw from the
    generator's ``bitgen_t`` inside C (:meth:`_draw`): unless an event
    sink fills, one call per Parallel-IDLA repetition, and one per shard
    of Sequential-IDLA repetitions, ``REPRO_LANES`` of them interleaved.
    The tick loops also return when their log lane fills; the wrapper
    takes its logarithms with numpy (:meth:`_ticks`) and re-enters.

    The per-repetition loops take an optional event sink per repetition
    (:meth:`event_sink`) that records its trajectories.
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

    def _draw(self, run, rngs, state, sinks, *, events, prefixes=None):
        """Drive a loop that draws from the bit generators of ``rngs``,
        one per row of ``state``, holding every generator's lock, and
        return its final status.

        ``run(addresses)`` enters the loop once with each row's
        ``bitgen_t`` address and returns ``(status, row)``; status 2 (the
        sink of ``row`` is full) seals that sink and re-enters.  A "full"
        sink holding no event would make the loop re-enter forever, so
        it raises.  ``prefixes[r]`` (float64), when given, is served
        before row ``r``'s generator."""
        addresses = []
        fronts = []  # the prefix bit generators C reads through
        with ExitStack() as held:
            for r, rng in enumerate(rngs):
                bitgen = rng.bit_generator
                held.enter_context(bitgen.lock)
                address = _bitgen_address(bitgen)
                prefix = None if prefixes is None else prefixes[r]
                if prefix is not None and prefix.shape[0]:
                    fronts.append(self._impl.prefix_bitgen(prefix, address))
                    address = fronts[-1].address
                addresses.append(address)
            while True:
                status, row = run(addresses)
                if status != 2:
                    break
                if not state[row, events]:
                    raise RuntimeError("compiled loop: 'sink full' on an empty sink")
                sinks[row].seal(int(state[row, events]))
                state[row, events] = 0
        if status == 1 and sinks is not None:
            for r, sink in enumerate(sinks):
                sink.seal(int(state[r, events]), reopen=False)
        return status

    # ---- scalar-tail finisher loops ----------------------------------
    def finish_sequential(
        self, indptr, indices, occ, starts, rngs, *, prefixes=None,
        walker, pos=None, pstep=0, total=0, lazy, budget, limit_msg,
        steps, settled, sinks=None,
    ) -> np.ndarray:
        """Compiled ``_finish_sequential_rep`` for ``R = len(rngs)``
        repetitions in one call; returns each one's ``total`` plus the
        doubles consumed here, one per step.

        Row ``r`` of ``starts``, ``steps`` and ``settled`` (all ``(R, m)``)
        and ``occ[r*n : (r+1)*n]`` belong to repetition ``r``, which walks
        particle ``walker[r]`` (``m``: done), ``pstep[r]`` steps in, from
        ``pos[r]`` (default: its start), with ``total[r]`` doubles consumed
        so far; scalars serve every row.  The C loop keeps
        ``REPRO_LANES`` repetitions in flight, each drawing from its own
        generator, so every row's samples are those of the serial loop
        run on its own.  Every generator's lock is held across the call,
        and each generator ends right after the last double its row
        consumed; one generator passed for two rows raises
        ``ValueError`` before any draw.  ``prefixes[r]``, a float64 row
        or ``None`` (the unconsumed doubles of a lock-step stream row),
        is served before generator ``r``.  With ``sinks``, one per row,
        every step from here on is recorded into its row's sink."""
        name = "finish_sequential"
        n = indptr.shape[0] - 1
        R = len(rngs)
        if starts.ndim != 2 or starts.shape[0] != R:
            raise ValueError(f"{name}: starts needs one row per generator")
        m = starts.shape[1]
        for a in (starts, steps, settled):
            if a.dtype != _I64 or not a.flags.c_contiguous or a.shape != (R, m):
                raise ValueError(f"{name} needs C-contiguous int64 rows of {m}")
        occ = _occ_row(name, occ, R * n)
        _check_range(name, "a start", starts, n)
        if len({id(rng.bit_generator) for rng in rngs}) < R:
            # its lock would be taken twice, and interleaved draws would
            # break every row's bit-identity
            raise ValueError(f"{name}: a generator is passed for two rows")
        for rows in (prefixes, sinks):
            if rows is not None and len(rows) != R:
                raise ValueError(f"{name}: prefixes and sinks need one per row")
        for prefix in prefixes or ():
            if prefix is not None:
                _check_rows(name, _F64, 0, prefix)
        state = np.zeros((R, 5), dtype=np.int64)
        state[:, 0] = walker
        walking = state[:, 0] < m
        if ((state[:, 0] < 0) | (state[:, 0] > m)).any():
            raise ValueError(f"{name}: walker out of range")
        state[walking, 1] = (
            starts[walking, state[walking, 0]] if pos is None
            else np.broadcast_to(pos, (R,))[walking]
        )
        _check_range(name, "a pos", state[walking, 1], n)
        state[:, 2] = pstep
        state[:, 3] = total
        which = np.zeros(1, dtype=np.int64)
        evs = caps = None
        if sinks is not None:
            evs = np.array([s.buf.ctypes.data for s in sinks], dtype=np.uintp)
            caps = np.array([s.buf.shape[0] // 2 for s in sinks], dtype=np.int64)

        def run(addresses):
            if evs is not None and R:
                # the row sealed after the last entry writes a new buffer
                r = int(which[0])
                evs[r] = sinks[r].buf.ctypes.data
                caps[r] = sinks[r].buf.shape[0] // 2
            status = self._impl.finish_seq(
                indptr, indices, occ, starts, steps, settled,
                np.array(addresses, dtype=np.uintp), state, R, n, m,
                1 if lazy else 0, budget, evs, caps, which,
            )
            return status, int(which[0])

        status = self._draw(run, rngs, state, sinks, events=4, prefixes=prefixes)
        if status < 0:
            raise RuntimeError(limit_msg)
        return state[:, 3].copy()

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
    # order so far; the row arrays are updated in place.  The loop draws
    # every double from the generator in C and writes the ones the serial
    # driver takes log1p(-u) of to a lane of _LANE slots, with their
    # divisors; each fold takes the lane's logarithms with numpy's log1p,
    # as the serial driver's UniformStream does, and empties it.
    def _ticks(self, run, fold, rng, state, sink, *, events):
        """Drive a tick loop to completion under ``rng``'s lock and
        return its final status: ``run(address)`` enters it once; every
        status but 2 ("sink full", handled by :meth:`_draw`) folds the
        lane through ``fold(status)``, which returns the status to act
        on, and 3 ("lane full") then re-enters."""

        def enter(addresses):
            while True:
                status = run(addresses[0])
                if status == 2:
                    return status, 0
                status = fold(status)
                if status != 3:
                    return status, 0

        sinks = None if sink is None else [sink]
        return self._draw(enter, [rng], state, sinks, events=events)

    def finish_ctu(
        self, indptr, indices, occ_row, pool, pos_row, steps_row,
        settled_row, clock_row, order, rng, *, k, norder, rate, sink=None,
    ) -> float:
        """Compiled :func:`repro.core.continuous.ctu_idla` tick loop;
        returns the repetition's final clock.

        The loop draws 3 doubles a tick from ``rng``'s bit generator, in
        the serial order, so the samples are the serial ones and the
        generator ends right after the last double consumed.  With
        ``sink``, every tick is recorded into it."""
        occ = _tick_occ(
            "finish_ctu", indptr, occ_row, pool,
            (pos_row, steps_row, settled_row), clock_row, order, k, norder,
        )
        state = np.array([[k, norder, 0, 0]], dtype=np.int64)
        cap = _LANE
        lane = np.empty(2 * cap)
        clock, folded = 0.0, norder

        def fold(status):
            # the serial clock += -log1p(-u) / (k * rate), tick by tick,
            # which is clock - log1p(-u) / (k * rate) bit for bit; a
            # particle settled since the last fold holds its lane length
            nonlocal clock, folded
            nl, no = int(state[0, 2]), int(state[0, 1])
            if nl:
                acc = np.empty(nl + 1)
                acc[0] = clock
                np.divide(np.log1p(-lane[:nl]), lane[cap : cap + nl], out=acc[1:])
                np.subtract.accumulate(acc, out=acc)
                settled = order[folded:no]
                clock_row[settled] = acc[clock_row[settled].astype(np.int64)]
                clock, folded = float(acc[-1]), no
                state[0, 2] = 0
            return status

        self._ticks(
            lambda address: self._impl.run_ctu(
                indptr, indices, occ, pool, pos_row, steps_row, settled_row,
                clock_row, order, address, lane, cap, state, float(rate),
                *self._sink_args(sink),
            ),
            fold, rng, state, sink, events=3,
        )
        return clock

    def finish_uniform(
        self, indptr, indices, occ_row, pool, pos_row, steps_row,
        settled_row, order, rng, *, k, norder, logq, budget, limit_msg,
        sink=None,
    ) -> int:
        """Compiled :func:`repro.core.uniform.uniform_idla` tick loop
        (default scheduler); returns the repetition's tick count.

        ``logq[j]`` is ``np.log1p(-(j / pool_size))`` for
        ``j < pool_size = logq.shape[0]``, the geometric-skip divisor.
        The loop draws 2 doubles a tick, plus 1 per skip, from ``rng``'s
        bit generator, in the serial order; it ends right after the last
        double consumed.  A tick count past ``budget`` raises
        ``RuntimeError(limit_msg)``, as the serial driver does.  With
        ``sink``, every tick that steps is recorded into it.
        """
        occ = _tick_occ(
            "finish_uniform", indptr, occ_row, pool,
            (pos_row, steps_row, settled_row), None, order, k, norder,
        )
        _check_rows("finish_uniform", _F64, 0, logq)
        state = np.array([[k, norder, 0, 0, 0]], dtype=np.int64)
        cap = _LANE
        lane = np.empty(2 * cap)

        def fold(status):
            # the serial ticks += int(log1p(-u) / logq[k]), skip by skip;
            # ticks only grow, so the final count exceeds the budget
            # exactly when the serial driver raises
            nl = int(state[0, 3])
            if nl:
                skips = np.log1p(-lane[:nl])
                skips /= lane[cap : cap + nl]
                state[0, 2] += int(skips.astype(np.int64).sum())
                state[0, 3] = 0
            return -1 if int(state[0, 2]) > budget else status

        status = self._ticks(
            lambda address: self._impl.run_uniform(
                indptr, indices, occ, pool, pos_row, steps_row, settled_row,
                order, address, lane, cap, logq, logq.shape[0], state,
                budget, *self._sink_args(sink),
            ),
            fold, rng, state, sink, events=4,
        )
        if status < 0:
            raise RuntimeError(limit_msg)
        return int(state[0, 2])

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
        state = np.array([[k, 0, free, 0]], dtype=np.int64)
        hold = np.empty(k) if lazy else None
        lz = 1 if lazy else 0
        status = self._draw(
            lambda addresses: (self._impl.run_parallel(
                indptr, indices, occ, act, pos, prio, best, steps_row,
                settled_row, round_row, addresses[0], hold, m, n, state, lz,
                thr, budget, *self._sink_args(sink),
            ), 0),
            [rng], state, None if sink is None else [sink], events=3,
        )
        if status == -2:
            raise ValueError(
                "finish_parallel: an act entry is past a row or a pos entry "
                "is not a vertex"
            )
        if status < 0:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        return int(state[0, 1])

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

    Its ``bit_generator`` has what the bit-generator loops read of
    numpy's: a ``lock`` and the ``bitgen_t`` capsule, here of the C
    source's prefix bit generator with nothing behind the array, whose
    ``drawn()`` counts every double the loop asked for.
    """

    def __init__(self, ks: CompiledKernels, doubles):
        bitgen = ks._impl.prefix_bitgen(np.asarray(doubles, dtype=np.float64))
        self.drawn = bitgen.drawn
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(),
            capsule=_capsule_new(bitgen.address, _CAPSULE, None),
            _keep=bitgen,
        )


def _self_check(ks: CompiledKernels) -> None:
    """Exercise every kernel on the path graph P3 and assert the answers.

    Catches toolchain miscompiles at selection time, loudly.  The
    recorded runs fill their event sinks, and the tick loops also run
    with a one-slot log lane, so the resume protocols are checked too.
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
        sinks = [sink() for _ in range(R)] if rec else None
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
            traj = [sk.trajectories(row).to_lists() for sk, row in zip(sinks, starts)]
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
    # 2 steps to 1 and settles, particle 1 steps to 1, then on to 2
    def tick_state():
        occ = np.array([1, 0, 0], dtype=np.uint8)
        rows = [np.array(a, dtype=np.int64) for a in (
            [1, 2], [0, 0, 0], [0, 0, 0], [0, -1, -1], [0, -1, -1],
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
    for rec in (None, sink()):
        occ, (pool, pos, steps_row, settled_row, order) = tick_state()
        clock_row = np.zeros(3)
        rng = _ArrayGenerator(ks, draws["ctu"])
        clock = ks.finish_ctu(
            indptr, indices, occ, pool, pos, steps_row, settled_row,
            clock_row, order, rng, k=2, norder=1, rate=1.0, sink=rec,
        )
        dt = -float(np.log1p(-0.5))
        assert clock == dt / 2.0 + dt + dt and rng.drawn() == 9, clock
        assert clock_row.tolist() == [0.0, clock, dt / 2.0], clock_row
        assert settled_row.tolist() == [0, 2, 1] and order.tolist() == [0, 2, 1]
        assert steps_row.tolist() == [0, 2, 1] and pos.tolist() == [0, 2, 1]
        assert rec is None or rec.trajectories(starts) == walked

    for rec in (None, sink()):
        occ, (pool, pos, steps_row, settled_row, order) = tick_state()
        rng = _ArrayGenerator(ks, draws["uniform"])
        ticks = ks.finish_uniform(
            indptr, indices, occ, pool, pos, steps_row, settled_row, order,
            rng, k=2, norder=1, logq=logq, budget=float("inf"),
            limit_msg="self-check", sink=rec,
        )
        assert ticks == 5 and rng.drawn() == 8, ticks
        assert settled_row.tolist() == [0, 2, 1] and order.tolist() == [0, 2, 1]
        assert steps_row.tolist() == [0, 2, 1] and pos.tolist() == [0, 2, 1]
        assert rec is None or rec.trajectories(starts) == walked

    # the same runs with a one-slot lane: before each tick that needs a
    # slot once it is taken, the loop returns 3 ("lane full"); every
    # return leaves the tick's log double and its divisor in the lane
    half = float(logq[1])
    full = {
        "ctu": [(3, 0.5, 2.0), (3, 0.5, 1.0), (1, 0.5, 1.0)],
        "uniform": [(3, 0.8, half), (1, 0.0, half)],
    }
    lane = np.empty(2)
    for loop, seen in full.items():
        occ, (pool, pos, steps_row, settled_row, order) = tick_state()
        rng = _ArrayGenerator(ks, draws[loop])
        bitgen = _bitgen_address(rng.bit_generator)
        rows = (indptr, indices, occ, pool, pos, steps_row, settled_row)
        if loop == "ctu":
            state, nl = np.array([2, 1, 0, 0], dtype=np.int64), 2
            args = (*rows, np.zeros(3), order, bitgen, lane, 1, state, 1.0)
        else:
            state, nl = np.array([2, 1, 0, 0, 0], dtype=np.int64), 3
            args = (*rows, order, bitgen, lane, 1, logq, 2, state, float("inf"))
        run = getattr(ks._impl, f"run_{loop}")
        got = []
        while not got or got[-1][0] == 3:
            status = run(*args, None, 0)
            assert state[nl] == 1, state
            got.append((status, float(lane[0]), float(lane[1])))
            state[nl] = 0
        assert got == seen and rng.drawn() == len(draws[loop]), got
        assert settled_row.tolist() == [0, 2, 1] and order.tolist() == [0, 2, 1]
        assert steps_row.tolist() == [0, 2, 1] and pos.tolist() == [0, 2, 1]

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
            if name in _CACHE:  # loaded: no toolchain probe
                return _CACHE[name]
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
