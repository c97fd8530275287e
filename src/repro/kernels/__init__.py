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
self-check (:func:`_self_check`) exercising all sixteen entry points before
it can be selected, so a miscompiled or mis-installed provider fails at
resolution, not mid-run.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import threading
import warnings
from importlib.util import find_spec
from itertools import product
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
#: Each re-entry costs a compiled call, a numpy log1p and a compiled
#: fold, ~15 us of fixed cost: on a 2-core x86-64 VM (best of 30 runs,
#: lane sizes interleaved in one process, of the four 16-repetition
#: Uniform and CTU estimates on cycle-64 and grid-10x10, ~8-23k ticks a
#: repetition), the four took 18.3 ms together at 4096 slots, 15.9-16.5
#: ms at 16384, 15.8-16.0 ms at 32768 and 15.7-16.0 ms at 65536.  32768
#: (512 KiB with the divisors) takes the gain within the transient
#: memory the numpy fold took at 16384: its 256 KiB lane plus two
#: 128 KiB temporaries.
_LANE = 1 << 15


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


# The shard loops write through raw pointers, so their wrappers
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


def _shard_rows(name: str, dtype, R: int, m: int, *rows) -> None:
    """Each of ``rows`` is a C-contiguous ``(R, m)`` array of ``dtype``."""
    for a in rows:
        if a.dtype != dtype or not a.flags.c_contiguous or a.shape != (R, m):
            raise ValueError(f"{name} needs C-contiguous {dtype} rows of {m}")


def _row_width(a: np.ndarray) -> int:
    """``m`` of an ``(R, m)`` array (-1, which no row check passes,
    for any other shape)."""
    return a.shape[1] if a.ndim == 2 else -1


def _check_shard(name: str, rngs, sinks, seeds):
    """One generator or ``None``, and with ``sinks`` one sink, per row;
    the rows without a generator draw from their row of ``seeds``.
    Returns ``seeds`` as C reads it: ``None`` when every row has a
    generator."""
    gens = [rng for rng in rngs if rng is not None]
    if len({id(rng.bit_generator) for rng in gens}) < len(gens):
        # its lock would be taken twice, and interleaved draws would
        # break every row's bit-identity
        raise ValueError(f"{name}: a generator is passed for two rows")
    if sinks is not None and len(sinks) != len(rngs):
        raise ValueError(f"{name}: prefixes and sinks need one per row")
    if len(gens) == len(rngs):
        return None
    if (
        not isinstance(seeds, np.ndarray)
        or seeds.dtype != np.uint64
        or not seeds.flags.c_contiguous
        or seeds.shape != (len(rngs), 4)
    ):
        raise ValueError(
            f"{name}: rows without a generator need C-contiguous uint64 "
            f"seeds of shape ({len(rngs)}, 4)"
        )
    return seeds


def _tick_state(
    name, indptr, occ, pool, rows, rngs, seeds, k, norder, sinks, width
):
    """A tick shard's checks, before any draw (``rows[0]`` is ``pos``);
    returns ``occ`` as ``uint8``, the state rows, ``k`` and ``norder``
    filled in, and the seeds C reads."""
    n = indptr.shape[0] - 1
    R, m = len(rngs), _row_width(rows[0])
    _shard_rows(name, _I64, R, m, pool, *rows)
    occ = _occ_row(name, occ, R * n)
    seeds = _check_shard(name, rngs, sinks, seeds)
    _check_range(name, "a pool entry", pool, m)
    _check_range(name, "a particle's vertex", rows[0], n)
    state = np.zeros((R, width), dtype=np.int64)
    state[:, 0] = k
    state[:, 1] = norder
    k, norder = state[:, 0], state[:, 1]
    if R and (min(k.min(), norder.min()) < 0 or (k + norder).max() > m):
        raise ValueError(f"{name}: k and norder must be >= 0, k + norder <= m")
    return occ, state, seeds


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
    """Event log of one recorded repetition of a shard loop.

    The loop writes one ``(particle, vertex)`` int32 pair per
    particle-step into :attr:`buf` (holds included, the serial drivers'
    record shape).  Before a step or round that would overflow it, the
    loop returns "sink full"; the wrapper then seals the filled buffer
    and re-enters with a fresh one.  A sink made with ``opened=False``
    starts with no room, so the loop returns "sink full" before its
    repetition's first event, and the wrapper opens it then.  A loop
    that runs its repetitions one after another takes such sinks: the
    wrapper closes every earlier row's sink before it opens the next, so
    the shard holds one repetition's events at a time.  :meth:`close`
    groups the events by particle into :attr:`trajectories` in one
    counting scatter, no sort, and frees the buffers.
    """

    __slots__ = ("capacity", "starts", "buf", "trajectories", "_sealed", "_scatter")

    def __init__(self, scatter, capacity: int, starts, *, opened: bool = True):
        if capacity < 1:
            # a loop could never record its next step: it would re-enter forever
            raise ValueError(f"event sink capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.starts = starts
        self.buf = np.empty(2 * capacity if opened else 0, dtype=np.int32)
        self.trajectories = None
        self._sealed: list[np.ndarray] = []
        self._scatter = scatter

    def open(self) -> None:
        """Give an unopened sink its buffer."""
        self.buf = np.empty(2 * self.capacity, dtype=np.int32)

    def seal(self, count: int, *, reopen: bool = True) -> None:
        """Keep the first ``count`` events of :attr:`buf`; with
        ``reopen``, start an empty buffer for the loop to continue in."""
        self._sealed.append(self.buf[: 2 * count])
        self.buf = np.empty(2 * self.capacity if reopen else 0, dtype=np.int32)

    def close(self, count: int = 0):
        """Seal the last ``count`` events and set :attr:`trajectories` to
        all of them as :class:`~repro.core.results.TrajectoryArrays`:
        particle ``p``'s row is ``starts[p]`` followed by its recorded
        vertices in order.  The buffers are freed; returns the
        trajectories."""
        from repro.core.results import TrajectoryArrays

        self.seal(count, reopen=False)
        starts = self.starts
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
        self._sealed = []
        self.trajectories = TrajectoryArrays(offsets, flat)
        return self.trajectories


class CompiledKernels(KernelSet):
    """Wrapper over the low-level provider namespace (:mod:`cffi_impl`).

    The walk loops speak a buffer protocol: they consume uniforms from
    the array they were handed and return ``0`` when it runs dry,
    whereupon the wrapper fetches the next block from the stream object
    (``UniformStream.take_block`` for the parallel straggler loop, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay where the
    serial drivers leave them.  The four shard loops
    (:meth:`finish_sequential`, :meth:`finish_parallel`,
    :meth:`finish_ctu`, :meth:`finish_uniform`) instead run every
    repetition of a shard in one compiled call, each repetition drawing
    inside C (:meth:`_draw`): a numpy ``PCG64`` or a row of C-seeded
    states (:meth:`pcg64_seeds`) stepped inline, any other bit generator
    through its ``bitgen_t``.  They
    return early only when an event sink fills or, for the tick loops,
    when the shared log lane fills; the wrapper then seals the sink or
    takes the lane's logarithms with numpy, and re-enters.

    The shard loops take an optional event sink per repetition
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
        pos, u = _i64(pos), _f64(u)
        # C reads len(pos) entries of pos and u and writes as many of out
        if pos.ndim != 1 or u.shape != pos.shape:
            raise ValueError("csr_step needs 1-D pos and u of one length")
        k = pos.shape[0]
        if out is None:
            out = np.empty(k, dtype=np.int64)
        elif out.dtype != _I64 or not out.flags.c_contiguous or out.shape != pos.shape:
            raise ValueError(f"csr_step needs a C-contiguous int64 out of length {k}")
        self._impl.csr_step(indptr, indices, pos, u, out, k)
        return out

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
    def event_sink(
        self, starts, min_capacity: int = 1, *, opened: bool = True
    ) -> EventSink:
        """A fresh :class:`EventSink` for one recorded repetition with
        start vertices ``starts``, holding at least ``min_capacity``
        events per buffer."""
        return EventSink(
            self._impl.scatter_events, max(_SINK_EVENTS, min_capacity), starts,
            opened=opened,
        )

    # ---- the draw sources ----------------------------------------------
    def pcg64_seeds(self, children) -> np.ndarray | None:
        """The PCG64 state of each child of ``children`` (a
        :class:`~repro.utils.rng.SpawnRange`), as
        ``numpy.random.PCG64(child)`` seeds it: one ``(4,)`` ``uint64`` row
        a child, the shard loops' ``seeds``.  ``None`` when the parent's
        pool size is not numpy's default, which C does not reproduce."""
        words = children.entropy_words()
        if words is None:
            return None
        seeds = np.empty((len(children), 4), dtype=np.uint64)
        self._impl.seed_pcg64(words, children.start, len(children), seeds)
        return seeds

    def draw_doubles(self, rngs, n: int, *, seeds=None) -> np.ndarray:
        """``(R, n)`` doubles, row ``r`` drawn in C from ``rngs[r]`` (or
        its row of ``seeds``), as the shard loops draw them: each row
        equals ``rngs[r].random(n)`` and leaves the generator where that
        call would."""
        R = len(rngs)
        seeds = _check_shard("draw_doubles", rngs, None, seeds)
        out = np.empty((R, n))
        state = np.zeros((R, 1), dtype=np.int64)

        def run(bgs, evs, caps):
            self._impl.draw_doubles(bgs, seeds, R, n, out)
            return 1, 0

        self._draw(run, rngs, state, None, events=0)
        return out

    def _draw(self, run, rngs, state, sinks, *, events, prefixes=None, fold=None):
        """Drive a shard loop whose row ``r`` draws from the bit generator
        of ``rngs[r]`` (``None``: from its row of the seeds C was handed),
        holding every generator's lock, and return its final status.

        ``run(bgs, evs, caps)`` enters the loop once with each row's
        ``bitgen_t`` address (``uintp``; 0 for a row without a generator)
        and, with ``sinks``, each row's sink buffer address and room (else
        ``None``), and returns ``(status, row)``.  C steps a numpy
        ``PCG64`` inline and stores its state back on every return; it
        calls every other bit generator's ``next_double``.
        ``fold(status)``, when given, runs after every return and gives
        the status to act on.  Status 2 (the sink of
        ``row`` is full) seals that sink, or opens it if unopened, and
        re-enters, as does 3 (the log lane is full).  A "full" open sink
        holding no event would make the loop re-enter forever, so it
        raises.  When the loop is done every sink is closed, into its
        repetition's trajectories.  ``prefixes[r]`` (float64), when given,
        is served before row ``r``'s generator."""
        bgs = np.zeros(len(rngs), dtype=np.uintp)
        evs = caps = None
        if sinks is not None:
            evs = np.array([s.buf.ctypes.data for s in sinks], dtype=np.uintp)
            caps = np.array([s.buf.shape[0] // 2 for s in sinks], dtype=np.int64)
        fronts = []  # the prefix bit generators C reads through
        bitgens = [None if rng is None else rng.bit_generator for rng in rngs]
        locks = [bitgen.lock for bitgen in bitgens if bitgen is not None]
        closed = 0  # the sinks of rows [0, closed) are closed
        held = 0
        try:
            for lock in locks:
                lock.acquire()
                held += 1
            for r, bitgen in enumerate(bitgens):
                if bitgen is None:
                    continue
                address = _bitgen_address(bitgen)
                prefix = None if prefixes is None else prefixes[r]
                if prefix is not None and prefix.shape[0]:
                    fronts.append(self._impl.prefix_bitgen(prefix, address))
                    address = fronts[-1].address
                bgs[r] = address
            while True:
                status, row = run(bgs, evs, caps)
                if fold is not None:
                    status = fold(status)
                if status == 2:
                    sink = sinks[row]
                    if not sink.buf.shape[0]:
                        # the row's first event: only a loop that runs its
                        # rows in order takes unopened sinks, so every row
                        # before it is done
                        for q in range(closed, row):
                            sinks[q].close(int(state[q, events]))
                        closed = row
                        sink.open()
                    elif state[row, events]:
                        sink.seal(int(state[row, events]))
                    else:
                        raise RuntimeError(
                            "compiled loop: 'sink full' on an empty sink"
                        )
                    state[row, events] = 0
                    # the room of the buffer actually passed, so C never
                    # writes past it
                    evs[row] = sink.buf.ctypes.data
                    caps[row] = sink.buf.shape[0] // 2
                elif status != 3:
                    break
        finally:
            for lock in locks[:held]:
                lock.release()
        if status == 1 and sinks is not None:
            for q in range(closed, len(sinks)):
                sinks[q].close(int(state[q, events]))
        return status

    # ---- the shard loops -----------------------------------------------
    # Each runs every repetition of a shard in one compiled call (plus one
    # per "sink full" or "lane full" re-entry): row r of the (R, m) arrays
    # and occ[r*n : (r+1)*n] belong to repetition r, which draws each
    # double from the bit generator of rngs[r] in C, in its serial
    # driver's order, so each generator ends right after the last double
    # its row consumed.  A row whose rngs[r] is None draws from the PCG64
    # state in row r of `seeds` (pcg64_seeds), which C advances in place.
    # Every row is checked once, before any draw; one generator passed
    # for two rows raises ValueError.  With sinks, one per row, every step
    # is recorded into its row's sink.
    def finish_sequential(
        self, indptr, indices, occ, starts, rngs, *, prefixes=None,
        walker, pos=None, pstep=0, total=0, lazy, budget, limit_msg,
        steps, settled, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled ``_finish_sequential_rep`` for ``R = len(rngs)``
        repetitions in one call; returns each one's ``total`` plus the
        doubles consumed here, one per step.

        Row ``r`` of ``starts``, ``steps`` and ``settled`` (all ``(R, m)``)
        and ``occ[r*n : (r+1)*n]`` belong to repetition ``r``, which walks
        particle ``walker[r]`` (``m``: done), ``pstep[r]`` steps in, from
        ``pos[r]`` (default: its start), with ``total[r]`` doubles consumed
        so far; scalars serve every row.  The C loop keeps
        ``REPRO_LANES`` repetitions in flight; every row's samples are
        those of the serial loop run on its own.  ``prefixes[r]``, a
        float64 row or ``None`` (the unconsumed doubles of a lock-step
        stream row), is served before generator ``r``."""
        name = "finish_sequential"
        n = indptr.shape[0] - 1
        R = len(rngs)
        if starts.ndim != 2 or starts.shape[0] != R:
            raise ValueError(f"{name}: starts needs one row per generator")
        m = starts.shape[1]
        _shard_rows(name, _I64, R, m, starts, steps, settled)
        occ = _occ_row(name, occ, R * n)
        _check_range(name, "a start", starts, n)
        seeds = _check_shard(name, rngs, sinks, seeds)
        if prefixes is not None and len(prefixes) != R:
            raise ValueError(f"{name}: prefixes and sinks need one per row")
        for rng, prefix in zip(rngs, prefixes or ()):
            if prefix is not None:
                _check_rows(name, _F64, 0, prefix)
                if rng is None:
                    raise ValueError(f"{name}: a prefix needs a generator behind it")
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
        lz = 1 if lazy else 0

        def run(bgs, evs, caps):
            status = self._impl.finish_seq(
                indptr, indices, occ, starts, steps, settled, bgs, seeds,
                state, R, n, m, lz, budget, evs, caps, which,
            )
            return status, int(which[0])

        status = self._draw(run, rngs, state, sinks, events=4, prefixes=prefixes)
        if status < 0:
            raise RuntimeError(limit_msg)
        return state[:, 3].copy()

    # The tick loops (CTU, Uniform) write -u for each double u the serial
    # driver takes log1p(-u) of to a lane of _LANE slots shared by the
    # shard's repetitions, with their divisors; each row records its
    # segment [LO, HI).  After every return the wrapper takes numpy's
    # log1p over the used lane in place, as the serial driver's
    # UniformStream takes numpy's log1p, and one compiled fold call splits
    # the logarithms per repetition.
    def finish_ctu(
        self, indptr, indices, occ, pool, pos, steps, settled, clock, order,
        rngs, *, k, norder, rate, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.continuous.ctu_idla` tick loop for
        ``R = len(rngs)`` repetitions; returns each one's final clock.

        ``pool``, ``pos``, ``steps``, ``settled``, ``clock`` (float64, the
        settle clocks) and ``order`` are ``(R, m)``: ``pool[r, :k[r]]``
        holds repetition ``r``'s unsettled particles and
        ``order[r, :norder[r]]`` its settle order so far; every entry of
        ``pool`` must be a particle, every entry of ``pos`` a vertex.  Each
        tick draws 3 doubles, in the serial order."""
        occ, state, seeds = _tick_state(
            "finish_ctu", indptr, occ, pool, (pos, steps, settled, order),
            rngs, seeds, k, norder, sinks, 5,
        )
        R, m = pos.shape
        _shard_rows("finish_ctu", _F64, R, m, clock)
        cap = _LANE
        lane = np.empty(2 * cap)
        clocks = np.zeros(R)
        folded = state[:, 1].copy()  # each row's settle order at the last fold
        which = np.zeros(1, dtype=np.int64)

        def fold(status):
            # the rows' segments tile the lane in row order
            used = lane[: state[:, 3].max(initial=0)]
            np.log1p(used, out=used)
            self._impl.fold_ctu(
                lane, cap, state, R, m, clock, order, folded, clocks
            )
            return status

        self._draw(
            lambda bgs, evs, caps: (self._impl.run_ctu(
                indptr, indices, occ, pool, pos, steps, settled, clock, order,
                bgs, seeds, lane, cap, state, R, indptr.shape[0] - 1, m,
                float(rate), evs, caps, which,
            ), int(which[0])),
            rngs, state, sinks, events=4, fold=fold,
        )
        return clocks

    def finish_uniform(
        self, indptr, indices, occ, pool, pos, steps, settled, order, rngs,
        *, k, norder, logq, budget, limit_msg, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.uniform.uniform_idla` tick loop
        (default scheduler) for ``R = len(rngs)`` repetitions; returns
        each one's tick count.

        The rows are :meth:`finish_ctu`'s, less the clocks.  ``logq[j]``
        is ``np.log1p(-(j / pool_size))`` for ``j < pool_size =
        logq.shape[0]``, the geometric-skip divisor.  Each tick draws 2
        doubles, plus 1 per skip, in the serial order.  A tick count past
        ``budget`` raises ``RuntimeError(limit_msg)``, as the serial
        driver does."""
        occ, state, seeds = _tick_state(
            "finish_uniform", indptr, occ, pool, (pos, steps, settled, order),
            rngs, seeds, k, norder, sinks, 6,
        )
        _check_rows("finish_uniform", _F64, 0, logq)
        R, m = pos.shape
        cap = _LANE
        lane = np.empty(2 * cap)
        which = np.zeros(1, dtype=np.int64)

        def fold(status):
            used = lane[: state[:, 4].max(initial=0)]
            np.log1p(used, out=used)
            self._impl.fold_uniform(lane, cap, state, R)
            # ticks only grow, so a final count exceeds the budget exactly
            # when the serial driver raises
            return -1 if (state[:, 2] > budget).any() else status

        status = self._draw(
            lambda bgs, evs, caps: (self._impl.run_uniform(
                indptr, indices, occ, pool, pos, steps, settled, order, bgs,
                seeds, lane, cap, logq, logq.shape[0], state, R,
                indptr.shape[0] - 1, m, budget, evs, caps, which,
            ), int(which[0])),
            rngs, state, sinks, events=5, fold=fold,
        )
        if status < 0:
            raise RuntimeError(limit_msg)
        return state[:, 2].copy()

    def finish_parallel(
        self, indptr, indices, occ, act, pos, prio, best, steps, settled,
        rounds, rngs, *, k, free, lazy, scalar_threshold, budget,
        max_rounds, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.parallel.parallel_idla` round loop
        for ``R = len(rngs)`` repetitions; returns each one's final round.

        Starts after the round-0 settlement pass: ``act[r, :k[r]]`` holds
        repetition ``r``'s unsettled particles ascending and ``pos[r,
        :k[r]]`` their vertices (both are reordered in place), ``free[r]``
        its vacant-vertex count; every entry of ``act`` must be a
        particle, every entry of ``pos`` a vertex.  ``prio`` is ``None``
        (a particle's priority is its index) or ``(R, m)``, like ``act``,
        ``pos``, ``steps``, ``settled`` and ``rounds``; ``best`` is an all
        ``-1`` scratch of size ``n``, restored on return.  A sink must hold
        at least one round: ``k[r]`` events."""
        name = "finish_parallel"
        n = indptr.shape[0] - 1
        R, m = len(rngs), _row_width(steps)
        _shard_rows(
            name, _I64, R, m, act, pos, steps, settled, rounds,
            *(() if prio is None else (prio,)),
        )
        _check_rows(name, _I64, n, best)
        occ = _occ_row(name, occ, R * n)
        seeds = _check_shard(name, rngs, sinks, seeds)
        _check_range(name, "an act entry", act, m)
        _check_range(name, "a pos entry", pos, n)
        state = np.zeros((R, 4), dtype=np.int64)
        state[:, 0] = k
        state[:, 2] = free
        k = state[:, 0]
        if R and (k.min() < 0 or k.max() > m):
            raise ValueError(f"{name}: an active count outside [0, {m}]")
        if sinks is not None and any(
            s.capacity < kr for s, kr in zip(sinks, k.tolist())
        ):
            raise ValueError(f"{name}: a sink holds less than one round")
        # k only shrinks and never passes m, so clamping keeps every
        # `k > threshold` test
        thr = max(-1, min(scalar_threshold, m))
        hold = np.empty(m) if lazy else None
        lz = 1 if lazy else 0
        which = np.zeros(1, dtype=np.int64)
        status = self._draw(
            lambda bgs, evs, caps: (self._impl.run_parallel(
                indptr, indices, occ, act, pos, prio, best, steps, settled,
                rounds, bgs, seeds, hold, state, R, n, m, lz, thr, budget, evs,
                caps, which,
            ), int(which[0])),
            rngs, state, sinks, events=3,
        )
        if status < 0:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        return state[:, 1].copy()

    # ---- scalar-tail finisher loop ----------------------------------
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


def _self_check(ks: CompiledKernels) -> None:
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
        v=0, t=0, lazy=False, guard=False, budget=float("inf"),
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
        bgs = np.array(
            [_bitgen_address(rng.bit_generator) for rng in rngs], dtype=np.uintp
        )
        which = np.zeros(1, dtype=np.int64)
        pool, pos, steps_row, settled_row, order = rows
        front = (indptr, indices, occ, pool, pos, steps_row, settled_row)
        if loop == "ctu":
            state, hi = np.zeros((R, 5), dtype=np.int64), 3
            args = (
                *front, np.zeros((R, 3)), order, bgs, None, lane, 1, state, R,
                3, 3, 1.0,
            )
        else:
            state, hi = np.zeros((R, 6), dtype=np.int64), 4
            args = (
                *front, order, bgs, None, lane, 1, logq, 2, state, R, 3, 3,
                float("inf"),
            )
        state[:, :2] = [2, 1]
        run = getattr(ks._impl, f"run_{loop}")
        got = []
        while not got or got[-1][0] == 3:
            status = run(*args, None, None, which)
            assert state[:, hi].max() == 1, state
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
    ks._impl.fold_ctu(lane, 4, state, 3, 2, sclock, order, folded, clocks)
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
    ks._impl.fold_uniform(lane, 4, state, 3)
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
        best = np.full(3, -1, dtype=np.int64)
        steps_row = np.zeros((R, 3), dtype=np.int64)
        settled_row = np.tile(np.array([0, -1, -1], dtype=np.int64), (R, 1))
        round_row = settled_row.copy()
        sinks = [sink(starts, 2, False) for _ in range(R)] if rec else None
        rounds = ks.finish_parallel(
            indptr, indices, occ, act, pos, prio, best, steps_row,
            settled_row, round_row, rngs, k=2, free=2, lazy=True,
            scalar_threshold=0, budget=2.0, max_rounds=None, sinks=sinks,
        )
        settled_at = [row for row, _ in ends[:R]]
        assert rounds.tolist() == [2] * R, rounds
        assert [rng.drawn() for rng in rngs] == [6] * R
        assert settled_row.tolist() == steps_row.tolist() == settled_at
        assert round_row.tolist() == settled_at and best.tolist() == [-1] * 3
        for rec, (_, paths) in zip(sinks or (), ends):
            assert rec.trajectories == paths


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
