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
self-check (:mod:`repro.kernels._selfcheck`) exercising every function
:data:`~repro.kernels._csource.CDEF` exports before it can be selected,
so a miscompiled or mis-installed provider fails at resolution, not
mid-run.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import warnings
from importlib.util import find_spec

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

#: The name numpy gives the capsule of a BitGenerator's ``bitgen_t``.
_CAPSULE = b"BitGenerator"

# with a prototype of its own: the shared ctypes.pythonapi function is
# left as other code may have set it
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


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


def _check_range(name: str, what: str, values: np.ndarray, hi: int) -> None:
    # int64 values: seen as uint64 a negative one is huge, so one max()
    # tests both ends of [0, hi)
    if values.size and values.view(np.uint64).max() >= hi:
        raise ValueError(f"{name}: {what} outside [0, {hi})")


def _check_flat(name: str, what: str, a: np.ndarray) -> None:
    if a.dtype != _F64 or not a.flags.c_contiguous:
        raise ValueError(f"{name} needs a C-contiguous float64 {what}")


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
    #: Narrowest round at which the lock-step parallel driver calls the
    #: compiled settlement round (:meth:`settle_round`) and the vacancy
    #: probe calls :meth:`vacant_candidates`: below it the settlement
    #: round's FFI cost loses to the numpy expressions (per-kernel
    #: timings in ``docs/kernels.md``).  The fused walk step wins at
    #: every width and has no gate; the scalar finishers and
    #: single-walker loops replace per-*step* Python loops, where
    #: compiled always wins.  Irrelevant when ``compiled`` is ``False``.
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


class Shard:
    """One shard of a compiled loop: its arrays, checked once before any
    draw, and the C ``repro_shard`` (:attr:`c`) that points into them.

    Repetition ``r`` owns row ``r`` of every ``(R, m)`` array of
    ``rows``, ``occ[r*n : (r+1)*n]`` of ``graph = (indptr, indices,
    occ)`` and row ``r`` of :attr:`state`, whose last column counts its
    recorded events.  It draws each double in C from ``rngs[r]``
    (``None``: the PCG64 state in its row of ``seeds``), after the
    float64 ``prefixes[r]`` when given, and with ``sinks`` it records
    into ``sinks[r]``.  ``counts`` (column: per-row value) start the
    state rows; the values must be ``>= 0`` and sum to at most ``m``.
    The loops write through raw pointers, so the builder refuses, with
    ``ValueError`` naming the wrapper, whatever C would misread or
    overrun: a row of another dtype or a strided view (reinterpreted, or
    silently copied so the update is lost), a row of another shape, an
    entry of a ``particles`` row outside ``[0, m)`` or of a ``vertices``
    row outside ``[0, n)``, a count outside its range, one generator for
    two rows (its lock would be taken twice, and interleaved draws would
    break every row's bit-identity) and seeds C cannot read.  ``fields``
    go to the struct as they are.
    """

    __slots__ = (
        "name", "R", "n", "m", "state", "c", "bgs", "evs", "caps", "_rngs",
        "_sinks", "_prefixes", "_impl", "_keep",
    )

    def __init__(
        self, impl, name, rngs, *, graph=None, rows=None, particles=(),
        vertices=(), counts=None, width=1, sinks=None, seeds=None,
        prefixes=None, **fields,
    ):
        R = len(rngs)
        rows = {key: a for key, a in (rows or {}).items() if a is not None}
        first = next(iter(rows.values()), None)
        m = 0 if first is None else first.shape[-1]
        for key, a in rows.items():
            dtype = _F64 if key == "sclock" else _I64
            if a.dtype != dtype or not a.flags.c_contiguous or a.shape != (R, m):
                raise ValueError(
                    f"{name} needs C-contiguous {dtype} rows of shape ({R}, {m}): "
                    f"{key} is not"
                )
        n = 0
        if graph is not None:
            indptr, indices, occ = graph
            n = indptr.shape[0] - 1
            if occ.dtype not in (np.bool_, np.uint8) or not occ.flags.c_contiguous:
                raise ValueError(f"{name} needs a C-contiguous bool or uint8 occ")
            if occ.shape[0] < R * n:
                raise ValueError(f"{name}: occ is shorter than {R} copies of the graph")
            fields.update(indptr=indptr, indices=indices, occ=occ.view(np.uint8))
        for keys, hi in ((particles, m), (vertices, n)):
            for key in keys:
                _check_range(name, f"a {key} entry", rows[key], hi)
        gens = [rng for rng in rngs if rng is not None]
        if len({id(rng.bit_generator) for rng in gens}) < len(gens):
            raise ValueError(f"{name}: a generator is passed for two rows")
        for extra in (sinks, prefixes):
            if extra is not None and len(extra) != R:
                raise ValueError(f"{name}: prefixes and sinks need one per row")
        for rng, prefix in zip(rngs, prefixes or ()):
            if prefix is not None:
                _check_flat(name, "prefix", prefix)
                if rng is None:
                    raise ValueError(f"{name}: a prefix needs a generator behind it")
        if len(gens) == R:
            seeds = None  # C reads no seeds
        elif (
            not isinstance(seeds, np.ndarray)
            or seeds.dtype != np.uint64
            or not seeds.flags.c_contiguous
            or seeds.shape != (R, 4)
        ):
            raise ValueError(
                f"{name}: rows without a generator need C-contiguous uint64 "
                f"seeds of shape ({R}, 4)"
            )
        self.state = np.zeros((R, width), dtype=np.int64)
        if counts:
            for col, value in counts.items():
                self.state[:, col] = value
            used = self.state[:, list(counts)]
            if R and (used.min() < 0 or used.sum(axis=1).max() > m):
                raise ValueError(f"{name}: a per-row count outside [0, {m}]")
        self.bgs = np.zeros(R, dtype=np.uintp)
        self.evs = self.caps = None
        if sinks is not None:
            self.evs = np.array([s.buf.ctypes.data for s in sinks], dtype=np.uintp)
            self.caps = np.array([s.buf.shape[0] // 2 for s in sinks], dtype=np.int64)
        self.name, self.R, self.n, self.m = name, R, n, m
        self._rngs, self._sinks, self._prefixes = rngs, sinks, prefixes
        self._impl = impl
        self.c, self._keep = impl.shard(
            R=R, n=n, m=m, bgs=self.bgs, seeds=seeds, evs=self.evs,
            caps=self.caps, state=self.state, **rows, **fields,
        )

    @property
    def which(self) -> int:
        """The row the last status other than 1 names."""
        return int(self.c.which)

    def enter(self, loop) -> int:
        """One compiled call of ``loop`` on this shard; its status."""
        return loop(self.c)

    def run(self, loop, hold=None) -> int:
        """Run ``loop`` to its final status, holding every generator's
        lock.

        C steps a numpy ``PCG64`` inline and stores its state back on
        every return; it calls every other bit generator's
        ``next_double``.  Status 2 (the sink of row :attr:`which` is
        full) seals that sink, or opens it if unopened, and re-enters
        with the same struct.  A "full" open sink holding no event would
        make the loop re-enter forever, so it raises.  When the loop is
        done (status 1), ``hold(c)``, when given, draws the holding
        layer on the struct, the locks still held, and every sink is
        closed, into its repetition's trajectories."""
        state, sinks, bgs = self.state, self._sinks, self.bgs
        fronts = []  # the prefix bit generators C reads through
        bitgens = [None if rng is None else rng.bit_generator for rng in self._rngs]
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
                prefix = None if self._prefixes is None else self._prefixes[r]
                if prefix is not None and prefix.shape[0]:
                    fronts.append(self._impl.prefix_bitgen(prefix, address))
                    address = fronts[-1].address
                bgs[r] = address
            while True:
                status = self.enter(loop)
                if status == 2:
                    row = self.which
                    sink = sinks[row]
                    if not sink.buf.shape[0]:
                        # the row's first event: only a loop that runs its
                        # rows in order takes unopened sinks, so every row
                        # before it is done
                        for q in range(closed, row):
                            sinks[q].close(int(state[q, -1]))
                        closed = row
                        sink.open()
                    elif state[row, -1]:
                        sink.seal(int(state[row, -1]))
                    else:
                        raise RuntimeError(
                            "compiled loop: 'sink full' on an empty sink"
                        )
                    state[row, -1] = 0
                    # the room of the buffer actually passed, so C never
                    # writes past it
                    self.evs[row] = sink.buf.ctypes.data
                    self.caps[row] = sink.buf.shape[0] // 2
                else:
                    break
            if status == 1 and hold is not None:
                hold(self.c)
        finally:
            for lock in locks[:held]:
                lock.release()
        if status == 1 and sinks is not None:
            for q in range(closed, len(sinks)):
                sinks[q].close(int(state[q, -1]))
        return status


class CompiledKernels(KernelSet):
    """Wrapper over the low-level provider namespace (:mod:`cffi_impl`).

    The walk loops speak a buffer protocol: they consume uniforms from
    the array they were handed and return ``0`` when it runs dry,
    whereupon the wrapper fetches the next block from the stream object
    (``UniformStream.take_block`` for the parallel straggler loop, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay where the
    serial drivers leave them.  The shard loops
    (:meth:`finish_sequential`, :meth:`finish_parallel`,
    :meth:`finish_ctu`, :meth:`finish_uniform`) instead each build one
    :class:`Shard`, which checks the shard and fills the C struct the
    loop takes, and run every repetition of it in one compiled call,
    each repetition drawing inside C (:meth:`Shard.run`): a numpy
    ``PCG64`` or a row of C-seeded states (:meth:`pcg64_seeds`) stepped
    inline, any other bit generator through its ``bitgen_t``.  They
    return early only when an event sink fills; the wrapper then seals
    the sink and re-enters with the same struct.  After its chain, each
    repetition of CTU and Uniform draws its holding variables in C, with
    numpy's own samplers (:meth:`finish_ctu`, :meth:`finish_uniform`);
    :meth:`draw_durations` draws c-sequential's after its walk.

    The shard loops take an optional event sink per repetition
    (:meth:`event_sink`) that records its trajectories.
    """

    __slots__ = ("_impl",)
    compiled = True
    min_width = 2

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
        self._impl.seed_pcg64(
            words, words.shape[0], children.start, len(children), seeds
        )
        return seeds

    def draw_doubles(self, rngs, n: int, *, seeds=None) -> np.ndarray:
        """``(R, n)`` doubles, row ``r`` drawn in C from ``rngs[r]`` (or
        its row of ``seeds``), as the shard loops draw them: each row
        equals ``rngs[r].random(n)`` and leaves the generator where that
        call would."""
        shard = Shard(self._impl, "draw_doubles", rngs, seeds=seeds)
        out = np.empty((len(rngs), n))

        def draw(c):
            self._impl.draw_doubles(c, n, out)
            return 1

        shard.run(draw)
        return out

    def draw_durations(self, rngs, steps, out, *, rate, skip, seeds=None):
        """:func:`~repro.core.continuous.continuous_sequential_idla`'s
        holding draws for ``R = len(rngs)`` repetitions whose walks are
        done: row ``r`` skips ``skip[r]`` doubles, which brings its
        generator (or its row of ``seeds``) to where the serial walk's
        block fetches leave it, then draws each walked particle's
        ``Gamma(steps[r, p], 1/rate)`` duration into ``out[r, p]``, in
        index order, with numpy's own sampler.  ``steps`` (int64) and
        ``out`` (float64) are ``(R, m)``."""
        skip = _i64(skip)
        if skip.shape != (len(rngs),) or (skip < 0).any():
            raise ValueError("draw_durations needs one skip >= 0 a row")
        shard = Shard(
            self._impl, "draw_durations", rngs,
            rows={"steps": steps, "sclock": out}, seeds=seeds, rate=float(rate),
        )
        kind = self._impl.hold_kind["c-sequential"]

        def hold(c):
            self._impl.hold(c, kind, skip)
            return 1

        shard.run(hold)

    # ---- the shard loops -----------------------------------------------
    # Each builds one Shard, which checks every row before any draw, and
    # runs every repetition of it in one compiled call (plus one per
    # "sink full" re-entry, on the same struct): row r of
    # the (R, m) arrays and occ[r*n : (r+1)*n] belong to repetition r,
    # which draws each double from the bit generator of rngs[r] in C, in
    # its serial driver's order, so each generator ends right after the
    # last double its row consumed, or, after a holding layer, where the
    # serial driver leaves it.  A row whose rngs[r] is None draws
    # from the PCG64 state in row r of `seeds` (pcg64_seeds), which C
    # advances in place.  With sinks, one per row, every step is
    # recorded into its row's sink.
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
        shard = Shard(
            self._impl, name, rngs, graph=(indptr, indices, occ),
            rows={"starts": starts, "steps": steps, "settled": settled},
            vertices=("starts",), counts={0: walker}, width=5, sinks=sinks,
            seeds=seeds, prefixes=prefixes, lazy=int(bool(lazy)), budget=budget,
        )
        state = shard.state
        walking = state[:, 0] < shard.m
        state[walking, 1] = (
            starts[walking, state[walking, 0]] if pos is None
            else np.broadcast_to(pos, (shard.R,))[walking]
        )
        _check_range(name, "a pos", state[walking, 1], shard.n)
        state[:, 2] = pstep
        state[:, 3] = total
        if shard.run(self._impl.finish_seq) < 0:
            raise RuntimeError(limit_msg)
        return state[:, 3].copy()

    # The jump chain of CTU and Uniform: one C loop, two doubles a tick,
    # that records the tick at which each level ends; the holding layer
    # then draws the clocks of every level from the same generators.
    def _run_ticks(
        self, process, indptr, indices, occ, rows, rngs, *, k, norder,
        block, sinks, seeds, budget=float("inf"), **fields,
    ) -> tuple[int, np.ndarray]:
        """Run the jump chain on ``rows`` (pool, pos, steps, settled,
        order and the rows ``fields`` name), then the holding layer of
        ``process``; returns the final status (-1: a chain's tick count
        exceeds ``budget``) and the shard's state, whose column 2 holds
        the tick counts.  Every row needs ``k + norder = m`` and ``k <
        m``."""
        m = rows["pool"].shape[-1]
        shard = Shard(
            self._impl, f"finish_{process}", rngs, graph=(indptr, indices, occ),
            rows={**rows, "jumps": np.zeros((len(rngs), m), dtype=np.int64)},
            particles=("pool",), vertices=("pos",), counts={0: k, 1: norder},
            width=4, sinks=sinks, seeds=seeds, budget=float(budget), **fields,
        )
        state = shard.state
        # the chain writes jumps[:, k] for each level k it ends, and the
        # holding layer reads the order entries the chain wrote
        left, done = state[:, 0], state[:, 1]
        if ((left + done != m) | (left >= max(m, 1))).any():
            raise ValueError(
                f"finish_{process}: every row needs k + norder = m and k < m"
            )
        kind = self._impl.hold_kind[process]

        def hold(c):
            # two doubles a tick; the serial stream fetches whole blocks
            self._impl.hold(c, kind, -2 * state[:, 2] % block)

        return shard.run(self._impl.run_ticks, hold), state

    def finish_ctu(
        self, indptr, indices, occ, pool, pos, steps, settled, clock, order,
        rngs, *, k, norder, rate, block, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.continuous.ctu_idla` for ``R =
        len(rngs)`` repetitions; returns each one's final clock.

        ``pool``, ``pos``, ``steps``, ``settled``, ``clock`` (float64, the
        settle clocks) and ``order`` are ``(R, m)``: ``pool[r, :k[r]]``
        holds repetition ``r``'s unsettled particles and
        ``order[r, :norder[r]]`` its settle order so far, with ``k[r] +
        norder[r] = m`` and ``k[r] < m``; every entry of
        ``pool`` must be a particle, every entry of ``pos`` a vertex.  Each
        tick draws 2 doubles, in the serial order; each level's
        ``Gamma(J_k, 1/(k*rate))`` time is then drawn after the
        generator is brought to the grid of the serial driver's
        ``block``-double fetches (``1``: right after the chain's
        doubles); each generator ends where the serial driver leaves it."""
        self._run_ticks(
            "ctu", indptr, indices, occ,
            {"pool": pool, "pos": pos, "steps": steps, "settled": settled,
             "order": order, "sclock": clock},
            rngs, k=k, norder=norder, block=block, sinks=sinks, seeds=seeds,
            rate=float(rate),
        )
        # clocks only grow: the last settle clock is each row's largest
        return clock.max(axis=1, initial=0.0)

    def finish_uniform(
        self, indptr, indices, occ, pool, pos, steps, settled, order, rngs,
        *, k, norder, budget, limit_msg, block, sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.uniform.uniform_idla` (default
        scheduler) for ``R = len(rngs)`` repetitions; returns each one's
        tick count.

        The rows are :meth:`finish_ctu`'s, less the clocks.  Each tick
        draws 2 doubles, in the serial order; each level's
        ``NegBin(J_k, k/pool_size)`` wasted ticks are then drawn as
        :meth:`finish_ctu` draws its times.  A tick count past ``budget``
        raises ``RuntimeError(limit_msg)``, as the serial driver does: a
        chain whose useful ticks exceed it stops at once, and the others
        are checked with their wasted ticks added."""
        status, state = self._run_ticks(
            "uniform", indptr, indices, occ,
            {"pool": pool, "pos": pos, "steps": steps, "settled": settled,
             "order": order},
            rngs, k=k, norder=norder, block=block, sinks=sinks, seeds=seeds,
            budget=budget,
        )
        ticks = state[:, 2]
        if status < 0 or (ticks > budget).any():
            raise RuntimeError(limit_msg)
        return ticks.copy()

    def finish_parallel(
        self, indptr, indices, occ, act, pos, prio, steps, settled, rounds,
        rngs, *, k, free, lazy, scalar_threshold, budget, max_rounds,
        sinks=None, seeds=None,
    ) -> np.ndarray:
        """Compiled :func:`repro.core.parallel.parallel_idla` round loop
        for ``R = len(rngs)`` repetitions; returns each one's final round.

        Starts after the round-0 settlement pass: ``act[r, :k[r]]`` holds
        repetition ``r``'s unsettled particles ascending and ``pos[r,
        :k[r]]`` their vertices (both are reordered in place), ``free[r]``
        its vacant-vertex count; every entry of ``act`` must be a
        particle, every entry of ``pos`` a vertex.  ``prio`` is ``None``
        (a particle's priority is its index) or ``(R, m)``, like ``act``,
        ``pos``, ``steps``, ``settled`` and ``rounds``.  A sink must hold
        at least one round: ``k[r]`` events."""
        name = "finish_parallel"
        m = act.shape[-1]
        shard = Shard(
            self._impl, name, rngs, graph=(indptr, indices, occ),
            rows={"pool": act, "pos": pos, "prio": prio, "steps": steps,
                  "settled": settled, "round": rounds},
            particles=("pool",), vertices=("pos",), counts={0: k}, width=4,
            sinks=sinks, seeds=seeds, lazy=int(bool(lazy)),
            # k only shrinks and never passes m, so clamping keeps every
            # `k > threshold` test
            thr=max(-1, min(scalar_threshold, m)), budget=budget,
            best=np.full(indptr.shape[0] - 1, -1, dtype=np.int64),
            hold=np.empty(m) if lazy else None,
        )
        state = shard.state
        if sinks is not None and any(
            s.capacity < kr for s, kr in zip(sinks, state[:, 0].tolist())
        ):
            raise ValueError(f"{name}: a sink holds less than one round")
        state[:, 2] = free
        if shard.run(self._impl.run_parallel) < 0:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        return state[:, 1].copy()

    # ---- scalar-tail finisher loop ----------------------------------
    def finish_parallel_single(
        self, indptr, indices, occ_arr, tail, *, v, t, lazy, budget, limit_msg,
    ) -> tuple[int, int]:
        """Compiled single-straggler loop; returns ``(vertex, round)``."""
        state = np.array([v, t], dtype=np.int64)
        occ = _u8(occ_arr)
        lz = 1 if lazy else 0
        buf = tail.take_block()
        while True:
            status = self._impl.finish_par1(
                indptr, indices, occ, _f64(buf), buf.shape[0], state, lz, budget,
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
            from repro.kernels import _selfcheck, cffi_impl

            ks = CompiledKernels(name, cffi_impl.load())
            _selfcheck.self_check(ks)
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
