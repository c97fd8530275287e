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
self-check (:func:`_self_check`) exercising all seven entry points before
it can be selected, so a miscompiled or mis-installed provider fails at
resolution, not mid-run.
"""

from __future__ import annotations

import os
import shlex
import warnings
from importlib.util import find_spec

import numpy as np

__all__ = [
    "ENV_VAR",
    "CompiledKernels",
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


class CompiledKernels(KernelSet):
    """Wrapper over the low-level provider namespace (:mod:`cffi_impl`).

    The loop kernels speak a shared buffer protocol: they consume
    uniforms from the array they were handed and return ``0`` when it
    runs dry, whereupon the wrapper fetches the next block from the
    stream object (``UniformStream.take_block`` for the finishers, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay reconcilable
    with the serial grid (``UniformStreams.align_to_serial``).
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

    # ---- scalar-tail finisher loops ----------------------------------
    def finish_sequential(
        self, indptr, indices, occ_row, starts, tail, *,
        walker, pos, pstep, total, lazy, budget, limit_msg,
        steps_row, settled_row,
    ) -> int:
        """Compiled ``_finish_sequential_rep``; returns consumed doubles."""
        state = np.array([walker, pos, pstep, total], dtype=np.int64)
        occ = _u8(occ_row)
        starts = _i64(starts)
        m = starts.shape[0]
        lz = 1 if lazy else 0
        buf = tail.take_block()
        while True:
            status = self._impl.finish_seq(
                indptr, indices, occ, starts, steps_row, settled_row,
                _f64(buf), buf.shape[0], state, m, lz, budget,
            )
            if status == 1:
                return int(state[3])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = tail.take_block()

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


def _self_check(ks: CompiledKernels) -> None:
    """Exercise every kernel on the path graph P3 and assert the answers.

    Catches toolchain miscompiles at selection time, loudly.  Inputs
    cross a buffer-refill boundary so the resume protocol is checked too.
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

    out = np.empty(3, dtype=np.int64)
    out[0] = 0
    ks.walk_positions(indptr, indices, out, _BlockFeeder([[0.5, 0.5]]), 2)
    assert out.tolist() == [0, 1, 2], out

    hits = ks.walk_until_hit(
        indptr, indices, np.array([0, 0, 1], dtype=np.uint8), 0,
        _BlockFeeder([[0.9, 0.9]]), 2, float("inf"), "self-check",
    )
    assert hits == 2, hits


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
