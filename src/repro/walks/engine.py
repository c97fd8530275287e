"""Vectorised multi-walker stepping — the library's innermost hot loop.

One synchronous step for ``k`` walkers costs a degree gather, an offset
computation and one neighbour-slot resolution:

    ``deg = degrees[pos]; off = floor(U * deg); new = slots(pos, off)``

where ``slots`` is the graph's ``neighbor_slots`` kernel — an
``indices[indptr[pos] + off]`` CSR gather for :class:`repro.graphs.Graph`,
or pure arithmetic for the implicit families in
:mod:`repro.graphs.implicit`.  :func:`neighbor_step` is that one step,
written out as the reference; :func:`make_stepper` binds it to one graph
and one kernel provider, and is the only code that decides how a step is
done: :class:`WalkEngine` and every lock-step driver step through it.
This is the "vectorise the for loop" pattern from the HPC guide applied
to the Parallel-IDLA inner loop, where all unsettled particles advance
together.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph, neighbor_kernel
from repro.utils.rng import as_generator

__all__ = ["WalkEngine", "make_stepper", "neighbor_step"]


def neighbor_step(
    kernel,
    degrees: np.ndarray,
    positions: np.ndarray,
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One simple-random-walk step through a graph-provided slot kernel.

    ``kernel`` is ``g.neighbor_slots`` (bind it via
    :func:`repro.graphs.csr.neighbor_kernel` for a clear error on
    kernel-less objects); ``u`` and ``positions`` must share a 1-D shape.
    The reference :func:`make_stepper`'s steps are tested against, bit
    for bit.
    """
    deg = degrees[positions]
    offsets = (u * deg).astype(np.int64)
    # floating-point guard: u < 1 ensures offsets < deg, but be explicit
    np.minimum(offsets, deg - 1, out=offsets)
    return kernel(positions, offsets, out)


def make_stepper(g: Graph, kernels):
    """One-walk-step function ``step(pos, u, out=None)`` for ``g``.

    ``pos`` holds 1-D int64 vertices of ``g`` and ``u`` as many uniforms
    in ``[0, 1)``; the result equals :func:`neighbor_step` bit for bit.
    ``out``, when given, is a C-contiguous int64 array of ``pos``'s
    length, and may be ``pos`` itself (every read happens before the
    write).  ``kernels`` is a resolved
    :class:`repro.kernels.KernelSet`.

    The step is done one of three ways:

    * on a regular graph (most of Table 1), the degree is one scalar and
      the offsets are scalar arithmetic, with no O(n) helper array — so
      implicit regular families keep their O(1)-in-n footprint;
    * otherwise, float degrees and degrees − 1 are gathered from arrays
      made once here;
    * with a compiled provider on a graph with host CSR arrays, every
      call runs ``kernels.csr_step``, one C pass with no walker-sized
      temporaries, which beats both at every width from 1 to 512.

    The first two resolve slots through the graph's ``neighbor_slots``
    kernel, a CSR gather or the implicit families' arithmetic.  Inputs
    are not checked: this is the drivers' hot path (:class:`WalkEngine`
    checks what callers hand it).
    """
    kernel = neighbor_kernel(g)
    degrees = g.degrees
    if g.n > 0 and g.is_regular():
        c_int = int(degrees[0])
        c_float = float(c_int)

        def numpy_step(pos, u, out=None):
            off = (u * c_float).astype(np.int64)
            np.minimum(off, c_int - 1, out=off)
            return kernel(pos, off, out)

    else:
        degf = degrees.astype(np.float64)
        degm1 = degrees - 1

        def numpy_step(pos, u, out=None):
            off = (u * degf[pos]).astype(np.int64)
            np.minimum(off, degm1[pos], out=off)
            return kernel(pos, off, out)

    if not kernels.compiled:
        return numpy_step
    from repro.kernels import csr_arrays

    csr = csr_arrays(g)
    if csr is None:
        return numpy_step
    indptr, indices = csr

    def step(pos, u, out=None):
        return kernels.csr_step(indptr, indices, pos, u, out)

    return step


class WalkEngine:
    """Reusable stepping kernel bound to one graph.

    Parameters
    ----------
    g:
        The graph to walk on.
    seed:
        Anything accepted by :func:`repro.utils.rng.as_generator`.
    kernels:
        :class:`repro.kernels.KernelSet` or provider name; steps go
        through :func:`make_stepper` for it.

    :meth:`step`, :meth:`step_batch` and :meth:`step_lazy` check their
    input before drawing anything, with the same ``ValueError`` on every
    provider: positions must be an integer array of vertices in
    ``[0, n)`` (1-D for :meth:`step` and :meth:`step_lazy`), and an
    ``out`` passed to :meth:`step` or :meth:`step_batch` must be a
    C-contiguous ``int64`` array of the positions' shape.

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> eng = WalkEngine(cycle_graph(8), seed=0)
    >>> pos = np.zeros(5, dtype=np.int64)
    >>> new = eng.step(pos)
    >>> bool(np.all((new == 1) | (new == 7)))
    True
    """

    __slots__ = ("graph", "rng", "kernels", "_step")

    def __init__(self, g: Graph, seed=None, kernels=None):
        from repro.kernels import get_kernels

        self.graph = g
        self.rng = as_generator(seed)
        self.kernels = get_kernels(kernels)
        self._step = make_stepper(g, self.kernels)

    def _vertices(self, positions, out=None, *, flat=True) -> np.ndarray:
        """``positions`` as an int64 array, once it passes the input
        checks (see the class docstring)."""
        positions = np.asarray(positions)
        if positions.dtype.kind not in "iu":
            raise ValueError(
                f"positions must be integer vertices, got dtype {positions.dtype}"
            )
        if flat and positions.ndim != 1:
            raise ValueError(f"positions must be 1-D, got shape {positions.shape}")
        positions = positions.astype(np.int64, copy=False)
        n = self.graph.n
        # seen as uint64 a negative vertex is huge, so one max() tests
        # both ends of [0, n)
        if positions.size and positions.view(np.uint64).max() >= n:
            raise ValueError(f"positions must be vertices in [0, {n})")
        if out is not None:
            if out.shape != positions.shape:
                raise ValueError(
                    f"out must match positions shape {positions.shape}, got {out.shape}"
                )
            if out.dtype != np.int64 or not out.flags.c_contiguous:
                raise ValueError("out must be a C-contiguous int64 array")
        return positions

    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Advance every walker one simple-random-walk step.

        ``positions`` is a 1-D integer array of vertices and is not
        modified; pass ``out=positions`` for in-place updates (aliasing
        is safe: all reads happen before the write).  Bad input raises
        ``ValueError`` (see the class docstring).
        """
        positions = self._vertices(positions, out)
        u = self.rng.random(positions.shape[0])
        return self._step(positions, u, out)

    def step_batch(
        self,
        positions: np.ndarray,
        out: np.ndarray | None = None,
        u: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance an ``(R, k)`` array of walker positions one step each.

        Rows are independent walker sets (e.g. one Monte-Carlo repetition
        per row); the whole batch advances in one set of CSR gathers —
        the vectorise-the-outer-loop move the batched drivers build on.

        Parameters
        ----------
        positions:
            Integer array of vertices, of any shape (typically
            ``(R, k)``); not modified unless ``out=positions``.
        out:
            Optional C-contiguous ``int64`` output buffer of the same
            shape (aliasing with ``positions`` is safe).
        u:
            Optional pre-drawn uniforms in ``[0, 1)`` of the same shape.
            By default they are drawn row-major from the engine's own
            generator; the batched drivers pass per-repetition streams
            here instead.

        Bad ``positions``, ``out`` or ``u`` raise ``ValueError`` (see
        the class docstring).

        Examples
        --------
        >>> from repro.graphs import cycle_graph
        >>> eng = WalkEngine(cycle_graph(8), seed=0)
        >>> pos = np.zeros((4, 5), dtype=np.int64)
        >>> new = eng.step_batch(pos)
        >>> new.shape
        (4, 5)
        >>> bool(np.all((new == 1) | (new == 7)))
        True
        """
        positions = self._vertices(positions, out, flat=False)
        if u is None:
            u = self.rng.random(positions.shape)
        else:
            u = np.asarray(u)
            if u.shape != positions.shape:
                raise ValueError(
                    f"u must match positions shape {positions.shape}, got {u.shape}"
                )
        result = self._step(
            positions.reshape(-1),
            np.ascontiguousarray(u, dtype=np.float64).reshape(-1),
            None if out is None else out.reshape(-1),
        )
        return out if out is not None else result.reshape(positions.shape)

    def step_lazy(
        self,
        positions: np.ndarray,
        hold: float = 0.5,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance walkers one *lazy* step (stay put w.p. ``hold``).

        ``positions`` is checked as in :meth:`step`.
        """
        if not 0.0 <= hold < 1.0:
            raise ValueError(f"hold must be in [0, 1), got {hold}")
        positions = self._vertices(positions)
        move = self.rng.random(positions.shape[0]) >= hold
        new = self._step(positions, self.rng.random(positions.shape[0]))
        result = np.where(move, new, positions)
        if out is None:
            return result
        out[:] = result
        return out

    def step_subset(
        self, positions: np.ndarray, active: np.ndarray
    ) -> None:
        """In-place step only the walkers flagged in boolean mask ``active``."""
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return
        positions[idx] = self.step(positions[idx])

    # ------------------------------------------------------------------
    def trajectories(self, starts: np.ndarray, steps: int) -> np.ndarray:
        """Record ``steps`` synchronous steps: shape ``(steps+1, k)``.

        Row ``t`` is the position of every walker after ``t`` steps.
        Memory is ``O(steps · k)``; use for analysis, not long production runs.
        """
        starts = np.asarray(starts, dtype=np.int64)
        out = np.empty((steps + 1, starts.shape[0]), dtype=np.int64)
        out[0] = starts
        for t in range(steps):
            out[t + 1] = self.step(out[t])
        return out

    def endpoint_distribution(
        self, start: int, steps: int, walkers: int
    ) -> np.ndarray:
        """Empirical law of ``X_steps`` from ``walkers`` i.i.d. walks."""
        pos = np.full(walkers, start, dtype=np.int64)
        for _ in range(steps):
            self.step(pos, out=pos)
        counts = np.bincount(pos, minlength=self.graph.n)
        return counts / walkers
