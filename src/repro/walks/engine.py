"""Vectorised multi-walker stepping — the library's innermost hot loop.

One synchronous step for ``k`` walkers costs a degree gather, an offset
computation and one neighbour-slot resolution:

    ``deg = degrees[pos]; off = floor(U * deg); new = slots(pos, off)``

where ``slots`` is the graph's ``neighbor_slots`` kernel — an
``indices[indptr[pos] + off]`` CSR gather for :class:`repro.graphs.Graph`,
or pure arithmetic for the implicit families in
:mod:`repro.graphs.implicit`.  :func:`neighbor_step` is that one step;
:class:`WalkEngine` binds the kernel once per graph.  This is the
"vectorise the for loop" pattern from the HPC guide applied to the
Parallel-IDLA inner loop, where all unsettled particles advance together.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph, neighbor_kernel
from repro.utils.rng import as_generator

__all__ = ["WalkEngine", "neighbor_step"]


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
    Shared by :class:`WalkEngine` and the batched cross-repetition drivers
    in :mod:`repro.core.batched`, which assemble ``u`` from per-repetition
    streams.
    """
    deg = degrees[positions]
    offsets = (u * deg).astype(np.int64)
    # floating-point guard: u < 1 ensures offsets < deg, but be explicit
    np.minimum(offsets, deg - 1, out=offsets)
    return kernel(positions, offsets, out)


class WalkEngine:
    """Reusable stepping kernel bound to one graph.

    Parameters
    ----------
    g:
        The graph to walk on.
    seed:
        Anything accepted by :func:`repro.utils.rng.as_generator`.

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> eng = WalkEngine(cycle_graph(8), seed=0)
    >>> pos = np.zeros(5, dtype=np.int64)
    >>> new = eng.step(pos)
    >>> bool(np.all((new == 1) | (new == 7)))
    True
    """

    __slots__ = ("graph", "rng", "kernels", "_kernel", "_degrees", "_fused")

    def __init__(self, g: Graph, seed=None, kernels=None):
        from repro.kernels import get_kernels

        self.graph = g
        self.rng = as_generator(seed)
        self.kernels = get_kernels(kernels)
        self._kernel = neighbor_kernel(g)
        self._degrees = g.degrees
        # compiled fused step; None for the numpy provider and for
        # graphs without materialised CSR arrays
        self._fused = self.kernels.stepper(g)

    # ------------------------------------------------------------------
    def step(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Advance every walker one simple-random-walk step.

        ``positions`` is not modified; pass ``out=positions`` for in-place
        updates (aliasing is safe: all reads happen before the write).
        """
        u = self.rng.random(positions.shape[0])
        if self._fused is not None:
            return self._fused(positions, u, out)
        return neighbor_step(self._kernel, self._degrees, positions, u, out)

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
            Integer array of any shape (typically ``(R, k)``); not
            modified unless ``out=positions``.
        out:
            Optional C-contiguous output buffer of the same shape
            (aliasing with ``positions`` is safe).
        u:
            Optional pre-drawn uniforms in ``[0, 1)`` of the same shape.
            By default they are drawn row-major from the engine's own
            generator; the batched drivers pass per-repetition streams
            here instead.

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
        positions = np.asarray(positions)
        if u is None:
            u = self.rng.random(positions.shape)
        else:
            u = np.asarray(u)
            if u.shape != positions.shape:
                raise ValueError(
                    f"u must match positions shape {positions.shape}, got {u.shape}"
                )
        flat_out = None
        if out is not None:
            if out.shape != positions.shape:
                raise ValueError(
                    f"out must match positions shape {positions.shape}, got {out.shape}"
                )
            if not out.flags.c_contiguous:
                raise ValueError("out must be C-contiguous")
            flat_out = out.reshape(-1)
        flat_pos = positions.reshape(-1)
        flat_u = np.ascontiguousarray(u).reshape(-1)
        if self._fused is not None:
            result = self._fused(flat_pos, flat_u, flat_out)
        else:
            result = neighbor_step(
                self._kernel, self._degrees, flat_pos, flat_u, flat_out
            )
        return out if out is not None else result.reshape(positions.shape)

    def step_lazy(
        self,
        positions: np.ndarray,
        hold: float = 0.5,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance walkers one *lazy* step (stay put w.p. ``hold``)."""
        if not 0.0 <= hold < 1.0:
            raise ValueError(f"hold must be in [0, 1), got {hold}")
        move = self.rng.random(positions.shape[0]) >= hold
        new = self.step(positions)
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
