"""Compressed-sparse-row graph representation.

The whole library operates on :class:`Graph`, an immutable undirected graph
stored as two NumPy arrays:

``indptr``
    shape ``(n + 1,)`` — ``indices[indptr[v]:indptr[v+1]]`` are the
    neighbours of vertex ``v``.
``indices``
    shape ``(2m,)`` — concatenated adjacency lists (each undirected edge
    appears once per endpoint).

This layout makes the random-walk hot loop a pair of vectorised gathers
(see :mod:`repro.walks.engine`) and keeps memory contiguous, following the
cache-friendliness guidance of the HPC guide.  Vertices are ``0..n-1``.

Self-loops are permitted and follow a *walk-centric* convention: each loop
occupies **one** slot in the adjacency list of its vertex, so a step from
``v`` picks one of ``len(neighbors(v))`` slots uniformly.  Adding ``deg(v)``
loop slots at every vertex therefore turns the simple walk into the lazy
walk — the paper's §4.4 construction ``G~`` ("consider the graph with the
addition of (multi)-loops at each vertex").  Parallel edges are permitted
for the same reason.  ``num_edges`` counts non-loop edges; the paper's
graph families are all loop-free.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph", "check_spec_counts", "neighbor_kernel"]


def check_spec_counts(n: int, nnz: int | None = None) -> None:
    """Validate the integer counts of a cross-process graph spec.

    Shared by :meth:`Graph.from_shared` (shared-memory CSR segments) and
    the implicit-graph descriptor path in :mod:`repro.experiments.fanout`,
    so both reconstruction routes reject malformed specs with the same
    error instead of drifting apart.
    """
    if nnz is None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got n={n}")
    elif n < 0 or nnz < 0:
        raise ValueError(f"n and nnz must be >= 0, got n={n}, nnz={nnz}")


def neighbor_kernel(g):
    """Return the ``neighbor_slots`` kernel of ``g``, or raise clearly.

    Every graph object the walk layer accepts — CSR :class:`Graph` and the
    arithmetic families in :mod:`repro.graphs.implicit` — exposes
    ``neighbor_slots(positions, offsets, out=None)``.  A graph-like object
    without it would previously fail deep inside a driver with an opaque
    ``AttributeError`` (or, worse, a duck-typed near-miss could walk the
    wrong edges); binding through this helper turns that into an immediate
    ``TypeError`` naming the contract.
    """
    kernel = getattr(g, "neighbor_slots", None)
    if not callable(kernel):
        raise TypeError(
            f"{type(g).__name__} does not provide a neighbor_slots kernel; "
            "WalkEngine and the lock-step drivers step graphs through "
            "neighbor_slots(positions, offsets, out=None) — pass a "
            "repro.graphs.Graph (CSR), an ImplicitGraph family, or an "
            "object implementing that method"
        )
    return kernel


class Graph:
    """An immutable undirected (multi)graph in CSR form.

    Parameters
    ----------
    indptr, indices:
        CSR arrays as described in the module docstring.  Copied and
        validated unless ``validate=False`` (internal fast path).
    name:
        Optional human-readable label used in experiment tables.

    Notes
    -----
    Construction via :meth:`from_edges` or the generators in
    :mod:`repro.graphs.generators` is preferred; the raw constructor exists
    for conversion code.
    """

    __slots__ = (
        "indptr",
        "indices",
        "name",
        "_degrees",
        "_num_edges",
        "_slot_base",
    )

    def __init__(
        self,
        indptr,
        indices,
        *,
        name: str = "graph",
        validate: bool = True,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if validate:
            self._validate(indptr, indices)
        self.indptr = indptr
        self.indices = indices
        self.name = name
        self._degrees = np.diff(indptr)
        self._num_edges: int | None = None
        self._slot_base: int | None = None  # lazy: constant degree, or -1
        # Freeze the arrays: Graph instances are shared between processes
        # and cached; accidental mutation would corrupt every consumer.
        for arr in (self.indptr, self.indices, self._degrees):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def _validate(indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.size} entries)"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices contain out-of-range vertex ids")
        # Undirectedness: the multiset of (u, v) arcs must be symmetric.
        u = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        fwd = np.stack([u, indices], axis=1)
        rev = np.stack([indices, u], axis=1)
        fwd_sorted = fwd[np.lexsort((fwd[:, 1], fwd[:, 0]))]
        rev_sorted = rev[np.lexsort((rev[:, 1], rev[:, 0]))]
        if not np.array_equal(fwd_sorted, rev_sorted):
            raise ValueError(
                "adjacency structure is not symmetric (graph must be undirected)"
            )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph on ``n`` vertices from an iterable of edges.

        Each pair ``(u, v)`` with ``u != v`` adds one undirected edge.
        Self-loop pairs ``(u, u)`` are rejected here — use
        :meth:`with_self_loops` for the lazy-walk construction, which has a
        documented single-slot convention.

        Examples
        --------
        >>> g = Graph.from_edges(3, [(0, 1), (1, 2)], name="P3")
        >>> g.degree(1)
        2
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        edge_arr = np.asarray(list(edges), dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError("edges must be pairs (u, v)")
        if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
            raise ValueError("edge endpoints out of range")
        if edge_arr.size and np.any(edge_arr[:, 0] == edge_arr[:, 1]):
            raise ValueError(
                "self-loops are not accepted by from_edges; "
                "use Graph.with_self_loops for lazy-walk constructions"
            )
        # Symmetrise: every edge contributes an arc in both directions.
        src = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        dst = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst, name=name, validate=False)

    @classmethod
    def from_shared(cls, buf, n: int, nnz: int, *, name: str = "graph") -> "Graph":
        """Zero-copy reconstruction from a packed shared-memory buffer.

        ``buf`` (any buffer object, e.g. ``multiprocessing.shared_memory
        .SharedMemory.buf``) holds ``indptr`` — ``n + 1`` native int64 —
        immediately followed by ``indices`` (``nnz`` int64): the layout
        written by :class:`repro.experiments.fanout.SharedGraph`.  The
        returned graph's CSR arrays are *views* of ``buf``; nothing is
        copied and nothing re-validated (the exporting side held an
        already-validated graph).  The caller owns the buffer lifetime:
        keep the mapping open while the graph is alive, and drop every
        reference to the graph before closing it.
        """
        itemsize = np.dtype(np.int64).itemsize
        check_spec_counts(n, nnz)
        if len(buf) < (n + 1 + nnz) * itemsize:
            raise ValueError(
                f"buffer too small for n={n}, nnz={nnz}: need "
                f"{(n + 1 + nnz) * itemsize} bytes, got {len(buf)}"
            )
        indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=buf)
        indices = np.ndarray(
            (nnz,), dtype=np.int64, buffer=buf, offset=(n + 1) * itemsize
        )
        return cls(indptr, indices, name=name, validate=False)

    @classmethod
    def from_adjacency_lists(
        cls, adjacency: Sequence[Sequence[int]], *, name: str = "graph"
    ) -> "Graph":
        """Build from a list of neighbour lists (must already be symmetric)."""
        n = len(adjacency)
        if n == 0:
            raise ValueError("adjacency must be non-empty")
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(a) for a in adjacency])
        flat: list[int] = []
        for nbrs in adjacency:
            flat.extend(int(x) for x in nbrs)
        indices = np.asarray(flat, dtype=np.int64)
        return cls(indptr, indices, name=name, validate=True)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def num_vertices(self) -> int:
        """Alias for :attr:`n`."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of undirected non-loop edges ``m``.

        Exact for loop-free graphs (all paper families); for graphs produced
        by :meth:`with_self_loops` this counts the original edges only.
        """
        if self._num_edges is None:
            u = np.repeat(np.arange(self.n, dtype=np.int64), self._degrees)
            self._num_edges = int((u != self.indices).sum()) // 2
        return self._num_edges

    @property
    def degrees(self) -> np.ndarray:
        """Walk-degree vector: number of adjacency slots per vertex.

        Equal to the graph degree for loop-free graphs; each self-loop slot
        adds 1 (see module docstring for the convention).
        """
        return self._degrees

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._degrees[v])

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ(G)."""
        return int(self._degrees.max())

    @property
    def min_degree(self) -> int:
        """Minimum degree δ(G)."""
        return int(self._degrees.min())

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbour array of ``v`` (with multiplicity)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_slots(
        self,
        positions: np.ndarray,
        offsets: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised slot gather: element ``i`` is ``indices[indptr[positions[i]]
        + offsets[i]]``, i.e. adjacency slot ``offsets[i]`` of vertex
        ``positions[i]``.

        This is the neighbour-kernel seam: the lock-step drivers and
        :class:`repro.walks.engine.WalkEngine` never touch ``indptr`` /
        ``indices`` directly, they call this method — which the implicit
        families in :mod:`repro.graphs.implicit` replace with pure
        arithmetic.  Offsets must satisfy ``0 <= offsets[i] <
        degree(positions[i])`` (drivers guarantee this by construction).

        For regular graphs ``indptr[v] == c * v``, so the indptr gather
        collapses to one multiply; the constant is detected once and cached.
        """
        base = self._slot_base
        if base is None:
            regular = self.n > 0 and int(self._degrees.min()) == int(
                self._degrees.max()
            )
            base = self._slot_base = int(self._degrees[0]) if regular else -1
        if base >= 0:
            flat = positions * base + offsets
        else:
            flat = self.indptr[positions] + offsets
        if out is None:
            return self.indices[flat]
        return np.take(self.indices, flat, out=out)

    def has_edge(self, u: int, v: int) -> bool:
        """True if at least one ``{u, v}`` edge exists."""
        return bool(np.any(self.neighbors(u) == v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected non-loop edges once each (u < v), with multiplicity."""
        for u in range(self.n):
            for v in self.neighbors(u):
                v = int(v)
                if v > u:
                    yield (u, v)

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------
    def is_regular(self) -> bool:
        """True if every vertex has the same degree."""
        return self.min_degree == self.max_degree

    def is_almost_regular(self, ratio: float = 4.0) -> bool:
        """Paper §2: Δ(G)/δ(G) bounded by a constant (default 4)."""
        return self.max_degree <= ratio * self.min_degree

    def is_connected(self) -> bool:
        """BFS connectivity check (iterative, vectorised frontier expansion)."""
        n = self.n
        if n == 1:
            return True
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        count = 1
        while frontier.size:
            # Gather all neighbours of the frontier in one shot.
            starts = self.indptr[frontier]
            ends = self.indptr[frontier + 1]
            total = int((ends - starts).sum())
            if total == 0:
                break
            nxt = np.concatenate(
                [self.indices[s:e] for s, e in zip(starts, ends)]
            )
            nxt = np.unique(nxt)
            nxt = nxt[~seen[nxt]]
            seen[nxt] = True
            count += nxt.size
            frontier = nxt
        return count == n

    def is_bipartite(self) -> bool:
        """Two-colouring via BFS; self-loops make a graph non-bipartite."""
        n = self.n
        color = np.full(n, -1, dtype=np.int8)
        for start in range(n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                cu = color[u]
                for v in self.neighbors(u):
                    v = int(v)
                    if color[v] == -1:
                        color[v] = 1 - cu
                        stack.append(v)
                    elif color[v] == cu:
                        return False
        return True

    def adjacency_lists(self) -> list[list[int]]:
        """Plain Python adjacency lists (fast single-walker loop uses these)."""
        return [
            self.indices[self.indptr[v] : self.indptr[v + 1]].tolist()
            for v in range(self.n)
        ]

    def with_self_loops(self, loops_per_vertex=None) -> "Graph":
        """Return a copy with self-loop *slots* added at every vertex.

        Parameters
        ----------
        loops_per_vertex:
            ``None`` adds ``deg(v)`` loop slots at each ``v`` — the paper's
            §4.4 construction ``G~`` whose simple walk equals the lazy walk
            on ``G`` (stay probability exactly 1/2).  An integer adds that
            many slots everywhere.
        """
        if loops_per_vertex is None:
            extra = self._degrees.copy()
        else:
            if loops_per_vertex < 0:
                raise ValueError("loops_per_vertex must be >= 0")
            extra = np.full(self.n, int(loops_per_vertex), dtype=np.int64)
        new_deg = self._degrees + extra
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(new_deg, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int64)
        for v in range(self.n):
            s = indptr[v]
            d = self._degrees[v]
            indices[s : s + d] = self.neighbors(v)
            indices[s + d : s + d + extra[v]] = v
        return Graph(indptr, indices, name=f"{self.name}+loops", validate=False)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(name={self.name!r}, n={self.n}, m={self.num_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indices.size, self.indices.tobytes()))
