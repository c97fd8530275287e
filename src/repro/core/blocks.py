"""Block representation of IDLA histories and the Cut & Paste transform.

Section 4 of the paper encodes a realisation of an IDLA process as an
irregular 2-D array ``L`` with one row per particle: ``L(i, t)`` is the
vertex occupied by particle ``i`` after its ``t``-th jump, ``t = 0..ρ_i``,
and ``L(i, ρ_i)`` is where it settled.  We index rows ``0..n-1`` (row 0 is
the particle that settles the origin instantly, the paper's row 1).

Three defining properties (paper's (2), (3), (4)):

* **(2)** endpoints are pairwise distinct — hence they cover ``V``;
* **(3)** *sequential validity*: reading cells row-by-row (order ``<_S``),
  the first occurrence of each vertex ends its row;
* **(4)** *parallel validity*: reading column-by-column (order ``<_P``),
  the first occurrence of each vertex ends its row.

The **Cut & Paste** transform ``CP_(i,t)`` cuts cells ``(i, t+1..ρ_i)`` and
pastes them after the unique ``(k, ρ_k)`` with ``L(k, ρ_k) = L(i, t)``.
It preserves property (2), the total length ``m(L)`` and the multiset of
traversed arcs — the invariants driving every coupling in the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.csr import Graph

__all__ = [
    "Block",
    "is_valid_sequential_block",
    "is_valid_parallel_block",
    "is_valid_uniform_block",
]


class Block:
    """Mutable ragged array of particle trajectories.

    Parameters
    ----------
    rows:
        ``rows[i]`` is the trajectory of particle ``i`` (sequence of
        vertices, first entry is the origin).  Rows are copied; the
        recorded :class:`repro.core.results.TrajectoryArrays`, a
        ``list[list[int]]`` and any iterable of integer arrays are all
        accepted — array rows are converted to plain-int lists, so
        Cut & Paste always mutates Python lists.

    Notes
    -----
    The class maintains an endpoint index (vertex -> row) so Cut & Paste is
    ``O(tail length)`` per call.  Invariants checked on construction:
    non-empty rows and distinct endpoints (property (2)).
    """

    __slots__ = ("rows", "_endpoint_row")

    def __init__(self, rows: Iterable[Sequence[int]]):
        self.rows: list[list[int]] = [
            r.tolist() if hasattr(r, "tolist") else list(r)
            for r in rows
        ]
        if not self.rows:
            raise ValueError("block must have at least one row")
        if any(len(r) == 0 for r in self.rows):
            raise ValueError("all rows must be non-empty")
        self._endpoint_row: dict[int, int] = {}
        for i, r in enumerate(self.rows):
            e = r[-1]
            if e in self._endpoint_row:
                raise ValueError(
                    f"endpoints must be distinct (property (2)); vertex {e} "
                    f"ends rows {self._endpoint_row[e]} and {i}"
                )
            self._endpoint_row[e] = i

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows (= particles)."""
        return len(self.rows)

    def row_length(self, i: int) -> int:
        """``ρ_i`` — number of jumps of particle ``i``."""
        return len(self.rows[i]) - 1

    def row_lengths(self) -> list[int]:
        """All ``ρ_i``."""
        return [len(r) - 1 for r in self.rows]

    @property
    def total_length(self) -> int:
        """``m(L) = Σ ρ_i`` — total number of jumps recorded."""
        return sum(len(r) for r in self.rows) - len(self.rows)

    @property
    def max_row_length(self) -> int:
        """``max_i ρ_i`` — the dispersion time this block encodes."""
        return max(len(r) for r in self.rows) - 1

    def endpoints(self) -> list[int]:
        """Settling vertex of each particle."""
        return [r[-1] for r in self.rows]

    def endpoint_row(self, vertex: int) -> int:
        """Row index whose endpoint is ``vertex`` (KeyError if none)."""
        return self._endpoint_row[vertex]

    def copy(self) -> "Block":
        """Deep copy."""
        return Block(self.rows)

    def visit_multiset(self) -> dict[int, int]:
        """Vertex -> number of cells containing it (coupling invariant)."""
        counts: dict[int, int] = {}
        for r in self.rows:
            for v in r:
                counts[v] = counts.get(v, 0) + 1
        return counts

    def arc_multiset(self) -> dict[tuple[int, int], int]:
        """Directed arc -> traversal count.  Cut & Paste preserves this."""
        counts: dict[tuple[int, int], int] = {}
        for r in self.rows:
            for a, b in zip(r[:-1], r[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
        return counts

    # ------------------------------------------------------------------
    def cut_paste(self, i: int, t: int) -> None:
        """Apply ``CP_(i,t)`` in place.

        Cuts cells ``(i, t+1..ρ_i)`` and pastes them after the unique row
        ``k`` whose endpoint equals ``rows[i][t]``.  When ``t = ρ_i`` (the
        cell is already an endpoint) the transform is the identity.
        """
        row = self.rows[i]
        if not 0 <= t < len(row):
            raise IndexError(f"cell ({i}, {t}) not in block")
        if t == len(row) - 1:
            return  # identity: cutting an empty tail
        vtx = row[t]
        k = self._endpoint_row[vtx]
        if k == i:
            # vtx is row i's own endpoint: cutting the tail and pasting it
            # back after (i, ρ_i) reattaches it where it was — identity.
            return
        tail = row[t + 1 :]
        del row[t + 1 :]
        self.rows[k].extend(tail)
        # Row k's endpoint becomes the cut tail's last vertex; row i's
        # endpoint becomes vtx.
        self._endpoint_row[tail[-1]] = k
        self._endpoint_row[vtx] = i

    # ------------------------------------------------------------------
    def check_paths(self, g: Graph, origin: int) -> None:
        """Raise unless every row is a walk in ``g`` starting at ``origin``."""
        for i, r in enumerate(self.rows):
            if r[0] != origin:
                raise ValueError(f"row {i} starts at {r[0]}, expected origin {origin}")
            for a, b in zip(r[:-1], r[1:]):
                if a == b:
                    # lazy (hold) steps are recorded as repeats; legal when
                    # the walk is lazy — callers validating simple-walk
                    # blocks use strict=True paths via g.has_edge.
                    continue
                if not g.has_edge(a, b):
                    raise ValueError(f"row {i} uses non-edge ({a}, {b})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(n={self.n}, total_length={self.total_length})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):  # mutable container
        raise TypeError("Block is mutable and unhashable")


# ----------------------------------------------------------------------
# validity predicates (paper properties (3) and (4))
# ----------------------------------------------------------------------

def _endpoints_cover(block: Block) -> bool:
    eps = block.endpoints()
    return len(set(eps)) == len(eps)


def is_valid_sequential_block(
    block: Block, g: Graph | None = None, origin: int | None = None
) -> bool:
    """Property (3): in row-major reading order, each vertex's first
    occurrence is the final cell of its row.

    Optionally also checks rows are walks in ``g`` from ``origin``.
    """
    if g is not None and origin is not None:
        try:
            block.check_paths(g, origin)
        except ValueError:
            return False
    if not _endpoints_cover(block):
        return False
    seen: set[int] = set()
    for r in block.rows:
        for t, v in enumerate(r):
            if v not in seen:
                seen.add(v)
                if t != len(r) - 1:
                    return False
    return True


def is_valid_parallel_block(
    block: Block, g: Graph | None = None, origin: int | None = None
) -> bool:
    """Property (4): in column-major reading order, each vertex's first
    occurrence is the final cell of its row.
    """
    if g is not None and origin is not None:
        try:
            block.check_paths(g, origin)
        except ValueError:
            return False
    if not _endpoints_cover(block):
        return False
    seen: set[int] = set()
    max_len = max(len(r) for r in block.rows)
    for t in range(max_len):
        for r in block.rows:
            if t >= len(r):
                continue
            v = r[t]
            if v not in seen:
                seen.add(v)
                if t != len(r) - 1:
                    return False
    return True


def is_valid_uniform_block(block: Block, schedule: Sequence[int]) -> bool:
    """Validity for an R-uniform block under the head-reading model.

    ``schedule[t]`` is the row whose read-head advances at tick ``t + 1``
    (tick 0 reads every row's cell 0 in row order).  The block is valid if,
    reading cells in that order, the first occurrence of each vertex is the
    final cell of its row, every cell is eventually read, and endpoints are
    distinct.
    """
    if not _endpoints_cover(block):
        return False
    seen: set[int] = set()
    heads = [0] * block.n
    # tick 0: all cells (i, 0)
    for i, r in enumerate(block.rows):
        v = r[0]
        heads[i] = 1
        if v not in seen:
            seen.add(v)
            if len(r) != 1:
                return False
    for i in schedule:
        if not 0 <= i < block.n:
            return False
        r = block.rows[i]
        if heads[i] >= len(r):
            continue  # settled particle: no-op tick
        v = r[heads[i]]
        heads[i] += 1
        if v not in seen:
            seen.add(v)
            if heads[i] != len(r):
                return False
    return all(h == len(r) for h, r in zip(heads, block.rows))
