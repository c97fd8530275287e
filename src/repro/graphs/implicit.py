"""Implicit Table-1 graph families: adjacency by arithmetic, not arrays.

CSR materialisation costs ``O(n + m)`` memory before the first walk step,
which caps the reachable scale well below the asymptotic regime the paper
argues about (``n -> oo`` dispersion of cycles, grids, tori, hypercubes,
trees).  The structured families have so much symmetry that adjacency
never needs storing: slot ``k`` of vertex ``v`` is a closed-form function
of ``(v, k)``.  This module provides :class:`ImplicitGraph` subclasses
whose ``neighbor_slots(positions, offsets)`` kernel computes that function
vectorised over walker arrays, so the resident graph footprint is ``O(1)``
in ``m`` and million-to-hundred-million-vertex runs become possible.

The slot-ordering contract
--------------------------
Every driver in the library consumes uniforms as ``off = floor(u * deg)``
and steps to *slot* ``off`` — so two graph builds produce bit-identical
walks iff their slot orderings agree exactly.  Each implicit kernel here
reproduces the precise slot order of its materialising generator (which is
fixed by :meth:`Graph.from_edges`'s stable sort over ``src = [forward
endpoints..., reverse endpoints...]``, or by the generator's direct CSR
construction).  That contract is pinned slot-for-slot by
``tests/test_graphs_implicit.py`` and end-to-end by the differential
driver harness; it is what makes "implicit vs CSR" a pure memory/perf
decision with zero RNG consequences.

Derived orderings (``slots[v][k]`` for ``k = 0..deg(v)-1``):

* cycle:      ``[(v+1) % n, (v-1) % n]``
* path:       ``[1]`` at 0, ``[n-2]`` at ``n-1``, else ``[v+1, v-1]``
* complete:   ascending ``0..n-1`` minus ``v`` (slot ``k`` is ``k`` if
  ``k < v`` else ``k+1``)
* grid:       forward axes in axis order (where ``coord < side-1``), then
  backward axes in axis order (where ``coord > 0``)
* torus:      forward wraps for every active axis (side >= 3) in axis
  order, then backward wraps in axis order
* hypercube:  clear bits ascending (``v | bit``), then set bits ascending
  (``v ^ bit``)
* btree:      ``[2v+1, 2v+2]`` while in range, then parent ``(v-1) // 2``

All families implement the full read-only :class:`Graph` protocol used by
the drivers and the runner (``n``, ``degrees``, ``num_edges``, ``name``,
``is_regular`` ...); regular families expose a zero-storage broadcast
degree vector and O(1) regularity predicates.  ``materialize()`` builds
the CSR twin (for spectral/Markov code that genuinely needs matrices), and
``descriptor()`` returns the picklable ``(family, params)`` spec that
:mod:`repro.experiments.fanout` ships to workers instead of a
shared-memory segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.graphs.csr import check_spec_counts

__all__ = [
    "ImplicitGraph",
    "ImplicitGraphSpec",
    "implicit_graph",
    "from_descriptor",
    "ImplicitCycle",
    "ImplicitPath",
    "ImplicitComplete",
    "ImplicitGrid",
    "ImplicitTorus",
    "ImplicitHypercube",
    "ImplicitBinaryTree",
]


class LazyAdjacency:
    """Sequence view satisfying the scalar driver pattern ``adj[v] -> list``.

    The serial drivers and the batched tail finishers index adjacency as
    ``nbrs = adj[v]; nbrs[int(u * len(nbrs))]``.  For implicit graphs this
    object computes each neighbour list on demand from the kernel, keeping
    the O(1)-in-``m`` memory guarantee while staying slot-order (hence
    bit-) identical to ``Graph.adjacency_lists()``.
    """

    __slots__ = ("_g",)

    def __init__(self, g: "ImplicitGraph"):
        self._g = g

    def __len__(self) -> int:
        return self._g.n

    def __getitem__(self, v: int) -> list[int]:
        return self._g.neighbors(v).tolist()


@dataclass(frozen=True)
class ImplicitGraphSpec:
    """Picklable fan-out descriptor: rebuild the family, not the arrays.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec is
    hashable; ``n`` and ``name`` ride along for cheap validation on the
    worker side (see :func:`from_descriptor`).
    """

    family: str
    params: tuple[tuple[str, object], ...]
    n: int
    name: str


def from_descriptor(spec: ImplicitGraphSpec) -> "ImplicitGraph":
    """Reconstruct an implicit graph from its fan-out descriptor.

    Validation mirrors :meth:`Graph.from_shared` via the shared
    :func:`repro.graphs.csr.check_spec_counts` helper, then cross-checks
    that the rebuilt family matches the exporting side's ``n``/``name``.
    """
    check_spec_counts(spec.n)
    g = implicit_graph(spec.family, **dict(spec.params))
    if g.n != spec.n or g.name != spec.name:
        raise ValueError(
            f"descriptor mismatch: rebuilt {g.name!r} (n={g.n}) from spec "
            f"for {spec.name!r} (n={spec.n})"
        )
    return g


class ImplicitGraph:
    """Base class: the Graph protocol computed from ``(family, params)``.

    Subclasses implement ``_slots(positions, offsets)`` (the arithmetic
    kernel), set ``_const_degree`` (or override :meth:`_degree_array` for
    non-regular families), and provide ``num_edges``/``params``.
    """

    family = "implicit"

    def __init__(self, n: int, name: str, const_degree: int | None):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self._n = int(n)
        self.name = name
        self._const_degree = const_degree
        self._degrees_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # the neighbour kernel
    # ------------------------------------------------------------------
    def neighbor_slots(
        self,
        positions: np.ndarray,
        offsets: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Adjacency slot ``offsets[i]`` of vertex ``positions[i]``, computed
        arithmetically; same contract as :meth:`Graph.neighbor_slots`.

        The result is always assembled in a fresh array before any write to
        ``out``, so ``out=positions`` aliasing is safe (the drivers rely on
        in-place stepping).
        """
        positions = np.asarray(positions, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        result = self._slots(positions, offsets)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def _slots(self, positions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Graph protocol: sizes and degrees
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_vertices(self) -> int:
        """Alias for :attr:`n`."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (closed form per family)."""
        raise NotImplementedError

    @property
    def degrees(self) -> np.ndarray:
        """Walk-degree vector.

        Regular families return a read-only stride-0 broadcast of the
        constant — ``degrees[pos]`` gathers still work, but no ``O(n)``
        array ever exists.  Non-regular families materialise ``O(n)``
        int64 once (still independent of ``m``).
        """
        if self._degrees_cache is None:
            if self._const_degree is not None:
                self._degrees_cache = np.broadcast_to(
                    np.int64(self._const_degree), (self._n,)
                )
            else:
                d = self._degree_array()
                d.setflags(write=False)
                self._degrees_cache = d
        return self._degrees_cache

    def _degree_array(self) -> np.ndarray:
        raise NotImplementedError

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range for n={self._n}")
        if self._const_degree is not None:
            return self._const_degree
        return int(self.degrees[v])

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ(G) — O(1) for regular families."""
        if self._const_degree is not None:
            return self._const_degree
        return int(self.degrees.max())

    @property
    def min_degree(self) -> int:
        """Minimum degree δ(G) — O(1) for regular families."""
        if self._const_degree is not None:
            return self._const_degree
        return int(self.degrees.min())

    def is_regular(self) -> bool:
        """True if every vertex has the same degree (O(1) when constant)."""
        if self._const_degree is not None:
            return True
        return self.min_degree == self.max_degree

    def is_almost_regular(self, ratio: float = 4.0) -> bool:
        """Paper §2: Δ(G)/δ(G) bounded by a constant (default 4)."""
        return self.max_degree <= ratio * self.min_degree

    # ------------------------------------------------------------------
    # Graph protocol: adjacency access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour array of ``v`` in slot order (freshly computed)."""
        v = int(v)
        d = self.degree(v)  # also range-checks v
        if d == 0:
            return np.empty(0, dtype=np.int64)
        return self._slots(np.full(d, v, dtype=np.int64), np.arange(d, dtype=np.int64))

    def has_edge(self, u: int, v: int) -> bool:
        """True if at least one ``{u, v}`` edge exists."""
        return bool(np.any(self.neighbors(u) == v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each (u < v), with multiplicity."""
        for u in range(self._n):
            for v in self.neighbors(u):
                v = int(v)
                if v > u:
                    yield (u, v)

    def adjacency_lists(self) -> LazyAdjacency:
        """On-demand ``adj[v] -> list`` view (see :class:`LazyAdjacency`)."""
        return LazyAdjacency(self)

    # ------------------------------------------------------------------
    # conversion and fan-out
    # ------------------------------------------------------------------
    @property
    def params(self) -> dict:
        """Constructor parameters (picklable) identifying this instance."""
        raise NotImplementedError

    def descriptor(self) -> ImplicitGraphSpec:
        """The ``(family, params)`` spec :mod:`fanout` ships to workers."""
        return ImplicitGraphSpec(
            family=self.family,
            params=tuple(sorted(self.params.items())),
            n=self._n,
            name=self.name,
        )

    def materialize(self):
        """Build the CSR twin via the materialising generator.

        Costs the full ``O(n + m)`` the implicit build avoids; needed only
        by matrix-based consumers (spectral bounds, Markov transition
        matrices).  Slot-for-slot equal to this graph by the module
        contract.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, n={self._n}, "
            f"m={self.num_edges})"
        )


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
class ImplicitCycle(ImplicitGraph):
    """Cycle ``C_n``: slot 0 is ``(v+1) % n``, slot 1 is ``(v-1) % n``."""

    family = "cycle"

    def __init__(self, n: int):
        n = int(n)
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        super().__init__(n, f"cycle-{n}", const_degree=2)

    def _slots(self, positions, offsets):
        n = self._n
        return np.where(offsets == 0, positions + 1, positions - 1) % n

    @property
    def num_edges(self) -> int:
        return self._n

    @property
    def params(self) -> dict:
        return {"n": self._n}

    def materialize(self):
        from repro.graphs.generators.basic import cycle_graph

        return cycle_graph(self._n)


class ImplicitPath(ImplicitGraph):
    """Path ``P_n``: endpoints have one slot, interior ``[v+1, v-1]``."""

    family = "path"

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        # P1 (degree 0) and P2 (degree 1) are the regular edge cases.
        const = {1: 0, 2: 1}.get(n)
        super().__init__(n, f"path-{n}", const_degree=const)

    def _slots(self, positions, offsets):
        fwd = np.where(positions == self._n - 1, positions - 1, positions + 1)
        return np.where(offsets == 0, fwd, positions - 1)

    def _degree_array(self):
        d = np.full(self._n, 2, dtype=np.int64)
        d[0] = d[-1] = 1
        return d

    @property
    def num_edges(self) -> int:
        return self._n - 1

    @property
    def params(self) -> dict:
        return {"n": self._n}

    def materialize(self):
        from repro.graphs.generators.basic import path_graph

        return path_graph(self._n)


class ImplicitComplete(ImplicitGraph):
    """Complete graph ``K_n``: slot ``k`` of ``v`` is ``k + (k >= v)``."""

    family = "complete"

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        super().__init__(n, f"complete-{n}", const_degree=n - 1)

    def _slots(self, positions, offsets):
        return offsets + (offsets >= positions)

    @property
    def num_edges(self) -> int:
        return self._n * (self._n - 1) // 2

    @property
    def params(self) -> dict:
        return {"n": self._n}

    def materialize(self):
        from repro.graphs.generators.basic import complete_graph

        return complete_graph(self._n)


def _validate_sides(sides) -> tuple[int, ...]:
    sides = tuple(int(s) for s in sides)
    if not sides:
        raise ValueError("sides must be non-empty")
    if any(s < 1 for s in sides):
        raise ValueError(f"all sides must be >= 1, got {sides}")
    return sides


def _strides(sides: tuple[int, ...]) -> list[int]:
    """Row-major strides: vertex id = sum(coord[k] * stride[k])."""
    strides = [1] * len(sides)
    for k in range(len(sides) - 2, -1, -1):
        strides[k] = strides[k + 1] * sides[k + 1]
    return strides


class ImplicitGrid(ImplicitGraph):
    """Finite box grid: forward axes in order, then backward axes in order.

    Slot ``k`` is resolved by a countdown over the per-axis *active*
    conditions (``coord < side-1`` forward, ``coord > 0`` backward): each
    pass claims the walkers whose remaining slot count hits zero, in
    ``2 d`` vectorised passes total.
    """

    family = "grid"

    def __init__(self, *sides: int):
        sides = _validate_sides(sides)
        n = 1
        for s in sides:
            n *= s
        # Regular iff no axis mixes boundary and interior coords: sides of
        # 1 contribute 0 slots everywhere, sides of 2 exactly 1 slot.
        const = sum(1 for s in sides if s == 2) if all(s <= 2 for s in sides) else None
        label = "x".join(str(s) for s in sides)
        super().__init__(n, f"grid-{label}", const_degree=const)
        self.sides = sides
        self._axis_strides = _strides(sides)

    def _slots(self, positions, offsets):
        result = np.empty_like(positions)
        remaining = offsets.copy()  # claimed walkers go negative for good
        for direction in (+1, -1):
            for stride, s in zip(self._axis_strides, self.sides):
                coord = (positions // stride) % s
                active = coord < s - 1 if direction > 0 else coord > 0
                hit = active & (remaining == 0)
                if hit.any():
                    result[hit] = positions[hit] + direction * stride
                remaining -= active
        return result

    def _degree_array(self):
        d = np.zeros(self._n, dtype=np.int64)
        ids = np.arange(self._n, dtype=np.int64)
        for stride, s in zip(self._axis_strides, self.sides):
            coord = (ids // stride) % s
            d += coord < s - 1
            d += coord > 0
        return d

    @property
    def num_edges(self) -> int:
        return sum((self._n // s) * (s - 1) for s in self.sides)

    @property
    def params(self) -> dict:
        return {"sides": self.sides}

    def materialize(self):
        from repro.graphs.generators.grids import grid_graph

        return grid_graph(*self.sides)


class ImplicitTorus(ImplicitGraph):
    """Torus: forward wraps for active axes in order, then backward wraps.

    Axes of side 1 are inactive (contribute no edges); side 2 is rejected
    exactly like the materialising generator (wrap-around would duplicate
    the edge).  Every vertex has ``2 * (number of active axes)`` slots, so
    slot ``k`` addresses axis ``k mod a`` directly — no countdown needed.
    """

    family = "torus"

    def __init__(self, *sides: int):
        sides = _validate_sides(sides)
        if any(s == 2 for s in sides):
            raise ValueError(
                "torus sides must be 1 or >= 3 (side 2 duplicates edges)"
            )
        n = 1
        for s in sides:
            n *= s
        label = "x".join(str(s) for s in sides)
        strides = _strides(sides)
        active = [(st, s) for st, s in zip(strides, sides) if s >= 3]
        super().__init__(n, f"torus-{label}", const_degree=2 * len(active))
        self.sides = sides
        self._active = active

    def _slots(self, positions, offsets):
        result = np.empty_like(positions)
        a = len(self._active)
        for j, (stride, s) in enumerate(self._active):
            for direction, slot in ((+1, j), (-1, a + j)):
                hit = offsets == slot
                if hit.any():
                    p = positions[hit]
                    coord = (p // stride) % s
                    if direction > 0:
                        delta = np.where(coord == s - 1, 1 - s, 1)
                    else:
                        delta = np.where(coord == 0, s - 1, -1)
                    result[hit] = p + delta * stride
        return result

    @property
    def num_edges(self) -> int:
        return len(self._active) * self._n

    @property
    def params(self) -> dict:
        return {"sides": self.sides}

    def materialize(self):
        from repro.graphs.generators.grids import torus_graph

        return torus_graph(*self.sides)


class ImplicitHypercube(ImplicitGraph):
    """Boolean hypercube: clear bits ascending, then set bits ascending."""

    family = "hypercube"

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        super().__init__(1 << dim, f"hypercube-{dim}", const_degree=dim)
        self.dim = dim
        self._bits = np.int64(1) << np.arange(dim, dtype=np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        # Single-vertex fast path: the generic _slots pass structure costs
        # ~2·dim masked array ops per call, which dominates the scalar
        # tail finisher at full dispersion (one neighbors() per walk
        # step).  Slot order is clear bits ascending then set bits
        # ascending — expressible with one mask over the bit table.
        v = int(v)
        self.degree(v)  # range-checks v
        clear = (v & self._bits) == 0
        return np.concatenate((v ^ self._bits[clear], v ^ self._bits[~clear]))

    def _slots(self, positions, offsets):
        result = np.empty_like(positions)
        remaining = offsets.copy()
        # Pass 1: clear bits ascending (edges v -> v | bit from from_edges'
        # forward arcs); pass 2: set bits ascending (the reverse arcs).
        for want_clear in (True, False):
            for b in range(self.dim):
                bit = np.int64(1 << b)
                is_clear = (positions & bit) == 0
                active = is_clear if want_clear else ~is_clear
                hit = active & (remaining == 0)
                if hit.any():
                    result[hit] = positions[hit] ^ bit
                remaining -= active
        return result

    @property
    def num_edges(self) -> int:
        return self.dim * self._n // 2

    @property
    def params(self) -> dict:
        return {"dim": self.dim}

    def materialize(self):
        from repro.graphs.generators.grids import hypercube_graph

        return hypercube_graph(self.dim)


class ImplicitBinaryTree(ImplicitGraph):
    """Complete binary tree in heap order: children first, then parent."""

    family = "btree"

    def __init__(self, height: int):
        height = int(height)
        if height < 0:
            raise ValueError(f"height must be >= 0, got {height}")
        n = (1 << (height + 1)) - 1
        super().__init__(n, f"btree-h{height}", const_degree=0 if n == 1 else None)
        self.height = height

    def _slots(self, positions, offsets):
        half = (self._n - 1) // 2  # vertices below this id have children
        child = (positions < half) & (offsets < 2)
        result = (positions - 1) >> 1  # parent slot (the final slot)
        return np.where(child, 2 * positions + 1 + offsets, result)

    def _degree_array(self):
        n = self._n
        d = np.ones(n, dtype=np.int64)  # leaves
        d[: (n - 1) // 2] = 3  # internal: two children + parent
        d[0] = 2  # root has no parent (n >= 3 whenever non-const)
        return d

    @property
    def num_edges(self) -> int:
        return self._n - 1

    @property
    def params(self) -> dict:
        return {"height": self.height}

    def materialize(self):
        from repro.graphs.generators.trees import complete_binary_tree

        return complete_binary_tree(self.height)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def _hypercube_factory(*, dim: int | None = None, n: int | None = None):
    if (dim is None) == (n is None):
        raise ValueError("hypercube takes exactly one of dim= or n=")
    if dim is None:
        n = int(n)
        if n < 2 or n & (n - 1):
            raise ValueError(
                f"hypercube needs n a power of two >= 2, got n={n}"
            )
        dim = n.bit_length() - 1
    return ImplicitHypercube(dim)


def _btree_factory(*, height: int | None = None, n: int | None = None):
    if (height is None) == (n is None):
        raise ValueError("btree takes exactly one of height= or n=")
    if height is None:
        n = int(n)
        if n < 1 or n & (n + 1):
            raise ValueError(
                "complete binary tree needs n = 2^(h+1) - 1 "
                f"(a balanced size), got unbalanced n={n}"
            )
        height = (n + 1).bit_length() - 2
    return ImplicitBinaryTree(height)


IMPLICIT_FAMILIES = {
    "cycle": lambda *, n: ImplicitCycle(n),
    "path": lambda *, n: ImplicitPath(n),
    "complete": lambda *, n: ImplicitComplete(n),
    "grid": lambda *, sides: ImplicitGrid(*sides),
    "torus": lambda *, sides: ImplicitTorus(*sides),
    "hypercube": _hypercube_factory,
    "btree": _btree_factory,
}


def implicit_graph(family: str, **params) -> ImplicitGraph:
    """Build an implicit family by name: ``implicit_graph("cycle", n=10**6)``.

    ``hypercube`` accepts ``dim=`` or ``n=`` (power of two); ``btree``
    accepts ``height=`` or ``n=`` (must be ``2^(h+1) - 1``); ``grid`` and
    ``torus`` take ``sides=`` (an iterable of side lengths).  This is also
    the reconstruction entry point for fan-out descriptors.
    """
    try:
        factory = IMPLICIT_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown implicit family {family!r}; available: "
            f"{sorted(IMPLICIT_FAMILIES)}"
        ) from None
    return factory(**params)
