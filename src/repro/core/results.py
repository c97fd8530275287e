"""Result containers shared by every dispersion-process driver, and the
one shape of a recorded run's trajectories (:class:`TrajectoryArrays`)."""

from __future__ import annotations

import contextlib
import gc
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import Block

__all__ = ["DispersionResult", "ShardResults", "TrajectoryArrays"]


@contextlib.contextmanager
def _gc_paused():
    """Pause garbage collection around bulk Python-list materialisation.

    Listing a big run creates hundreds of millions of ints and lists;
    none of them can participate in a reference cycle, but every
    generational collection the allocations trigger still scans the
    ever-growing heap — a quadratic tax on a pass that should be linear.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TrajectoryArrays:
    """One repetition's trajectories as a ragged array pair, zero-copy rows.

    The shape ``record=True`` returns on every route: one flat ``int32``
    vertex array plus an ``(m + 1,)`` ``int64`` offset array, with
    :meth:`row` returning a **view** (no copy, no Python ints) of
    particle ``p``'s vertex sequence.  Indexing follows a list's rules:
    negative indices wrap, an out-of-range index raises ``IndexError``
    and a slice returns the selected rows as a new container.
    :meth:`to_lists` builds the ``list[list[int]]`` shape for callers
    that need mutable rows.

    Equality is by content against either another :class:`TrajectoryArrays`
    or the ``list[list[int]]`` shape (``lists == arrays`` also works —
    Python's reflected ``__eq__`` lands here).
    :class:`repro.core.blocks.Block` accepts either shape as rows.
    """

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets: np.ndarray, flat: np.ndarray):
        self.offsets = offsets
        self.flat = flat

    @classmethod
    def from_lists(cls, rows) -> TrajectoryArrays:
        """Seal a ``list[list[int]]`` (the serial drivers' walk-time shape)."""
        lens = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        flat = np.fromiter(
            itertools.chain.from_iterable(rows),
            dtype=np.int32,
            count=int(offsets[-1]),
        )
        return cls(offsets, flat)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def row(self, p: int) -> np.ndarray:
        """Particle ``p``'s vertex sequence — a zero-copy view."""
        return self.flat[self.offsets[p] : self.offsets[p + 1]]

    def __getitem__(self, key):
        if isinstance(key, slice):
            picked = np.arange(len(self), dtype=np.int64)[key]
            first = self.offsets[picked]
            lens = self.offsets[picked + 1] - first
            offsets = np.zeros(picked.size + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            shift = np.repeat(first - offsets[:-1], lens)
            return TrajectoryArrays(
                offsets, self.flat[shift + np.arange(offsets[-1])]
            )
        p = operator.index(key)
        if p < 0:
            p += len(self)
        if not 0 <= p < len(self):
            raise IndexError(f"row {key} out of range for {len(self)} rows")
        return self.row(p)

    def __iter__(self):
        for p in range(len(self)):
            yield self.row(p)

    def to_lists(self) -> list[list[int]]:
        """The ``list[list[int]]`` shape: one Python int per vertex."""
        with _gc_paused():
            return [self.row(p).tolist() for p in range(len(self))]

    def __eq__(self, other):
        if isinstance(other, TrajectoryArrays):
            return np.array_equal(self.offsets, other.offsets) and np.array_equal(
                self.flat, other.flat
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return all(
                self.row(p).tolist() == list(other[p]) for p in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # mutable array content

    def __repr__(self) -> str:
        return (
            f"TrajectoryArrays(particles={len(self)}, "
            f"events={self.flat.size})"
        )



@dataclass(frozen=True)
class DispersionResult:
    """Outcome of one dispersion-process realisation.

    Attributes
    ----------
    process:
        ``"sequential"``, ``"parallel"``, ``"uniform"``, ``"ctu"`` …
    graph_name, n, origin:
        Identification of the instance.
    dispersion_time:
        The paper's ``τ``: maximum number of steps performed by any
        particle (an ``int`` for discrete processes; a ``float`` wall-clock
        for continuous-time ones).
    total_steps:
        ``Σ_i steps_i`` — equidistributed across scheduling protocols
        (Theorem 4.1), making it the key coupling diagnostic.
    steps:
        Per-particle jump counts, shape ``(n,)``; ``steps[0] == 0`` (the
        origin particle settles instantly).
    settled_at:
        ``settled_at[i]`` is the vertex where particle ``i`` settled — a
        permutation of ``V``.
    settle_order:
        Particle indices in order of settlement (ties resolved by the
        process's own rule).
    ticks:
        Scheduling-clock duration where it differs from ``dispersion_time``
        (Uniform-IDLA ticks, CTU continuous time); ``None`` otherwise.
    trajectories:
        Full per-particle vertex sequences as
        :class:`~repro.core.results.TrajectoryArrays` when the driver
        was called with ``record=True``, ``None`` otherwise.  It compares
        equal by content to the ``list[list[int]]`` shape; call
        ``to_lists()`` for mutable rows.
    num_particles:
        Number of particles ``m`` (§6.2 variant); ``None`` means the
        classic ``m = n``.  With ``m > n`` (Parallel-IDLA only) the
        particles that never settle carry ``settled_at = -1``.
    """

    process: str
    graph_name: str
    n: int
    origin: int
    dispersion_time: float
    total_steps: int
    steps: np.ndarray
    settled_at: np.ndarray
    settle_order: np.ndarray
    ticks: float | None = None
    trajectories: TrajectoryArrays | None = field(
        default=None, repr=False
    )
    num_particles: int | None = None

    @property
    def m(self) -> int:
        """Particle count (defaults to ``n``)."""
        return self.n if self.num_particles is None else self.num_particles

    def __post_init__(self):
        if self.steps.shape != (self.m,):
            raise ValueError(f"steps must have shape ({self.m},)")
        if self.settled_at.shape != (self.m,):
            raise ValueError(f"settled_at must have shape ({self.m},)")

    def block(self) -> Block:
        """Block representation (requires ``record=True`` at simulation time)."""
        if self.trajectories is None:
            raise ValueError(
                "trajectories were not recorded; rerun the driver with record=True"
            )
        return Block(self.trajectories)

    def trajectory_arrays(self) -> TrajectoryArrays:
        """The recorded :attr:`trajectories`; raises when there are none."""
        if self.trajectories is None:
            raise ValueError(
                "trajectories were not recorded; rerun the driver with record=True"
            )
        return self.trajectories

    def is_complete_dispersion(self) -> bool:
        """Settlement is as complete as ``m`` vs ``n`` allows.

        ``m = n``: every vertex settled exactly once.  ``m < n``: all ``m``
        particles settled, at distinct vertices.  ``m > n``: every vertex
        occupied; exactly ``n`` particles settled.
        """
        settled = self.settled_at[self.settled_at >= 0]
        expected = min(self.m, self.n)
        return settled.size == expected and np.unique(settled).size == expected

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.process} IDLA on {self.graph_name} (n={self.n}, origin="
            f"{self.origin}): dispersion={self.dispersion_time:g}, "
            f"total_steps={self.total_steps}"
        )


class ShardResults(Sequence):
    """The results of a shard of ``R`` repetitions, kept as columns.

    What the runner reads of a shard is :attr:`samples` (each
    repetition's dispersion time, ``float64``), :attr:`total_samples`
    (its total steps, ``int64``), :attr:`trajectories` and
    :attr:`schedules` (a list, or ``None`` when not recorded): one
    column each, with no per-repetition object.  Indexing builds
    repetition ``r``'s :class:`DispersionResult`, which keeps views of
    row ``r`` of the ``(R, m)`` columns; ``extras`` name further
    per-repetition attributes (a row or entry each) that the result
    carries, as the serial drivers attach them.
    """

    __slots__ = (
        "process", "graph_name", "n", "num_particles", "origins", "dispersion",
        "samples", "total_samples", "steps", "settled_at", "settle_orders",
        "ticks", "trajectories", "extras",
    )

    def __init__(
        self, process, graph_name, n, num_particles, origins, dispersion,
        total_steps, steps, settled_at, settle_orders, ticks, trajectories,
        extras,
    ):
        self.process = process
        self.graph_name = graph_name
        self.n = n
        self.num_particles = num_particles
        self.origins = np.asarray(origins)
        self.dispersion = np.asarray(dispersion)
        self.samples = self.dispersion.astype(np.float64)
        self.total_samples = total_steps
        self.steps = steps
        self.settled_at = settled_at
        self.settle_orders = settle_orders
        self.ticks = ticks
        self.trajectories = trajectories
        self.extras = extras

    @property
    def schedules(self):
        """Each repetition's realised schedule, or ``None``."""
        return self.extras.get("schedule")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[i] for i in range(*r.indices(len(self)))]
        r = range(len(self))[r]
        traj = self.trajectories
        result = DispersionResult(
            process=self.process,
            graph_name=self.graph_name,
            n=self.n,
            origin=self.origins[r].item(),
            dispersion_time=self.dispersion[r].item(),
            total_steps=self.total_samples[r].item(),
            steps=self.steps[r],
            settled_at=self.settled_at[r],
            settle_order=self.settle_orders[r],
            ticks=None if self.ticks is None else float(self.ticks[r]),
            trajectories=None if traj is None else traj[r],
            num_particles=self.num_particles,
        )
        for attr, rows in self.extras.items():
            # frozen dataclass: attach like the serial drivers do
            object.__setattr__(result, attr, rows[r])
        return result
