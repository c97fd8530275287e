"""Result container shared by every dispersion-process driver."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import Block
from repro.core.trajectory import TrajectoryArrays

__all__ = ["DispersionResult", "ShardResults"]


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
        :class:`~repro.core.trajectory.TrajectoryArrays` when the driver
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
