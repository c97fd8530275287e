"""Uniform-IDLA driver (§4.2).

At each tick an unsettled particle is chosen and takes one step, settling
if the vertex it reaches is vacant.  The paper's schedule ``R`` draws
``R_t`` uniformly from *all* particles ``{1, …, n-1}`` (particle 0 sits at
the origin); ticks that pick an already-settled particle are wasted.  Two
equivalent simulation modes are provided:

* ``faithful_r=True`` — draw the literal i.i.d. schedule (needed by the
  PtU_R bijection tests; returns the realised ``R``);
* ``faithful_r=False`` (default) — pick uniformly among *unsettled*
  particles and recover the wasted-tick count distributionally, which is
  exact because conditioned on hitting an unsettled particle the choice
  is uniform among them.

Both modes report per-particle jump counts (Theorem 4.7's quantity —
stochastically dominated by the Parallel-IDLA longest walk) and the tick
clock in ``result.ticks``.

Draw contract
-------------
The walk is :func:`jump_chain`, shared with
:func:`repro.core.continuous.ctu_idla`: every tick consumes two uniform
doubles from one block-buffered :class:`repro.utils.rng.UniformStream`,

1. the scheduler pick — pool slot ``min(int(u·k), k-1)`` (or particle
   ``1 + min(int(u·(m-1)), m-2)`` in ``faithful_r`` mode, one draw per
   tick even when wasted);
2. the walk step — neighbour ``min(int(u·deg), deg-1)``.

In the default mode the wasted ticks are then drawn per level, after the
chain and from the same generator (which the stream has left at its
last block boundary): while ``k`` particles are unsettled, each useful
tick follows ``Geometric(k/(m-1))`` attempts, so the ``J_k`` useful ticks
of level ``k`` waste ``NegBin(J_k, k/(m-1))`` ticks in all — one
``Generator.negative_binomial`` draw per level ``k < m-1``, from the
first level down.  A ``max_ticks`` cap raises exactly when the final
tick count exceeds it (the chain stops early once its useful ticks do).

:func:`repro.core.batched_continuous.batched_uniform_idla` and the
compiled route (:mod:`repro.core.route`) replay these draws bit for bit;
this serial driver is the reference oracle they are tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.settlement import UnsettledPool, settle_vacant_starts_inorder
from repro.graphs.csr import Graph
from repro.utils.rng import UniformStream, as_generator
from repro.utils.validation import check_integer, check_limit, check_record

__all__ = ["uniform_idla", "sample_schedule", "jump_chain", "level_jumps", "wasted_ticks"]

#: Fetch-block size of the driver's :class:`UniformStream`.  The chain's
#: doubles do not depend on it, but the wasted-tick draws start where the
#: stream's last fetch leaves the generator, so the compiled route and
#: the lock-step driver read it to land there too.  A ``faithful_r``
#: result never depends on it.  A module constant so tests can vary it.
_BLOCK = 16384


def sample_schedule(n: int, length: int, seed=None) -> np.ndarray:
    """i.i.d. uniform schedule over particles ``1..n-1`` (paper's ``R``)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = as_generator(seed)
    return rng.integers(1, n, size=length, dtype=np.int64)


def jump_chain(g: Graph, starts, rng, *, block, record, budget, limit_msg,
               schedule=None):
    """The jump chain of Uniform-IDLA (and of CTU-IDLA, its
    continuous-time version) from the start vertices ``starts``.

    After the time-0 settlement, each tick picks an unsettled particle
    (or, with a ``schedule`` list, particle ``1 + min(int(u·(m-1)),
    m-2)`` of all of them, appended to it: a settled one wastes the tick)
    and steps it; it settles if the vertex it reaches is vacant.  Draws
    come from a :class:`UniformStream` of ``block`` doubles over ``rng``.
    A tick count past ``budget`` raises ``RuntimeError(limit_msg)``.

    Returns ``(steps, settled_at, settle_order, trajectories, ends,
    ticks)``: ``ends[i]`` is the tick at which the ``i``-th particle to
    walk settled, which ends the level of ``len(ends) - i`` unsettled
    particles, and ``ticks`` the ticks taken.
    """
    m = len(starts)
    adj = g.adjacency_lists()
    occupied = [False] * g.n
    steps = [0] * m
    settled_at = np.full(m, -1, dtype=np.int64)
    settle_order: list[int] = []
    pos = [int(v) for v in starts]
    trajectories: list[list[int]] | None = None
    if record:
        trajectories = [[int(v)] for v in starts]
    # round-0 settlement pass: vacant starts settle instantly, lowest
    # particle index first (classically: particle 0 takes the origin)
    pool = UnsettledPool(
        settle_vacant_starts_inorder(occupied, starts, settled_at, settle_order)
    )
    stream = UniformStream(rng, block=block)
    ends: list[int] = []
    ticks = 0
    k = len(pool)
    while k:
        ticks += 1
        if ticks > budget:
            raise RuntimeError(limit_msg)
        if schedule is None:
            i = int(stream.uniform() * k)
            if i == k:  # floating guard, mirrors the batched np.minimum
                i = k - 1
            p = pool.pick(i)
        else:
            p = 0
            if m > 1:
                s = int(stream.uniform() * (m - 1))
                p = 1 + min(s, m - 2)
            schedule.append(p)
            if settled_at[p] >= 0:
                continue  # wasted tick
        nbrs = adj[pos[p]]
        d = len(nbrs)
        j = int(stream.uniform() * d)
        if j == d:
            j = d - 1
        v = nbrs[j]
        pos[p] = v
        steps[p] += 1
        if record:
            trajectories[p].append(v)
        if not occupied[v]:
            occupied[v] = True
            settled_at[p] = v
            settle_order.append(p)
            ends.append(ticks)
            if schedule is None:
                pool.remove_at(i)
            k -= 1
    return (
        np.asarray(steps, dtype=np.int64), settled_at,
        np.asarray(settle_order, dtype=np.int64), trajectories, ends, ticks,
    )


def level_jumps(ends) -> tuple[np.ndarray, np.ndarray]:
    """The levels ``k`` of a chain, first to last, and the ticks ``J_k``
    each took, from :func:`jump_chain`'s ``ends``."""
    return np.arange(len(ends), 0, -1), np.diff(ends, prepend=0)


def wasted_ticks(rng, ends, m: int) -> int:
    """The wasted ticks of a default-mode chain of ``m`` particles with
    level ends ``ends``: ``NegBin(J_k, k/(m-1))`` for each level ``k <
    m-1``, from the first level down, drawn from ``rng``."""
    levels, jumps = level_jumps(ends)
    wasting = levels < m - 1
    if not wasting.any():
        return 0
    return int(rng.negative_binomial(jumps[wasting], levels[wasting] / (m - 1)).sum())


def uniform_idla(
    g: Graph,
    origin=0,
    *,
    seed=None,
    record: bool = False,
    faithful_r: bool = False,
    num_particles: int | None = None,
    max_ticks: float | None = None,
) -> DispersionResult:
    """Run one Uniform-IDLA realisation.

    Returns a :class:`DispersionResult` whose ``dispersion_time`` is the
    *longest-walk jump count* (the quantity of Theorem 4.7) and whose
    ``ticks`` attribute is the scheduling-clock duration (including wasted
    ticks on settled particles).  When ``faithful_r=True`` the realised
    schedule is stored as ``result.schedule`` — an extra attribute used by
    the bijection tests.

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> res = uniform_idla(complete_graph(12), seed=5)
    >>> res.is_complete_dispersion() and res.ticks >= res.total_steps
    True
    """
    n = g.n
    m = n if num_particles is None else check_integer("num_particles", num_particles)
    if not 1 <= m <= n:
        raise ValueError(
            f"uniform IDLA needs 1 <= num_particles <= n, got {m} (n={n})"
        )
    budget = check_limit("max_ticks", max_ticks)
    record = check_record(record)
    rng = as_generator(seed)
    starts = resolve_origins(g, origin, m, rng)
    limit_msg = f"uniform IDLA exceeded max_ticks={max_ticks}"
    schedule: list[int] | None = [] if faithful_r else None
    steps, settled_at, settle_order, trajectories, ends, ticks = jump_chain(
        g, starts, rng, block=_BLOCK, record=record, budget=budget,
        limit_msg=limit_msg, schedule=schedule,
    )
    if not faithful_r:
        ticks += wasted_ticks(rng, ends, m)
        if ticks > budget:
            raise RuntimeError(limit_msg)

    result = DispersionResult(
        process="uniform",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=int(steps.max()),
        total_steps=int(steps.sum()),
        steps=steps,
        settled_at=settled_at,
        settle_order=settle_order,
        ticks=float(ticks),
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
    if faithful_r:
        # DispersionResult is frozen; attach via object.__setattr__ like
        # dataclasses do internally.  Documented extra attribute.
        object.__setattr__(result, "schedule", np.asarray(schedule, dtype=np.int64))
    return result
