"""Uniform-IDLA driver (§4.2).

At each tick an unsettled particle is chosen and takes one step, settling
if the vertex it reaches is vacant.  The paper's schedule ``R`` draws
``R_t`` uniformly from *all* particles ``{1, …, n-1}`` (particle 0 sits at
the origin); ticks that pick an already-settled particle are wasted.  Two
equivalent simulation modes are provided:

* ``faithful_r=True`` — draw the literal i.i.d. schedule (needed by the
  PtU_R bijection tests; returns the realised ``R``);
* ``faithful_r=False`` (default) — pick uniformly among *unsettled*
  particles and recover the wasted-tick count distributionally via
  geometric skips, which is exact because conditioned on hitting an
  unsettled particle the choice is uniform among them.

Both modes report per-particle jump counts (Theorem 4.7's quantity —
stochastically dominated by the Parallel-IDLA longest walk) and the tick
clock in ``result.ticks``.

Draw contract
-------------
Every draw is a uniform double from one block-buffered
:class:`repro.utils.rng.UniformStream`, consumed per tick in this order:

1. *(only when ``k < m-1``)* the geometric skip count, by inversion —
   ``int(log1p(-u) / log1p(-k/(m-1)))`` wasted ticks;
2. the scheduler pick — pool slot ``min(int(u·k), k-1)`` (or particle
   ``1 + min(int(u·(m-1)), m-2)`` in ``faithful_r`` mode, one draw per
   tick even when wasted);
3. the walk step — neighbour ``min(int(u·deg), deg-1)``.

Uniform-double streams are chunk-invariant, so
:func:`repro.core.batched_continuous.batched_uniform_idla` replays the
default mode bit for bit in lock-step across repetitions; this serial
driver is the reference oracle it is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.settlement import UnsettledPool, settle_vacant_starts_inorder
from repro.graphs.csr import Graph
from repro.utils.rng import UniformStream, as_generator
from repro.utils.validation import check_integer, check_limit, check_record

__all__ = ["uniform_idla", "sample_schedule"]

#: Fetch-block size of the driver's :class:`UniformStream`.  Every draw
#: is a plain uniform double, so the block size must never influence a
#: result or a recorded ``faithful_r`` schedule (chunk-invariance of the
#: NumPy double stream); it is a module constant — rather than a literal
#: at the call site — so the regression tests can vary it and pin that.
_BLOCK = 16384


def sample_schedule(n: int, length: int, seed=None) -> np.ndarray:
    """i.i.d. uniform schedule over particles ``1..n-1`` (paper's ``R``)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = as_generator(seed)
    return rng.integers(1, n, size=length, dtype=np.int64)


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
    adj = g.adjacency_lists()

    occupied = [False] * n
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
    stream = UniformStream(rng, block=_BLOCK)
    schedule: list[int] | None = [] if faithful_r else None

    ticks = 0
    k = len(pool)
    pool_size = max(m - 1, 1)
    logq = 0.0
    logq_k = -1  # k value `logq` was computed for
    while k:
        ticks += 1
        if ticks > budget:
            raise RuntimeError(f"uniform IDLA exceeded max_ticks={max_ticks}")
        if faithful_r:
            if m > 1:
                s = int(stream.uniform() * (m - 1))
                if s == m - 1:
                    s = m - 2
                p = 1 + s
            else:
                p = 0
            schedule.append(p)
            if settled_at[p] >= 0:
                continue  # wasted tick
            i = -1  # p was not picked through the pool
        else:
            if k < pool_size:
                # ticks until an unsettled particle is drawn are
                # Geometric(k / pool_size); the current tick already
                # counts as one attempt.  Sampled by inversion so the
                # batched replica reproduces the skip exactly.
                if k != logq_k:
                    logq = float(np.log1p(-(k / pool_size)))
                    logq_k = k
                extra = int(stream.log1mu() / logq)
                if extra:
                    ticks += extra
                    if ticks > budget:
                        raise RuntimeError(
                            f"uniform IDLA exceeded max_ticks={max_ticks}"
                        )
            i = int(stream.uniform() * k)
            if i == k:  # floating guard, mirrors the batched np.minimum
                i = k - 1
            p = pool.pick(i)
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
            if i >= 0:
                pool.remove_at(i)
            k -= 1

    steps_arr = np.asarray(steps, dtype=np.int64)
    result = DispersionResult(
        process="uniform",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=int(steps_arr.max()),
        total_steps=int(steps_arr.sum()),
        steps=steps_arr,
        settled_at=settled_at,
        settle_order=np.asarray(settle_order, dtype=np.int64),
        ticks=float(ticks),
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
    if faithful_r:
        # DispersionResult is frozen; attach via object.__setattr__ like
        # dataclasses do internally.  Documented extra attribute.
        object.__setattr__(result, "schedule", np.asarray(schedule, dtype=np.int64))
    return result
