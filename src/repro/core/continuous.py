"""Continuous-time IDLA variants (§4.3).

* :func:`ctu_idla` — the continuous-time Uniform-IDLA (CTU-IDLA): every
  unsettled particle carries a rate-1 exponential clock and takes one step
  per ring.  Simulated with the Gillespie reduction: with ``k`` unsettled
  particles the next ring is ``Exp(k)`` and the ringer is uniform.
  Theorem 4.8: ``τ_ctu = (1 + o(1)) τ_par``.
* :func:`continuous_sequential_idla` — Poissonised Sequential-IDLA: jump
  times are a rate-1 Poisson process, sampled by running the discrete
  process and attaching ``Gamma(ρ_i, 1)`` durations per particle (the
  paper's own sampling recipe).  ``τ_c-seq = (1 + o(1)) τ_seq``.

Draw contract
-------------
``ctu_idla`` consumes nothing but uniform doubles, three per ring, from a
block-buffered :class:`repro.utils.rng.UniformStream`:

1. the exponential waiting time, by inversion — ``-log1p(-u) / (k·rate)``;
2. the ringer — slot ``min(int(u·k), k-1)`` of the unsettled pool;
3. the walk step — neighbour ``min(int(u·deg), deg-1)``.

Uniform-double streams are chunk-invariant, so
:func:`repro.core.batched_continuous.batched_ctu_idla` replays these draws
bit for bit while advancing many repetitions in lock-step; this serial
driver is the reference oracle it is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.sequential import sequential_idla
from repro.core.settlement import UnsettledPool, settle_vacant_starts_inorder
from repro.graphs.csr import Graph
from repro.utils.rng import UniformStream, as_generator
from repro.utils.validation import (
    check_integer,
    check_positive_finite,
    check_record,
)
from repro.walks.continuous import poissonise_steps

__all__ = ["ctu_idla", "continuous_sequential_idla"]

#: Fetch-block size of :func:`ctu_idla`'s :class:`UniformStream` (its
#: default).  Like ``repro.core.uniform._BLOCK`` it never influences a
#: result; it is a module constant so tests can vary it.
_BLOCK = 16384


def ctu_idla(
    g: Graph,
    origin=0,
    *,
    rate: float = 1.0,
    seed=None,
    record: bool = False,
    num_particles: int | None = None,
) -> DispersionResult:
    """Run one continuous-time Uniform-IDLA realisation.

    ``dispersion_time`` is the continuous time of the last settlement;
    per-particle jump counts live in ``steps`` (their max is the
    longest-walk length, comparable to the Parallel-IDLA via the §4.3
    coupling).  ``rate`` scales every clock (``rate=0.5`` gives the
    mean-2-clock process used in the proof of Theorem 4.3).

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> res = ctu_idla(complete_graph(16), seed=2)
    >>> res.is_complete_dispersion() and res.dispersion_time > 0
    True
    """
    n = g.n
    m = n if num_particles is None else check_integer("num_particles", num_particles)
    if not 1 <= m <= n:
        raise ValueError(
            f"CTU IDLA needs 1 <= num_particles <= n, got {m} (n={n})"
        )
    check_positive_finite("rate", rate)
    record = check_record(record)
    rng = as_generator(seed)
    starts = resolve_origins(g, origin, m, rng)
    adj = g.adjacency_lists()

    occupied = [False] * n
    steps = [0] * m
    settled_at = np.full(m, -1, dtype=np.int64)
    settle_order: list[int] = []
    settle_clock = np.zeros(m, dtype=np.float64)
    pos = [int(v) for v in starts]
    trajectories: list[list[int]] | None = None
    if record:
        trajectories = [[int(v)] for v in starts]
    # time-0 settlement: vacant starts settle instantly
    pool = UnsettledPool(
        settle_vacant_starts_inorder(occupied, starts, settled_at, settle_order)
    )
    stream = UniformStream(rng, block=_BLOCK)

    clock = 0.0
    k = len(pool)
    denom = k * rate
    while k:
        clock += -stream.log1mu() / denom
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
            settle_clock[p] = clock
            pool.remove_at(i)
            k -= 1
            denom = k * rate

    steps_arr = np.asarray(steps, dtype=np.int64)
    result = DispersionResult(
        process="ctu",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=float(clock),
        total_steps=int(steps_arr.sum()),
        steps=steps_arr,
        settled_at=settled_at,
        settle_order=np.asarray(settle_order, dtype=np.int64),
        ticks=float(clock),
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
    object.__setattr__(result, "settle_clock", settle_clock)
    return result


def continuous_sequential_idla(
    g: Graph,
    origin: int = 0,
    *,
    rate: float = 1.0,
    seed=None,
    record: bool = False,
) -> DispersionResult:
    """Run one continuous-time Sequential-IDLA realisation.

    Samples the discrete process, then attaches ``Gamma(ρ_i, 1/rate)``
    holding-time sums — the paper's §4.3 recipe ("sample a discrete time
    IDLA and then consider independent exponential times of mean 1 between
    the jumps").  ``dispersion_time`` is ``max_i`` duration, the time the
    slowest particle took to settle.
    """
    check_positive_finite("rate", rate)
    record = check_record(record)
    rng = as_generator(seed)
    discrete = sequential_idla(g, origin, seed=rng, record=record)
    durations = poissonise_steps(discrete.steps, rng, rate=rate)
    result = DispersionResult(
        process="c-sequential",
        graph_name=g.name,
        n=g.n,
        origin=discrete.origin,
        dispersion_time=float(durations.max()),
        total_steps=discrete.total_steps,
        steps=discrete.steps,
        settled_at=discrete.settled_at,
        settle_order=discrete.settle_order,
        ticks=float(durations.max()),
        trajectories=discrete.trajectories,
    )
    object.__setattr__(result, "durations", durations)
    return result
