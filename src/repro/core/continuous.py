"""Continuous-time IDLA variants (§4.3).

* :func:`ctu_idla` — the continuous-time Uniform-IDLA (CTU-IDLA): every
  unsettled particle carries a rate-1 exponential clock and takes one step
  per ring.  With ``k`` unsettled particles the next ring is ``Exp(k)``
  and the ringer is uniform, so the process is Uniform-IDLA's jump chain
  with holding times attached per level (below).
  Theorem 4.8: ``τ_ctu = (1 + o(1)) τ_par``.
* :func:`continuous_sequential_idla` — Poissonised Sequential-IDLA: jump
  times are a rate-1 Poisson process, sampled by running the discrete
  process and attaching ``Gamma(ρ_i, 1)`` durations per particle (the
  paper's own sampling recipe).  ``τ_c-seq = (1 + o(1)) τ_seq``.

Draw contract
-------------
``ctu_idla`` walks Uniform-IDLA's jump chain
(:func:`repro.core.uniform.jump_chain`, two uniform doubles a tick), then
attaches the clocks, the paper's recipe again: while ``k`` particles are
unsettled every tick waits ``Exp(k·rate)``, so the ``J_k`` ticks of level
``k`` take ``Gamma(J_k, 1/(k·rate))`` in all.  One ``Generator.gamma``
draw per level, from the first level down and from the generator the
chain's block-buffered stream leaves at its last block boundary, summed
in that order, gives each level's end: the settle clock of the particle
that ends it.

:func:`repro.core.batched_continuous.batched_ctu_idla` and the compiled
route (:mod:`repro.core.route`) replay these draws bit for bit; this
serial driver is the reference oracle they are tested against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.sequential import sequential_idla
from repro.core.uniform import jump_chain, level_jumps
from repro.graphs.csr import Graph
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_integer,
    check_positive_finite,
    check_record,
)
from repro.walks.continuous import poissonise_steps

__all__ = ["ctu_idla", "continuous_sequential_idla", "level_clocks"]

#: Fetch-block size of :func:`ctu_idla`'s :class:`UniformStream`: where
#: the clock draws start, as ``repro.core.uniform._BLOCK`` is for the
#: wasted ticks.  A module constant so tests can vary it.
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
    steps, settled_at, settle_order, trajectories, ends, _ = jump_chain(
        g, starts, rng, block=_BLOCK, record=record, budget=math.inf,
        limit_msg="",
    )
    settle_clock = np.zeros(m, dtype=np.float64)
    clocks = level_clocks(rng, ends, rate)
    settle_clock[settle_order[m - len(ends):]] = clocks
    clock = float(clocks[-1]) if ends else 0.0

    result = DispersionResult(
        process="ctu",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=clock,
        total_steps=int(steps.sum()),
        steps=steps,
        settled_at=settled_at,
        settle_order=settle_order,
        ticks=clock,
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
    object.__setattr__(result, "settle_clock", settle_clock)
    return result


def level_clocks(rng, ends, rate: float) -> np.ndarray:
    """The clock at the end of each level of a CTU-IDLA chain with level
    ends ``ends`` (:func:`~repro.core.uniform.jump_chain`'s), first level
    first: the running sum, in level order, of one ``Gamma(J_k, 1/(k ·
    rate))`` draw from ``rng`` per level ``k``."""
    levels, jumps = level_jumps(ends)
    return np.cumsum(rng.gamma(jumps, 1.0 / (levels * rate)))


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
