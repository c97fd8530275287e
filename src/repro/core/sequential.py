"""Sequential-IDLA driver.

Particles are released one at a time; each performs a (simple or lazy)
random walk until its settling rule fires — by default, at the first
vacant vertex, with the start vertex itself checked at time 0 — and only
then does the next particle start (§1 of the paper).  The classic setup
(all particles from one origin) makes particle 0 settle instantly at the
origin.

§6.2 variants supported here: ``num_particles = m ≤ n`` (stop after ``m``
settlements) and per-particle origins (``origin="uniform"`` or an array).

Performance note: a single trajectory cannot be vectorised, so the inner
loop uses plain-Python list adjacency with block-buffered uniforms (see
:mod:`repro.walks.single`); the default-rule path is additionally inlined
here because the per-step predicate is just a list lookup.  At ~10⁷ steps
per second this covers every sweep in the benchmark suite.
"""

from __future__ import annotations

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.settlement import instant_settle_chain
from repro.core.stopping_rules import StoppingRule, standard_rule
from repro.graphs.csr import Graph
from repro.utils.rng import as_generator
from repro.utils.validation import check_integer, check_limit, check_record

__all__ = ["sequential_idla"]

_BLOCK = 16384


def sequential_idla(
    g: Graph,
    origin=0,
    *,
    lazy: bool = False,
    seed=None,
    record: bool = False,
    rule: StoppingRule | None = None,
    num_particles: int | None = None,
    max_total_steps: float | None = None,
) -> DispersionResult:
    """Run one Sequential-IDLA realisation.

    Parameters
    ----------
    g:
        Connected graph.
    origin:
        Start specification: a vertex id (classic — the paper's ``v``),
        ``"uniform"`` for i.i.d. random starts, or an array of per-particle
        starts (§6.2 variant).
    lazy:
        Use the lazy walk (hold probability 1/2).  Dispersion time then
        counts hold steps too, matching ``τ_L-seq`` of §4.4.
    seed:
        RNG seed / generator.
    record:
        Keep full trajectories as
        :class:`~repro.core.results.TrajectoryArrays` (enables
        ``result.block()``); memory is ``O(total steps)``.
    rule:
        Settling rule; defaults to the standard "first vacant vertex".
        Rules govern *walking* particles (step >= 1); a vacant start
        settles its particle instantly, exactly as the paper's first
        particle occupies the origin.
    num_particles:
        ``m ≤ n``; default ``n``.  Sequential-IDLA with ``m > n`` would
        leave particles walking forever and is rejected.
    max_total_steps:
        Safety valve — raise ``RuntimeError`` if the whole process exceeds
        this many steps (useful with exotic rules).

    Returns
    -------
    DispersionResult
        With ``process="sequential"`` (or ``"sequential-lazy"``).

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> res = sequential_idla(complete_graph(16), seed=0)
    >>> res.is_complete_dispersion()
    True
    >>> few = sequential_idla(complete_graph(16), seed=0, num_particles=4)
    >>> int(few.steps.shape[0])
    4
    """
    n = g.n
    m = n if num_particles is None else check_integer("num_particles", num_particles)
    if not 1 <= m <= n:
        raise ValueError(
            f"sequential IDLA needs 1 <= num_particles <= n, got {m} (n={n})"
        )
    budget = check_limit("max_total_steps", max_total_steps)
    record = check_record(record)
    rng = as_generator(seed)
    starts = resolve_origins(g, origin, m, rng)
    use_default_rule = rule is None or rule is standard_rule
    adj = g.adjacency_lists()
    occupied = [False] * n

    steps = np.zeros(m, dtype=np.int64)
    settled_at = np.full(m, -1, dtype=np.int64)
    trajectories: list[list[int]] | None = [] if record else None

    # block-buffered uniforms, inlined for speed
    buf = rng.random(_BLOCK)
    bi = 0
    total = 0

    particle = 0
    while particle < m:
        # A vacant start settles its particle instantly (time-0 visit) —
        # this is how the paper's first particle occupies the origin, and
        # it applies regardless of `rule`, which only governs walking
        # particles.  The chain releases successors until one has to walk.
        walker = instant_settle_chain(occupied, starts, particle, steps, settled_at)
        if record:
            for settled in range(particle, walker):
                trajectories.append([int(starts[settled])])
        if walker == m:
            break
        particle = walker
        pos = int(starts[particle])
        t = 0
        traj = [pos] if record else None
        while True:
            if bi == _BLOCK:
                buf = rng.random(_BLOCK)
                bi = 0
            u = buf[bi]
            bi += 1
            if lazy:
                if u < 0.5:
                    t += 1  # hold step
                    total += 1
                    if record:
                        traj.append(pos)
                    if total > budget:
                        raise RuntimeError(
                            f"sequential IDLA exceeded max_total_steps="
                            f"{max_total_steps}"
                        )
                    continue
                u = 2.0 * (u - 0.5)  # reuse the upper half as a fresh uniform
            nbrs = adj[pos]
            pos = nbrs[int(u * len(nbrs))]
            t += 1
            total += 1
            if record:
                traj.append(pos)
            if total > budget:
                raise RuntimeError(
                    f"sequential IDLA exceeded max_total_steps={max_total_steps}"
                )
            if use_default_rule:
                if not occupied[pos]:
                    break
            elif rule(t, pos, not occupied[pos]) and not occupied[pos]:
                break
        occupied[pos] = True
        steps[particle] = t
        settled_at[particle] = pos
        if record:
            trajectories.append(traj)
        particle += 1

    return DispersionResult(
        process="sequential-lazy" if lazy else "sequential",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=int(steps.max()),
        total_steps=int(steps.sum()),
        steps=steps,
        settled_at=settled_at,
        settle_order=np.arange(m, dtype=np.int64),
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
