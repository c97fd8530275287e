"""Parallel-IDLA driver.

All particles start simultaneously (classically: ``n`` particles at one
origin, one of which settles there instantly); every remaining particle
performs one random-walk step per round, and whenever one or more
particles stand on a vacant vertex, the highest-priority one settles
there (§1).  The dispersion time is the round in which the process
completes.

§6.2 variants supported: ``num_particles = m`` — for ``m < n`` the process
ends when all particles settle; for ``m > n`` it ends when every vertex is
occupied (surplus particles report ``settled_at = -1``) — and per-particle
origins (``origin="uniform"`` or an explicit array), with a settlement
pass at round 0 covering vacant starts.

Implementation
--------------
The round body is vectorised over the unsettled particles (one walk
step from :func:`~repro.walks.engine.make_stepper` + a lexsort-based
settlement resolution).  Long tails — e.g. the cycle spends ``Θ(n² log n)`` rounds
with a handful of stragglers — would be dominated by NumPy call overhead,
so below ``scalar_threshold`` active particles the driver switches to a
plain-Python micro-loop with block-buffered uniforms (the same hybrid
strategy the HPC guide recommends after profiling: vectorise the wide
phase, specialise the narrow phase).
"""

from __future__ import annotations

import numpy as np

from repro.core.origins import resolve_origins
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.settlement import select_settlers, settle_vacant_starts
from repro.core.stopping_rules import StoppingRule, standard_rule
from repro.graphs.csr import Graph
from repro.kernels import get_kernels
from repro.utils.rng import as_generator
from repro.utils.validation import check_integer, check_limit, check_record
from repro.walks.engine import make_stepper

__all__ = ["parallel_idla"]

_BLOCK = 16384


def parallel_idla(
    g: Graph,
    origin=0,
    *,
    lazy: bool = False,
    seed=None,
    record: bool = False,
    tie_break: str = "index",
    rule: StoppingRule | None = None,
    num_particles: int | None = None,
    scalar_threshold: int = 16,
    max_rounds: float | None = None,
) -> DispersionResult:
    """Run one Parallel-IDLA realisation.

    Parameters
    ----------
    origin:
        Vertex id (classic), ``"uniform"``, or an array of per-particle
        starts.
    tie_break:
        ``"index"`` — the paper's default (smallest particle index wins a
        vacant vertex); ``"random"`` — a priority permutation σ drawn once
        at the start, the variant used in Theorem 4.2's proof.  By
        exchangeability of the i.i.d. walks the dispersion-time law is
        identical (ablation-benched).
    rule:
        Settling rule for walking particles (default: first vacant
        vertex); vacant starts settle at round 0 regardless.
    num_particles:
        ``m`` (default ``n``); see module docstring for the ``m ≠ n``
        semantics.
    scalar_threshold:
        Active-particle count below which the scalar micro-loop takes
        over; an integer (``2.0`` means 2, ``2.5`` and ``True`` raise).
    record:
        Keep trajectories; the block of a classic ``"index"``-run satisfies
        the parallel property (4) (validated in tests).

    Examples
    --------
    >>> from repro.graphs import cycle_graph
    >>> res = parallel_idla(cycle_graph(16), seed=3)
    >>> res.is_complete_dispersion()
    True
    """
    n = g.n
    m = n if num_particles is None else check_integer("num_particles", num_particles)
    if m < 1:
        raise ValueError(f"num_particles must be >= 1, got {m}")
    if tie_break not in ("index", "random"):
        raise ValueError(f"tie_break must be 'index' or 'random', got {tie_break!r}")
    scalar_threshold = check_integer("scalar_threshold", scalar_threshold)
    budget = check_limit("max_rounds", max_rounds)
    record = check_record(record)
    rng = as_generator(seed)
    starts = resolve_origins(g, origin, m, rng)
    use_default_rule = rule is None or rule is standard_rule

    if tie_break == "index":
        priority = np.arange(m, dtype=np.int64)
    else:
        # the paper's σ fixes σ(1) = 1: particle 0 keeps top priority so
        # the origin is settled by the same particle in both variants
        priority = np.empty(m, dtype=np.int64)
        priority[0] = 0
        priority[1:] = 1 + rng.permutation(m - 1)

    step = make_stepper(g, get_kernels())
    adj = g.adjacency_lists()  # scalar phase
    occupied = np.zeros(n, dtype=bool)
    free_count = n
    steps = np.zeros(m, dtype=np.int64)
    settled_at = np.full(m, -1, dtype=np.int64)
    settle_order: list[int] = []
    trajectories: list[list[int]] | None = None
    if record:
        trajectories = [[int(v)] for v in starts]

    # ------------------------------------------------------------- round 0
    # Settlement pass over the starting positions: per vacant vertex, the
    # best-priority particle standing on it settles (classically this is
    # particle 0 at the origin).
    pos_all = starts.copy()
    winners = settle_vacant_starts(occupied, pos_all, priority)
    if winners.size:
        occupied[pos_all[winners]] = True
        free_count -= winners.size
        settled_at[winners] = pos_all[winners]
        for p in winners[np.argsort(priority[winners])]:
            settle_order.append(int(p))
    unsettled_mask = settled_at < 0
    active = np.flatnonzero(unsettled_mask).astype(np.int64)
    pos = pos_all[active].copy()
    t = 0

    # ------------------------------------------------------------ wide phase
    while active.size > scalar_threshold and free_count > 0:
        t += 1
        if t > budget:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        if lazy:
            # hold w.p. 1/2; the step's uniforms are drawn after the holds'
            move = rng.random(pos.shape[0]) >= 0.5
            pos = np.where(move, step(pos, rng.random(pos.shape[0])), pos)
        else:
            pos = step(pos, rng.random(pos.shape[0]), out=pos)
        if record:
            for p, v in zip(active, pos):
                trajectories[p].append(int(v))
        vac = ~occupied[pos]
        if not use_default_rule:
            allowed = np.array(
                [bool(rule(t, int(v), True)) for v in pos], dtype=bool
            )
            vac &= allowed
        cand = np.flatnonzero(vac)
        if cand.size:
            winners = cand[select_settlers(pos[cand], priority[active[cand]])]
            # winners are indices into the active arrays
            w_particles = active[winners]
            w_verts = pos[winners]
            occupied[w_verts] = True
            free_count -= winners.size
            steps[w_particles] = t
            settled_at[w_particles] = w_verts
            for p in w_particles[np.argsort(priority[w_particles])]:
                settle_order.append(int(p))
            keep = np.ones(active.size, dtype=bool)
            keep[winners] = False
            active = active[keep]
            pos = pos[keep]

    # ---------------------------------------------------------- narrow phase
    act = [int(p) for p in active]
    cur = [int(v) for v in pos]
    occ = occupied.tolist()
    buf = rng.random(_BLOCK)
    bi = 0
    while act and free_count > 0:
        t += 1
        if t > budget:
            raise RuntimeError(f"parallel IDLA exceeded max_rounds={max_rounds}")
        # step every active particle
        for j in range(len(act)):
            if bi == _BLOCK:
                buf = rng.random(_BLOCK)
                bi = 0
            u = buf[bi]
            bi += 1
            if lazy:
                if u < 0.5:
                    if record:
                        trajectories[act[j]].append(cur[j])
                    continue
                u = 2.0 * (u - 0.5)
            nbrs = adj[cur[j]]
            cur[j] = nbrs[int(u * len(nbrs))]
            if record:
                trajectories[act[j]].append(cur[j])
        # settle: group candidates by vertex, min priority wins
        best: dict[int, int] = {}
        for j in range(len(act)):
            v = cur[j]
            if occ[v]:
                continue
            if not use_default_rule and not rule(t, v, True):
                continue
            b = best.get(v)
            if b is None or priority[act[j]] < priority[act[b]]:
                best[v] = j
        if best:
            winners = sorted(best.values(), key=lambda j: priority[act[j]])
            for j in winners:
                p, v = act[j], cur[j]
                occ[v] = True
                free_count -= 1
                steps[p] = t
                settled_at[p] = v
                settle_order.append(p)
            drop = set(best.values())
            act = [p for j, p in enumerate(act) if j not in drop]
            cur = [v for j, v in enumerate(cur) if j not in drop]

    # Surplus particles (m > n) never settle: they walked until the last
    # vertex filled, so they performed t steps each.
    if act:
        for p in act:
            steps[p] = t

    settled_steps = steps[settled_at >= 0]
    dispersion = int(settled_steps.max()) if settled_steps.size else 0
    return DispersionResult(
        process="parallel-lazy" if lazy else "parallel",
        graph_name=g.name,
        n=n,
        origin=int(starts[0]),
        dispersion_time=dispersion,
        total_steps=int(steps.sum()),
        steps=steps,
        settled_at=settled_at,
        settle_order=np.asarray(settle_order, dtype=np.int64),
        trajectories=TrajectoryArrays.from_lists(trajectories) if record else None,
        num_particles=None if m == n else m,
    )
