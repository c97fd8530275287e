"""Law referee for lazy Parallel-IDLA's one-double draw rule.

Every Parallel-IDLA round draws one double ``u`` per active particle; a
lazy particle holds iff ``u < 1/2`` and otherwise steps with
``2(u - 1/2)``.  Earlier releases drew a round with more than sixteen
active particles differently — ``k`` hold gates, then ``k`` step doubles
— which moved the samples of those rounds but not the law.  This module
keeps that two-draw round as a plain-Python reference sampler and checks,
by two-sample Kolmogorov–Smirnov tests at fixed seeds, that every engine
(the serial oracle, the lock-step driver on each provider and the
per-repetition route) samples the same law of the dispersion time, the
total steps and each particle's step count.  A reference that holds with
probability 0.4 must be rejected, so the referee has the power to see a
wrong hold rule.

It also checks that the serial oracle's samples, settle orders and
trajectories do not depend on where it switches from its vectorised
rounds to its scalar loop (the private ``_SCALAR_THRESHOLD``).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.stats import ks_2samp

import repro.core.parallel as parallel_mod
from repro.core import batched_parallel_idla, parallel_idla
from repro.core.route import run_reps
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.kernels import available_kernels
from repro.utils.rng import spawn_seed_sequences

PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]
COMPILED = [name for name in PROVIDERS if name != "numpy"]

#: Samples per engine and per reference, and the per-comparison level:
#: about 270 distinct comparisons at 1e-4 leave a family-wise level near
#: 3% under the null, and discrete samples make each test conservative.
REPS = 600
ALPHA = 1e-4
SEED = 20261020

GRAPHS = {
    "P5": path_graph(5),
    "C6": cycle_graph(6),
    "star6": star_graph(6),
    "K5": complete_graph(5),
    "grid3x3": grid_graph(3, 3),
}

#: Variant -> options given ``n``; ``m > n`` puts more than sixteen
#: walkers on the 3x3 grid, so its early rounds are the ones the old
#: two-draw rule drew.
VARIANTS = {
    "plain": lambda n: {},
    "m<n": lambda n: {"num_particles": n - 2},
    "m>n": lambda n: {"num_particles": 2 * n},
    "uniform-origin": lambda n: {"origin": "uniform"},
    "random-ties": lambda n: {"tie_break": "random"},
    "record": lambda n: {"record": True},
}


def reference(g, rng, *, hold=0.5, origin=0, num_particles=None,
              tie_break="index"):
    """One lazy Parallel-IDLA run with the two-draw round: ``k`` hold
    gates, then ``k`` step doubles; a particle holds iff its gate is
    below ``hold``.  Returns ``(tau, total steps, steps)``."""
    n = g.n
    m = n if num_particles is None else num_particles
    adj = g.adjacency_lists()
    if origin == "uniform":
        starts = [int(v) for v in rng.integers(n, size=m)]
    else:
        starts = [origin] * m
    prio = list(range(m))
    if tie_break == "random":
        prio = [0] + [1 + int(x) for x in rng.permutation(m - 1)]
    occ = [False] * n
    steps = [0] * m
    free = n
    pos = list(starts)
    active = list(range(m))
    t = 0
    while True:
        # round t's contest: per vacant vertex, the best priority settles
        best: dict[int, int] = {}
        for p in active:
            v = pos[p]
            if not occ[v] and (v not in best or prio[p] < prio[best[v]]):
                best[v] = p
        for v, p in best.items():
            occ[v] = True
            free -= 1
            steps[p] = t
        won = set(best.values())
        active = [p for p in active if p not in won]
        if not active or not free:
            break
        t += 1
        gates = rng.random(len(active))
        moves = rng.random(len(active))
        for j, p in enumerate(active):
            if gates[j] >= hold:
                nbrs = adj[pos[p]]
                pos[p] = nbrs[int(moves[j] * len(nbrs))]
    for p in active:
        steps[p] = t  # surplus walkers (m > n) walked every round
    tau = max(steps[p] for p in range(m) if p not in active)
    return tau, sum(steps), steps


def _columns(results):
    """``(tau, total, steps)`` arrays of a sequence of results."""
    results = list(results)
    tau = np.array([r.dispersion_time for r in results], dtype=np.float64)
    total = np.array([r.total_steps for r in results], dtype=np.int64)
    return tau, total, np.stack([np.asarray(r.steps) for r in results])


@functools.lru_cache(maxsize=None)
def _reference(graph, variant, hold=0.5, reps=REPS):
    g = GRAPHS[graph]
    opts = VARIANTS[variant](g.n)
    opts.pop("record", None)
    rng = np.random.default_rng([SEED, int(hold * 100), reps])
    runs = [reference(g, rng, hold=hold, **opts) for _ in range(reps)]
    tau = np.array([r[0] for r in runs], dtype=np.float64)
    total = np.array([r[1] for r in runs], dtype=np.int64)
    return tau, total, np.array([r[2] for r in runs], dtype=np.int64)


def _serial(g, origin, seeds, **opts):
    return [parallel_idla(g, origin, seed=s, lazy=True, **opts) for s in seeds]


def _lockstep(provider):
    def run(g, origin, seeds, **opts):
        return batched_parallel_idla(
            g, origin, seeds=seeds, lazy=True, kernels=provider, **opts
        )

    return run


def _route(g, origin, seeds, **opts):
    return run_reps("parallel", g, seeds, origin, kernels=COMPILED[0], lazy=True,
                    **opts)


ENGINES = {
    "serial": _serial,
    **{f"lockstep-{p}": _lockstep(p) for p in PROVIDERS},
    **({"route": _route} if COMPILED else {}),
}


def _pvalues(got, ref):
    """KS p-values of (tau, total steps, each particle's steps)."""
    out = {"tau": ks_2samp(got[0], ref[0]).pvalue,
           "total": ks_2samp(got[1], ref[1]).pvalue}
    for p in range(got[2].shape[1]):
        out[f"steps[{p}]"] = ks_2samp(got[2][:, p], ref[2][:, p]).pvalue
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_every_engine_samples_the_two_draw_law(graph, variant):
    g = GRAPHS[graph]
    opts = VARIANTS[variant](g.n)
    origin = opts.pop("origin", 0)
    seeds = spawn_seed_sequences(SEED, REPS)
    ref = _reference(graph, variant)
    for name, engine in ENGINES.items():
        results = engine(g, origin, seeds, **opts)
        if opts.get("record"):
            for r in results:
                lens = np.diff(r.trajectories.offsets)
                assert np.array_equal(lens, np.asarray(r.steps) + 1), name
        rejected = {
            key: p for key, p in _pvalues(_columns(results), ref).items()
            if p < ALPHA
        }
        assert not rejected, (name, rejected)


def test_recorded_walkers_hold_half_the_time():
    """A trajectory repeats its vertex exactly on a hold (none of the
    graphs has a loop): over every recorded round, the hold fraction is
    1/2 within four standard errors."""
    g = GRAPHS["grid3x3"]
    res = _serial(g, 0, spawn_seed_sequences(SEED, REPS), record=True,
                  num_particles=2 * g.n)
    holds = moves = 0
    for r in res:
        for p in range(len(r.trajectories)):
            row = r.trajectories.row(p)
            same = int(np.count_nonzero(row[1:] == row[:-1]))
            holds += same
            moves += row.size - 1 - same
    rounds = holds + moves
    assert abs(holds / rounds - 0.5) < 4 * 0.5 / np.sqrt(rounds), (holds, rounds)


@pytest.mark.parametrize("graph", ["C6", "K5"])
def test_referee_rejects_a_hold_probability_of_0_4(graph):
    """The referee's power: with the hold probability at 0.4 the
    reference must be told apart from the engines, while at 1/2 it
    must not, at the same sample size."""
    reps = 4000
    g = GRAPHS[graph]
    got = _columns(_serial(g, 0, spawn_seed_sequences(SEED + 1, reps)))
    fair = _pvalues(got, _reference(graph, "plain", 0.5, reps))
    assert min(fair["tau"], fair["total"]) >= ALPHA, fair
    wrong = _pvalues(got, _reference(graph, "plain", 0.4, reps))
    assert min(wrong["tau"], wrong["total"]) < ALPHA, wrong


@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
@pytest.mark.parametrize(
    "g, m",
    [(grid_graph(5, 5), None), (cycle_graph(40), None), (star_graph(30), 40)],
    ids=["grid-5x5", "cycle-40", "star-30,m>n"],
)
def test_samples_do_not_depend_on_the_scalar_switch(g, m, lazy, monkeypatch):
    """Patched to switch to its scalar loop at 0, 16 or 10**9 active
    walkers, ``parallel_idla`` returns the same steps, settle orders and
    trajectories."""
    runs = {}
    for switch in (0, 16, 10**9):
        monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", switch)
        runs[switch] = [
            parallel_idla(g, 0, seed=s, lazy=lazy, record=True, num_particles=m)
            for s in spawn_seed_sequences(SEED, 4)
        ]
    for switch in (0, 10**9):
        for a, b in zip(runs[16], runs[switch]):
            assert np.array_equal(a.steps, b.steps), switch
            assert np.array_equal(a.settled_at, b.settled_at), switch
            assert np.array_equal(a.settle_order, b.settle_order), switch
            assert np.array_equal(a.trajectories.offsets, b.trajectories.offsets)
            assert np.array_equal(a.trajectories.flat, b.trajectories.flat)
