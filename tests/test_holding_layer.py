"""The holding layer's reduction, checked in law and at the budget.

CTU-IDLA and Uniform-IDLA walk one jump chain and attach their clocks
per level afterwards: while ``k`` particles are unsettled each tick waits
``Exp(k·rate)`` (CTU) or follows ``Geometric(k/(m-1))`` attempts
(Uniform), so a level's ``J_k`` ticks take one ``Gamma(J_k, 1/(k·rate))``
or waste one ``NegBin(J_k, k/(m-1))`` in all.  This module keeps a
per-tick reference sampler -- a clock or a geometric skip drawn at every
tick, the contract the drivers had before -- and compares it with the
serial drivers and the compiled route by two-sample Kolmogorov-Smirnov
tests at fixed seeds: CTU's dispersion time and every settle clock's
marginal, Uniform's tick count.  It also pins the ``max_ticks`` rule:
every driver raises exactly when the final tick count, wasted ticks
included, exceeds the cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.core import route
from repro.core.batched_continuous import batched_uniform_idla
from repro.core.continuous import ctu_idla
from repro.core.origins import resolve_origins
from repro.core.uniform import uniform_idla
from repro.graphs import complete_graph, cycle_graph, grid_graph, path_graph, star_graph
from repro.kernels import available_kernels
from repro.utils.rng import as_generator, spawn_seed_sequences

#: Repetitions per sample.
N = 1000

#: Smallest p-value a KS comparison may show.  The seeds are fixed, so
#: each test is deterministic; 1e-4 keeps the family of comparisons (a
#: few dozen) from failing on a correct sampler by chance.
ALPHA = 1e-4

#: (graph, origin, m): the small graphs of the exact-law checks, m < n
#: and uniform origins.
CASES = {
    "P5": (path_graph(5), 0, None),
    "C6": (cycle_graph(6), 0, None),
    "star6": (star_graph(6), 0, None),
    "K5": (complete_graph(5), 0, None),
    "grid2x3": (grid_graph(2, 3), 0, None),
    "C6-m4": (cycle_graph(6), 0, 4),
    "grid2x3-uniform-m4": (grid_graph(2, 3), "uniform", 4),
    "K5-uniform": (complete_graph(5), "uniform", None),
}

COMPILED = available_kernels().get("cffi", False)


def per_tick_reference(g, origin, m, rng, *, rate=1.0):
    """One realisation by the per-tick recipe: at every tick a CTU clock
    ``Exp(k·rate)`` and a Uniform skip ``Geometric(k/(m-1)) - 1`` are
    drawn, then a uniform unsettled particle steps.  Returns ``(settle
    clocks, CTU time, Uniform ticks)``."""
    starts = resolve_origins(g, origin, m, rng)
    adj = g.adjacency_lists()
    occupied = np.zeros(g.n, dtype=bool)
    clocks = np.zeros(m)
    pool = []
    for p, v in enumerate(starts.tolist()):
        if occupied[v]:
            pool.append(p)
        else:
            occupied[v] = True
    pos = starts.tolist()
    clock, ticks = 0.0, 0
    while pool:
        k = len(pool)
        clock += rng.exponential(1.0 / (k * rate))
        ticks += int(rng.geometric(k / (m - 1)))  # wasted attempts + the useful one
        i = int(rng.integers(k))
        p = pool[i]
        nbrs = adj[pos[p]]
        v = nbrs[int(rng.integers(len(nbrs)))]
        pos[p] = v
        if not occupied[v]:
            occupied[v] = True
            clocks[p] = clock
            pool.pop(i)
    return clocks, clock, ticks


def _reference(case, seed):
    g, origin, m = CASES[case]
    m = g.n if m is None else m
    rng = as_generator(seed)
    runs = [per_tick_reference(g, origin, m, rng) for _ in range(N)]
    return (
        np.array([c for c, _, _ in runs]),
        np.array([t for _, t, _ in runs]),
        np.array([u for _, _, u in runs], dtype=float),
    )


def _new(case, process, seed, how):
    """``N`` results of the reduced drivers: the serial oracle or the
    compiled route."""
    g, origin, m = CASES[case]
    kwargs = {} if m is None else {"num_particles": m}
    seeds = spawn_seed_sequences(seed, N)
    if how == "route":
        return route.run_reps(process, g, seeds, origin, kernels="cffi", **kwargs)
    driver = ctu_idla if process == "ctu" else uniform_idla
    return [driver(g, origin, seed=s, **kwargs) for s in seeds]


def _assert_same_law(a, b, what):
    result = ks_2samp(a, b)
    assert result.pvalue > ALPHA, (what, result)


HOW = ["serial", pytest.param("route", marks=pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel provider"
))]


@pytest.mark.parametrize("how", HOW)
@pytest.mark.parametrize("case", sorted(CASES))
def test_ctu_clocks_match_the_per_tick_clock_in_law(case, how):
    """τ_ctu and each particle's settle clock: one Gamma draw per level
    against an exponential clock per tick."""
    ref_clocks, ref_tau, _ = _reference(case, 11)
    got = _new(case, "ctu", 12, how)
    _assert_same_law(ref_tau, [r.dispersion_time for r in got], "tau")
    clocks = np.array([r.settle_clock for r in got])
    for p in range(clocks.shape[1]):
        _assert_same_law(ref_clocks[:, p], clocks[:, p], f"settle clock {p}")


@pytest.mark.parametrize("how", HOW)
@pytest.mark.parametrize("case", sorted(CASES))
def test_uniform_ticks_match_the_per_tick_skips_in_law(case, how):
    """Uniform's tick count: one negative-binomial draw per level against
    a geometric skip per tick."""
    _, _, ref_ticks = _reference(case, 21)
    got = _new(case, "uniform", 22, how)
    _assert_same_law(ref_ticks, [r.ticks for r in got], "ticks")


def test_the_reference_sampler_sees_a_wrong_clock():
    """The comparison has power: a level time drawn with the wrong rate
    (``k+1`` for ``k``) is told apart from the per-tick clock."""
    g = cycle_graph(6)
    _, ref_tau, _ = _reference("C6", 11)
    rng = as_generator(5)
    wrong = [per_tick_reference(g, 0, 6, rng, rate=1.25)[1] for _ in range(N)]
    assert ks_2samp(ref_tau, wrong).pvalue < ALPHA


# ----------------------------------------------------------------------
# the max_ticks rule
# ----------------------------------------------------------------------

G = grid_graph(3, 4)


def _useful_and_final(seed):
    res = uniform_idla(G, seed=seed)
    return res.total_steps, int(res.ticks)


def _uniform_runs(cap, seed):
    """Each driver's run under ``max_ticks=cap``: its ticks, or the
    message it raised."""
    runs = {
        "serial": lambda: [uniform_idla(G, seed=seed, max_ticks=cap)],
        "lockstep-numpy": lambda: batched_uniform_idla(
            G, seeds=[seed], max_ticks=cap, kernels="numpy"
        ),
    }
    if COMPILED:
        runs["lockstep-cffi"] = lambda: batched_uniform_idla(
            G, seeds=[seed], max_ticks=cap, kernels="cffi"
        )
        runs["route"] = lambda: route.run_reps(
            "uniform", G, [seed], 0, kernels="cffi", max_ticks=cap
        )
    out = {}
    for name, run in runs.items():
        try:
            out[name] = float(run()[0].ticks)
        except RuntimeError as exc:
            out[name] = str(exc)
    return out


def test_a_seed_wastes_ticks():
    useful, final = _useful_and_final(3)
    assert useful < final - 1, "pick a seed whose run wastes two ticks or more"


@pytest.mark.parametrize("where", ["below-useful", "useful", "between", "final-1", "final"])
def test_max_ticks_is_exact_on_every_driver(where):
    """Every driver raises the serial message exactly when the final tick
    count exceeds the cap: a cap below the useful ticks stops the chain,
    one between the useful and the final count trips after the wasted
    ticks are drawn, and the final count itself passes."""
    useful, final = _useful_and_final(3)
    cap = {
        "below-useful": useful - 1, "useful": useful, "between": (useful + final) // 2,
        "final-1": final - 1, "final": final,
    }[where]
    runs = _uniform_runs(cap, 3)
    want = float(final) if cap >= final else f"uniform IDLA exceeded max_ticks={cap}"
    assert runs == dict.fromkeys(runs, want), runs
