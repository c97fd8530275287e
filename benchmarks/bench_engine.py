"""Performance ablations of the simulation engine (DESIGN.md §6.5).

Not a paper experiment: these benches justify two implementation choices —
the vectorised wide-phase stepping and the scalar narrow-phase handoff in
``parallel_idla`` — and time the raw kernels so regressions are visible.
"""

import numpy as np

from _common import emit, run_once
import repro.core.parallel as parallel_mod
from repro.core import parallel_idla
from repro.graphs import cycle_graph, torus_graph
from repro.utils.rng import stable_seed
from repro.walks import SingleWalkKernel, WalkEngine


def bench_engine_vector_step(benchmark):
    """Vectorised step of 10k walkers on a 3-d torus."""
    g = torus_graph(10, 10, 10)
    eng = WalkEngine(g, seed=0)
    pos = np.zeros(10_000, dtype=np.int64)

    def step():
        eng.step(pos, out=pos)
        return pos

    benchmark(step)


def bench_engine_scalar_kernel(benchmark):
    """Scalar kernel: 10k single steps (the sequential-IDLA hot loop)."""
    g = torus_graph(10, 10, 10)
    kern = SingleWalkKernel(g, seed=0)

    def run():
        pos = 0
        for _ in range(10_000):
            pos = kern.step(pos)
        return pos

    benchmark(run)


def bench_engine_scalar_threshold_ablation(benchmark, capsys):
    """Dispersion times must not depend on where ``parallel_idla``
    switches from vectorised rounds to its scalar loop (the private
    ``_SCALAR_THRESHOLD``, patched here): repetition ``r`` takes the same
    seed at every switch value and must give the default's sample bit
    for bit."""

    def experiment():
        g = cycle_graph(48)
        rows = []
        samples = {}
        default = parallel_mod._SCALAR_THRESHOLD
        try:
            for thr in (0, 16, 10**9):
                parallel_mod._SCALAR_THRESHOLD = thr
                d = [
                    parallel_idla(g, 0, seed=stable_seed("abl", r)).dispersion_time
                    for r in range(40)
                ]
                samples[thr] = d
                rows.append(
                    [thr, round(float(np.mean(d)), 1), round(float(np.std(d)), 1)]
                )
        finally:
            parallel_mod._SCALAR_THRESHOLD = default
        return {"rows": rows, "samples": samples, "default": default}

    out = run_once(benchmark, experiment)
    emit(
        capsys,
        "engine_threshold_ablation",
        "Ablation — parallel_idla's scalar switch does not change the law",
        ["_SCALAR_THRESHOLD", "E[τ_par]", "std"],
        out["rows"],
    )
    samples = out["samples"]
    for thr, d in samples.items():
        assert d == samples[out["default"]], thr
    means = [float(np.mean(d)) for d in samples.values()]
    assert max(means) / min(means) < 1.35  # same distribution, MC slack
