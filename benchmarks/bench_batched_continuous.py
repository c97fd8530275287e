"""``batched=True`` vs serial estimates of the tick-scheduled processes.

The tick-scheduled processes (Uniform-IDLA, CTU-IDLA, Poissonised
Sequential-IDLA) advance one particle per repetition per tick.  This
bench runs the acceptance workloads — the 1024-vertex cycle and the
32×32 grid at ``reps=100`` — through ``estimate_dispersion`` with
``batched=True`` and with ``batched=False``, checks the samples are
bit-identical (batching must never change the numbers) and asserts the
cycle speedups are at least 3×.

With a compiled kernel provider, ``batched=True`` runs the compiled
per-repetition route (:mod:`repro.core.route`, taken before any
lock-step driver), so that is what the "batched" column times; the
lock-step drivers of ``repro.core.batched_continuous`` run only without
a compiled provider.

The serial reference on the full cycle workload takes hours, so the
serial path is timed on ``BENCH_BC_SERIAL_REPS`` repetitions (default 4)
and extrapolated linearly — repetitions are i.i.d. and the serial
runner's cost is the sum of per-repetition costs, so the extrapolation
is honest and the printed table records it.  ``BENCH_BC_N`` /
``BENCH_BC_REPS`` shrink the whole workload (the CI smoke job runs
``N=64, REPS=16``); the ≥3× assertion only applies at full size.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from _common import emit, run_once
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph, grid_graph

N = int(os.environ.get("BENCH_BC_N", 1024))
REPS = int(os.environ.get("BENCH_BC_REPS", 100))
SERIAL_REPS = int(os.environ.get("BENCH_BC_SERIAL_REPS", 4))
SEED = 99

#: (graph label, process) rows; the cycle rows are the acceptance claim.
WORKLOADS = [
    ("cycle", "ctu"),
    ("cycle", "uniform"),
    ("grid", "ctu"),
    ("grid", "uniform"),
    ("grid", "c-sequential"),
]


def _time_pair(g, process):
    t0 = time.perf_counter()
    batched = estimate_dispersion(
        g, process, reps=REPS, seed=SEED, batched=True
    )
    batched_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = estimate_dispersion(
        g, process, reps=SERIAL_REPS, seed=SEED, batched=False
    )
    serial_s = (time.perf_counter() - t0) * (REPS / SERIAL_REPS)

    # bit-identity on the repetitions both paths ran
    assert np.array_equal(
        serial.samples, batched.samples[:SERIAL_REPS]
    ), f"batched {process} samples diverged from the serial oracle"
    return serial_s, batched_s, float(batched.dispersion.mean)


def _experiment():
    side = max(int(round(math.sqrt(N))), 2)
    graphs = {"cycle": cycle_graph(N), "grid": grid_graph(side, side)}
    rows = []
    for graph_label, process in WORKLOADS:
        serial_s, batched_s, mean_tau = _time_pair(graphs[graph_label], process)
        rows.append(
            {
                "graph": graphs[graph_label].name,
                "process": process,
                "serial_s": serial_s,
                "batched_s": batched_s,
                "speedup": serial_s / batched_s,
                "mean_tau": mean_tau,
            }
        )
    return rows


def bench_batched_continuous(benchmark, capsys):
    rows = run_once(benchmark, _experiment)
    emit(
        capsys,
        "batched_continuous",
        f"batched=True (compiled route) vs serial loop, continuous/uniform "
        f"processes — reps={REPS}",
        ["graph", "process", "serial (s)", "batched (s)", "speedup", "mean tau"],
        [
            [
                r["graph"],
                r["process"],
                round(r["serial_s"], 1),
                round(r["batched_s"], 1),
                f"{r['speedup']:.1f}x",
                round(r["mean_tau"], 1),
            ]
            for r in rows
        ],
        extra={
            "serial reps timed (rest extrapolated)": SERIAL_REPS,
            "samples bit-identical": True,
        },
    )
    if N >= 1024 and REPS >= 100:
        for r in rows:
            if r["graph"].startswith("cycle"):
                assert r["speedup"] >= 3.0, (
                    f"{r['process']} on {r['graph']}: expected >=3x, "
                    f"got {r['speedup']:.2f}x"
                )


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    print(_experiment())
