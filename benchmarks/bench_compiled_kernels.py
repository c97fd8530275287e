"""Compiled inner-loop kernels vs pure numpy (implementation bench).

The :mod:`repro.kernels` seam swaps three inner loops for compiled
twins — the fused offset+gather walk step, the counting-scatter
settlement round, and the scalar tail finishers' per-step micro-loops —
behind the ``REPRO_KERNELS`` registry.  The differential harness pins
every swap bit-identical; this bench pins the *point* of the layer:

* **sequential tail (Table-1 cycle)**: with ``reps`` below the tail
  threshold every repetition runs in the scalar finisher, so the
  workload is exactly the per-step Python micro-loop the compiled
  ``finish_seq`` kernel replaces.  The acceptance pin: **>= 3x** over
  the pure-numpy provider at full size (measured ~20x with the cffi
  provider on x86-64).
* **parallel lock-step (Table-1 cycle)**: wide rounds drive the fused
  step + compiled settlement round; narrow tail rounds stay on numpy
  under the ``min_width`` gate and the stragglers use the compiled
  finisher.  Reported for reference; the pin here is byte-identity and
  no regression below **0.9x** (the layer must never cost the default
  path its performance).

Both workloads assert the byte-identity anchor: the full result set
(``steps``, ``settled_at``, ``settle_order``, ``dispersion_time``) of
the compiled provider equals the pure-numpy run byte for byte.

The compiled provider is ``cffi``; the bench skips when cffi or a C
compiler is not available here.  Set ``BENCH_KERNELS_*`` environment
variables to shrink the workloads (CI smoke); the speedup assertions
only arm at full size.
"""

from __future__ import annotations

import os
import time

import pytest

from _common import emit, run_once
from repro.core.batched import batched_parallel_idla, batched_sequential_idla
from repro.graphs import cycle_graph
from repro.kernels import available_kernels, get_kernels
from repro.utils.rng import spawn_seed_sequences

SEQ_N = int(os.environ.get("BENCH_KERNELS_SEQ_N", 384))
SEQ_REPS = int(os.environ.get("BENCH_KERNELS_SEQ_REPS", 6))
PAR_N = int(os.environ.get("BENCH_KERNELS_PAR_N", 256))
PAR_REPS = int(os.environ.get("BENCH_KERNELS_PAR_REPS", 32))
REPEAT = int(os.environ.get("BENCH_KERNELS_REPEAT", 3))

SEED = 20260808
SEQ_FLOOR = 3.0
PAR_FLOOR = 0.9
FULL_SIZE = (SEQ_N, SEQ_REPS, PAR_N, PAR_REPS) == (384, 6, 256, 32)

COMPILED = "cffi" if available_kernels()["cffi"] else None


def _timed(fn):
    best = float("inf")
    out = None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _assert_identical(plain, compiled):
    for p, c in zip(plain, compiled):
        assert p.dispersion_time == c.dispersion_time
        assert p.steps.tobytes() == c.steps.tobytes()
        assert p.settled_at.tobytes() == c.settled_at.tobytes()
        assert p.settle_order.tobytes() == c.settle_order.tobytes()


def _measure(label, driver, g, reps):
    seeds = lambda: spawn_seed_sequences(SEED, reps)  # noqa: E731
    plain, wall_np = _timed(lambda: driver(g, 0, seeds=seeds(), kernels="numpy"))
    comp, wall_k = _timed(lambda: driver(g, 0, seeds=seeds(), kernels=COMPILED))
    _assert_identical(plain, comp)
    return {
        "label": label,
        "n": g.n,
        "reps": reps,
        "wall_numpy": wall_np,
        "wall_compiled": wall_k,
        "speedup": wall_np / wall_k,
    }


def _experiment():
    return [
        _measure(
            "sequential tail (cycle)",
            batched_sequential_idla,
            cycle_graph(SEQ_N),
            SEQ_REPS,
        ),
        _measure(
            "parallel lock-step (cycle)",
            batched_parallel_idla,
            cycle_graph(PAR_N),
            PAR_REPS,
        ),
    ]


def bench_compiled_kernels(benchmark, capsys):
    if COMPILED is None:
        pytest.skip("compiled kernel provider 'cffi' unavailable")
    workloads = run_once(benchmark, _experiment)
    rows = [
        [
            w["label"],
            w["n"],
            w["reps"],
            f"{w['wall_numpy']:.3f}",
            f"{w['wall_compiled']:.3f}",
            f"{w['speedup']:.2f}",
        ]
        for w in workloads
    ]
    emit(
        capsys,
        "compiled_kernels",
        f"Compiled inner-loop kernels ({COMPILED}) vs pure numpy",
        ["workload", "n", "reps", "wall numpy (s)", "wall compiled (s)", "speedup"],
        rows,
        extra={
            "provider": COMPILED,
            "min_width": get_kernels(COMPILED).min_width,
            "byte_identity": "asserted on steps/settled_at/settle_order/tau",
            "pins": f"sequential >= {SEQ_FLOOR}x, parallel >= {PAR_FLOOR}x",
            "full_size": FULL_SIZE,
        },
    )
    if FULL_SIZE:
        seq, par = workloads
        assert seq["speedup"] >= SEQ_FLOOR, seq
        assert par["speedup"] >= PAR_FLOOR, par
