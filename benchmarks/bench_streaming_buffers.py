"""Streaming uniform buffers + scalar tail finisher (implementation benchmark).

Two wins are measured, and their results committed for EXPERIMENTS.md:

1. **The memory cap is gone.**  The old runner declined batching whenever
   the preallocated ``reps × block`` uniform buffers would exceed
   ``_BATCHED_MAX_BUFFER_DOUBLES`` (2^25 doubles); the acceptance workload
   here — Parallel-IDLA on the cycle at ``reps=2560`` — sat beyond that
   cap (old estimate ``2560 × 16384`` doubles) and silently fell back to
   the serial loop.  With the streaming buffers the same request batches,
   and this bench asserts ≥ 1.5× over the serial path with bit-identical
   samples on the serially-timed subset (repetitions are i.i.d., so the
   linear extrapolation of the serial time is honest and recorded).

2. **The scalar tail finisher.**  On deep-tail workloads (the cycle's
   ``Θ(n² log n)`` settlement tails) the lock-step tick still costs a
   fixed number of NumPy calls when only a handful of repetitions
   survive; handing each straggler to the serial scalar micro-loop
   mid-stream trims those last seconds.  Measured by running the batched
   drivers with the finisher disabled (``tail_threshold=0``) vs enabled,
   for ``sequential``, ``c-sequential`` (where the win is ~1.5–2×: one
   walking particle per repetition makes the lock-step width collapse
   with the stragglers) and ``parallel`` (whose wide batch keeps the
   lock-step amortised much longer — the finisher must at least not
   regress it).

Set ``BENCH_STREAM_*`` environment variables to shrink the workloads
(CI smoke); the speedup assertions only arm at full size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _common import emit, run_once
from repro.core import (
    batched_continuous_sequential_idla,
    batched_parallel_idla,
    batched_sequential_idla,
)
from repro.experiments import estimate_dispersion
from repro.experiments.runner import _use_batched
from repro.graphs import cycle_graph
from repro.utils.rng import spawn_seed_sequences

# ---- workload 1: the over-the-old-cap batch
N = int(os.environ.get("BENCH_STREAM_N", 64))
REPS = int(os.environ.get("BENCH_STREAM_REPS", 2560))
SERIAL_REPS = int(os.environ.get("BENCH_STREAM_SERIAL_REPS", 128))
#: the retired cap and the old preallocation estimate it compared against
OLD_CAP_DOUBLES = 2**25
OLD_BLOCK_DOUBLES = 16384

# ---- workload 2: deep-tail finisher (cycle family)
TAIL_N = int(os.environ.get("BENCH_STREAM_TAIL_N", 256))
TAIL_REPS = int(os.environ.get("BENCH_STREAM_TAIL_REPS", 16))
PAR_TAIL_N = int(os.environ.get("BENCH_STREAM_PAR_TAIL_N", 512))
PAR_TAIL_REPS = int(os.environ.get("BENCH_STREAM_PAR_TAIL_REPS", 100))

SEED = 77
FULL_SIZE = (N, REPS, TAIL_N, TAIL_REPS, PAR_TAIL_N, PAR_TAIL_REPS) == (
    64,
    2560,
    256,
    16,
    512,
    100,
)


def _cap_lift():
    g = cycle_graph(N)
    old_estimate = REPS * OLD_BLOCK_DOUBLES
    # the old cap would have declined this batch; auto dispatch now takes it
    declined_by_old_cap = old_estimate > OLD_CAP_DOUBLES
    batches_now = _use_batched("parallel", REPS, {}, "auto")

    t0 = time.perf_counter()
    batched = estimate_dispersion(g, "parallel", reps=REPS, seed=SEED)
    batched_s = time.perf_counter() - t0

    serial_reps = min(SERIAL_REPS, REPS)
    t0 = time.perf_counter()
    serial = estimate_dispersion(
        g, "parallel", reps=serial_reps, seed=SEED, batched=False
    )
    serial_s = (time.perf_counter() - t0) * (REPS / serial_reps)

    assert np.array_equal(
        serial.samples, batched.samples[:serial_reps]
    ), "batched samples diverged from the serial oracle"
    return {
        "old_estimate_doubles": old_estimate,
        "declined_by_old_cap": declined_by_old_cap,
        "batches_now": batches_now,
        "serial_s": serial_s,
        "serial_reps_timed": serial_reps,
        "batched_s": batched_s,
        "speedup": serial_s / batched_s,
    }


def _finisher(driver, n, reps, toggle_kwarg=True):
    g = cycle_graph(n)

    def run(threshold):
        seeds = spawn_seed_sequences(SEED, reps)
        t0 = time.perf_counter()
        if toggle_kwarg:
            out = driver(g, seeds=seeds, tail_threshold=threshold)
        else:
            # c-sequential rides batched_sequential's module default; the
            # numpy provider keeps it on lock-step (a compiled one would
            # run every repetition in one compiled loop either way)
            import repro.core.batched as batched_mod

            saved = batched_mod._TAIL_THRESHOLD
            batched_mod._TAIL_THRESHOLD = threshold
            try:
                out = driver(g, seeds=seeds, kernels="numpy")
            finally:
                batched_mod._TAIL_THRESHOLD = saved
        return time.perf_counter() - t0, out

    off_s, off_res = run(0)
    on_s, on_res = run(16)
    for a, b in zip(off_res, on_res):
        assert a.dispersion_time == b.dispersion_time, "finisher changed a result"
        assert np.array_equal(a.steps, b.steps), "finisher changed a result"
    return {"off_s": off_s, "on_s": on_s, "speedup": off_s / on_s}


def _experiment():
    cap = _cap_lift()
    seq = _finisher(batched_sequential_idla, TAIL_N, TAIL_REPS)
    cseq = _finisher(
        batched_continuous_sequential_idla, TAIL_N, TAIL_REPS, toggle_kwarg=False
    )
    par = _finisher(batched_parallel_idla, PAR_TAIL_N, PAR_TAIL_REPS)

    assert cap["batches_now"], "auto dispatch must batch the over-cap workload"
    if FULL_SIZE:
        assert cap["declined_by_old_cap"], "workload must exceed the old cap"
        assert cap["speedup"] >= 1.5, (
            f"streamed batching only {cap['speedup']:.2f}x over serial"
        )
        assert seq["speedup"] >= 1.2, (
            f"sequential finisher only {seq['speedup']:.2f}x"
        )
        assert cseq["speedup"] >= 1.2, (
            f"c-sequential finisher only {cseq['speedup']:.2f}x"
        )
        assert par["speedup"] >= 0.85, (
            f"parallel finisher regressed to {par['speedup']:.2f}x"
        )
    return {"cap": cap, "seq": seq, "cseq": cseq, "par": par}


def bench_streaming_buffers(benchmark, capsys):
    out = run_once(benchmark, _experiment)
    cap, seq, cseq, par = out["cap"], out["seq"], out["cseq"], out["par"]
    emit(
        capsys,
        "streaming_buffers",
        f"Streaming uniform buffers (cycle n={N}, reps={REPS}) + scalar tail "
        f"finisher (cycle deep tails)",
        ["workload", "baseline (s)", "streamed (s)", "speedup"],
        [
            [
                f"parallel n={N} reps={REPS} (old cap declined: serial)",
                round(cap["serial_s"], 1),
                round(cap["batched_s"], 1),
                round(cap["speedup"], 2),
            ],
            [
                f"sequential tail n={TAIL_N} reps={TAIL_REPS}",
                round(seq["off_s"], 1),
                round(seq["on_s"], 1),
                round(seq["speedup"], 2),
            ],
            [
                f"c-sequential tail n={TAIL_N} reps={TAIL_REPS}",
                round(cseq["off_s"], 1),
                round(cseq["on_s"], 1),
                round(cseq["speedup"], 2),
            ],
            [
                f"parallel tail n={PAR_TAIL_N} reps={PAR_TAIL_REPS}",
                round(par["off_s"], 1),
                round(par["on_s"], 1),
                round(par["speedup"], 2),
            ],
        ],
        extra={
            "old_buffer_estimate_doubles": cap["old_estimate_doubles"],
            "old_cap_doubles": OLD_CAP_DOUBLES,
            "declined_by_old_cap": cap["declined_by_old_cap"],
            "serial_reps_timed": cap["serial_reps_timed"],
            "finisher_rows_baseline": "batched with tail_threshold=0",
        },
    )
