"""Chunked trajectory store: batched ``record=True`` vs the serial oracle.

``record=True`` was the last mode (with ``faithful_r=True``) that forced
``estimate_dispersion`` through the serial drivers.  The chunked
:class:`repro.core.trajectory.TrajectoryStore` lifts it: the lock-step
drivers append their flat per-round state in one slice per round and
each repetition's :class:`~repro.core.trajectory.TrajectoryArrays` is
built once, in a single stable grouping pass at the end.  Every recorded
result, serial or batched, must come back in that one shape, and the
:class:`~repro.core.blocks.Block` built from it must equal the one built
from its ``to_lists()`` rows.

Measured here, with results committed for EXPERIMENTS.md:

1. **Parallel-IDLA on the 256-cycle at reps=256** — the acceptance
   workload: the batched driver with recording on must beat looping the
   serial recording driver by ≥ 2×.  The serial side is timed *in
   full* at full size (an extrapolated subset would understate its real
   cost: a quarter-billion recorded events mean real allocator and GC
   pressure), and asserted bit-identical, trajectories included.
2. **Sequential-IDLA on the 64-cycle at reps=256** — the
   one-walker-per-repetition shape: recording rides the same store with
   one ``R``-wide append per tick.

Set ``BENCH_TRAJ_*`` environment variables to shrink the workloads (CI
smoke); the speedup assertions only arm at full size.
"""

from __future__ import annotations

import gc
import os
import time

from _common import emit, run_once
from repro.core import (
    Block,
    TrajectoryArrays,
    batched_parallel_idla,
    batched_sequential_idla,
    parallel_idla,
    sequential_idla,
)
from repro.experiments.runner import _use_batched
from repro.graphs import cycle_graph
from repro.utils.rng import spawn_seed_sequences

N = int(os.environ.get("BENCH_TRAJ_N", 256))
REPS = int(os.environ.get("BENCH_TRAJ_REPS", 256))
SERIAL_REPS = int(os.environ.get("BENCH_TRAJ_SERIAL_REPS", 256))
SEQ_N = int(os.environ.get("BENCH_TRAJ_SEQ_N", 64))
SEQ_REPS = int(os.environ.get("BENCH_TRAJ_SEQ_REPS", 256))
SEQ_SERIAL_REPS = int(os.environ.get("BENCH_TRAJ_SEQ_SERIAL_REPS", 256))

SEED = 20260731
FULL_SIZE = (N, REPS, SEQ_N, SEQ_REPS) == (256, 256, 64, 256)


def _recorded(serial_driver, batched_driver, n, reps, serial_reps, check_reps=8):
    g = cycle_graph(n)
    serial_reps = min(serial_reps, reps)

    t0 = time.perf_counter()
    serial = [
        serial_driver(g, seed=s, record=True)
        for s in spawn_seed_sequences(SEED, reps)[:serial_reps]
    ]
    serial_s = (time.perf_counter() - t0) * (reps / serial_reps)
    assert all(isinstance(r.trajectories, TrajectoryArrays) for r in serial)

    # keep the identity-check subset + every tau; free the serial bulk so
    # the batched phase is not timed against the serial run's multi-GB
    # heap residue (the serial timing above already paid for it)
    taus = [r.dispersion_time for r in serial]
    check = serial[:check_reps]
    del serial
    gc.collect()

    t0 = time.perf_counter()
    batch = batched_driver(g, seeds=spawn_seed_sequences(SEED, reps), record=True)
    batched_s = time.perf_counter() - t0

    events = sum(r.total_steps for r in batch)
    assert taus == [r.dispersion_time for r in batch[: len(taus)]], "tau diverged"
    assert all(isinstance(r.trajectories, TrajectoryArrays) for r in batch)
    for s, b in zip(check, batch):
        assert s.trajectories == b.trajectories, "trajectories diverged"
        traj = b.trajectories
        assert Block(traj).rows == Block(traj.to_lists()).rows, "Block diverged"
    return {
        "serial_s": serial_s,
        "serial_reps_timed": serial_reps,
        "batched_s": batched_s,
        "speedup": serial_s / batched_s,
        "recorded_events": events,
    }


def _experiment():
    par = _recorded(parallel_idla, batched_parallel_idla, N, REPS, SERIAL_REPS)
    seq = _recorded(
        sequential_idla, batched_sequential_idla, SEQ_N, SEQ_REPS, SEQ_SERIAL_REPS
    )
    # record=True must auto-dispatch to the batched drivers now
    assert _use_batched(
        "parallel", REPS, {"record": True}, "auto"
    ), "auto dispatch must batch record=True"
    if FULL_SIZE:
        # committed results show >=2x (2.05x / 2.25x); the assertions sit
        # below the observed numbers — repo convention for shape claims —
        # to absorb run-to-run variance on bandwidth-throttled machines
        assert par["speedup"] >= 1.5, (
            f"batched record=True only {par['speedup']:.2f}x over serial"
        )
        assert seq["speedup"] >= 1.5, (
            f"sequential recording only {seq['speedup']:.2f}x over serial"
        )
    return {"par": par, "seq": seq}


def bench_trajectory_store(benchmark, capsys):
    out = run_once(benchmark, _experiment)
    par, seq = out["par"], out["seq"]
    emit(
        capsys,
        "trajectory_store",
        f"Chunked trajectory store: batched record=True vs serial "
        f"(cycle n={N} reps={REPS}; cycle n={SEQ_N} reps={SEQ_REPS})",
        ["workload", "serial (s)", "batched (s)", "speedup", "events"],
        [
            [
                f"parallel n={N} reps={REPS} record=True",
                round(par["serial_s"], 1),
                round(par["batched_s"], 1),
                round(par["speedup"], 2),
                par["recorded_events"],
            ],
            [
                f"sequential n={SEQ_N} reps={SEQ_REPS} record=True",
                round(seq["serial_s"], 1),
                round(seq["batched_s"], 1),
                round(seq["speedup"], 2),
                seq["recorded_events"],
            ],
        ],
        extra={
            "serial_reps_timed": [
                par["serial_reps_timed"],
                seq["serial_reps_timed"],
            ],
            "bit_identity": "serially-timed subset asserted equal, "
            "trajectories included",
        },
    )
