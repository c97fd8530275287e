"""Streaming uniform buffers + the scalar tail finisher.

Three contracts under test:

* **finisher handoff bit-identity** — handing straggler repetitions to
  the serial scalar micro-loop mid-stream must not change a bit, for any
  handoff threshold (never / default / immediately), across all five
  processes and the draw-pattern variants (lazy holds, random
  tie-break, ``m ≠ n``, custom rules);
* **chunk-invariance of the streaming draws** — the per-repetition refill
  chunk size must be invisible in the results (NumPy double streams have
  no block boundaries), including chunks far smaller than the serial
  fetch blocks;
* **sizing honesty** — ``buffer_doubles`` must report exactly what the
  drivers' :class:`repro.utils.rng.UniformStreams` allocate (the old
  version sized ``c-sequential`` with an unrelated module constant), the
  total must stay within the streaming budget, and the sequential
  driver must leave every generator at the serial stream position (the
  Poissonised driver keeps consuming it).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.batched as batched_mod
import repro.core.batched_continuous as bc_mod
import repro.core.parallel as parallel_mod
from repro.core import (
    DelayedRule,
    batched_continuous_sequential_idla,
    batched_ctu_idla,
    batched_parallel_idla,
    batched_sequential_idla,
    batched_uniform_idla,
    continuous_sequential_idla,
    ctu_idla,
    parallel_idla,
    sequential_idla,
    uniform_idla,
)
from repro.core.batched import buffer_doubles, stream_block
from repro.experiments.stats import bootstrap_ci
from repro.graphs import complete_graph, cycle_graph, grid_graph
from repro.kernels import available_kernels
from repro.utils.rng import (
    UniformStream,
    UniformStreams,
    as_generator,
    resolve_stream_block,
    spawn_generators,
    spawn_seed_sequences,
)

PARENT_SEED = 20260731

#: Every provider available here: numpy runs the parallel lock-step
#: body, a compiled one the per-repetition loop.
PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]


def assert_results_identical(serial, batch, extras=()):
    assert len(serial) == len(batch)
    for s, b in zip(serial, batch):
        assert s.process == b.process
        assert s.origin == b.origin
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert s.ticks == b.ticks
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name)), name


# ----------------------------------------------------------------------
# finisher handoff bit-identity
# ----------------------------------------------------------------------

#: never hand off / module default / hand off from round 0
TAIL_THRESHOLDS = [0, None, 10**9]

PARALLEL_VARIANTS = [
    {},
    {"lazy": True},
    # "switch" patches the serial driver's vector-to-scalar switch (the
    # handoff reads it too): the lock-step rounds run down to 2 walkers
    {"lazy": True, "switch": 2},
    {"tie_break": "random"},
    {"num_particles": 9},
    {"num_particles": 40},  # m > n: surplus particles
]

SEQUENTIAL_VARIANTS = [
    {},
    {"lazy": True},
    {"num_particles": 9},
]


@pytest.mark.parametrize("threshold", TAIL_THRESHOLDS, ids=lambda t: f"tail={t}")
@pytest.mark.parametrize(
    "variant", PARALLEL_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_parallel_finisher_bit_identical(variant, threshold, monkeypatch):
    g = cycle_graph(32)
    variant = dict(variant)
    if "switch" in variant:
        monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", variant.pop("switch"))
    serial = [
        parallel_idla(g, seed=s, **variant)
        for s in spawn_seed_sequences(PARENT_SEED, 5)
    ]
    batch = batched_parallel_idla(
        g,
        seeds=spawn_seed_sequences(PARENT_SEED, 5),
        tail_threshold=threshold,
        **variant,
    )
    assert_results_identical(serial, batch)


@pytest.mark.parametrize("threshold", TAIL_THRESHOLDS, ids=lambda t: f"tail={t}")
@pytest.mark.parametrize(
    "variant", SEQUENTIAL_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_sequential_finisher_bit_identical(variant, threshold):
    g = cycle_graph(32)
    serial = [
        sequential_idla(g, seed=s, **variant)
        for s in spawn_seed_sequences(PARENT_SEED, 5)
    ]
    batch = batched_sequential_idla(
        g,
        seeds=spawn_seed_sequences(PARENT_SEED, 5),
        tail_threshold=threshold,
        **variant,
    )
    assert_results_identical(serial, batch)


@pytest.mark.parametrize("reps", [2, 16, 24])
def test_parallel_reps_straddle_default_threshold(reps):
    """Repetition counts below / at / above the default handoff total:
    small batches go straight to the finisher, large ones cross into it
    mid-run as stragglers thin out — all bit-identical to serial."""
    g = cycle_graph(24)
    serial = [
        parallel_idla(g, seed=s) for s in spawn_seed_sequences(PARENT_SEED, reps)
    ]
    for kernels in PROVIDERS:
        batch = batched_parallel_idla(
            g, seeds=spawn_seed_sequences(PARENT_SEED, reps), kernels=kernels
        )
        assert_results_identical(serial, batch)


@pytest.mark.parametrize("reps", [2, 16, 24])
def test_sequential_reps_straddle_default_threshold(reps):
    g = cycle_graph(24)
    serial = [
        sequential_idla(g, seed=s)
        for s in spawn_seed_sequences(PARENT_SEED, reps)
    ]
    batch = batched_sequential_idla(g, seeds=spawn_seed_sequences(PARENT_SEED, reps))
    assert_results_identical(serial, batch)


def test_parallel_finisher_with_custom_rule():
    g = grid_graph(5, 5)
    rule = DelayedRule(3)
    serial = [
        parallel_idla(g, seed=s, rule=rule)
        for s in spawn_seed_sequences(3, 4)
    ]
    batch = batched_parallel_idla(
        g, seeds=spawn_seed_sequences(3, 4), rule=rule, tail_threshold=10**9
    )
    assert_results_identical(serial, batch)


def test_sequential_finisher_budget_error_matches_serial():
    g = cycle_graph(64)
    with pytest.raises(RuntimeError, match="max_total_steps=5"):
        batched_sequential_idla(
            g,
            seeds=spawn_seed_sequences(0, 3),
            max_total_steps=5,
            tail_threshold=10**9,
        )
    with pytest.raises(RuntimeError, match="max_rounds=5"):
        batched_parallel_idla(
            g, seeds=spawn_seed_sequences(0, 3), max_rounds=5, tail_threshold=10**9
        )


def test_tail_threshold_validation():
    g = cycle_graph(8)
    with pytest.raises(ValueError, match="tail_threshold"):
        batched_parallel_idla(g, reps=2, tail_threshold=-1)
    with pytest.raises(ValueError, match="tail_threshold"):
        batched_sequential_idla(g, reps=2, tail_threshold=-1)


@pytest.mark.parametrize("default", [1, 4, 64])
def test_cseq_rides_finisher_at_any_default_threshold(monkeypatch, default):
    """c-sequential consumes each generator *after* the discrete walks,
    so the finisher (engaged at whatever module default) must land every
    generator exactly on the serial fetch grid."""
    monkeypatch.setattr(batched_mod, "_TAIL_THRESHOLD", default)
    g = cycle_graph(24)
    serial = [
        continuous_sequential_idla(g, seed=s)
        for s in spawn_seed_sequences(PARENT_SEED, 6)
    ]
    batch = batched_continuous_sequential_idla(
        g, seeds=spawn_seed_sequences(PARENT_SEED, 6)
    )
    assert_results_identical(serial, batch, ["durations"])


def test_all_five_processes_bit_identical_across_thresholds(monkeypatch):
    """One sweep over every process at repetition counts straddling the
    handoff threshold (the tick-scheduled drivers have no finisher but
    share the streaming buffers)."""
    monkeypatch.setattr(batched_mod, "_TAIL_THRESHOLD", 4)
    g = grid_graph(5, 5)
    pairs = [
        (parallel_idla, batched_parallel_idla),
        (sequential_idla, batched_sequential_idla),
        (uniform_idla, batched_uniform_idla),
        (ctu_idla, batched_ctu_idla),
        (continuous_sequential_idla, batched_continuous_sequential_idla),
    ]
    for reps in (3, 4, 8):
        for serial_driver, batched_driver in pairs:
            serial = [
                serial_driver(g, seed=s)
                for s in spawn_seed_sequences(PARENT_SEED, reps)
            ]
            for kernels in PROVIDERS:
                batch = batched_driver(
                    g,
                    seeds=spawn_seed_sequences(PARENT_SEED, reps),
                    kernels=kernels,
                )
                assert_results_identical(serial, batch)


def test_sequential_generators_land_on_serial_positions():
    """After batched_sequential_idla — finisher or not — each repetition's
    generator must sit exactly where the serial driver leaves it, so any
    later consumer (the Gamma durations) reads the serial stream."""
    g = cycle_graph(24)
    for threshold in (0, 10**9):
        serial_gens = [
            as_generator(s) for s in spawn_seed_sequences(PARENT_SEED, 4)
        ]
        batch_gens = [
            as_generator(s) for s in spawn_seed_sequences(PARENT_SEED, 4)
        ]
        for gen in serial_gens:
            sequential_idla(g, seed=gen)
        batched_sequential_idla(g, seeds=batch_gens, tail_threshold=threshold)
        for sg, bg in zip(serial_gens, batch_gens):
            assert np.array_equal(sg.random(8), bg.random(8))


# ----------------------------------------------------------------------
# chunk-invariance of the streaming draws
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block", [64, 256, 4096])
def test_synchronous_chunk_invariance(monkeypatch, block):
    """Tiny refill chunks (powers of two, dividing the serial fetch
    block) must reproduce the serial results exactly — the streaming
    scheme's whole correctness argument."""
    g = cycle_graph(24)
    ref_par = [parallel_idla(g, seed=s) for s in spawn_seed_sequences(11, 5)]
    ref_seq = [sequential_idla(g, seed=s) for s in spawn_seed_sequences(11, 5)]
    monkeypatch.setattr(batched_mod, "_BLOCK", block)
    assert_results_identical(
        ref_par,
        batched_parallel_idla(
            g, seeds=spawn_seed_sequences(11, 5), tail_threshold=0
        ),
    )
    assert_results_identical(
        ref_seq,
        batched_sequential_idla(
            g, seeds=spawn_seed_sequences(11, 5), tail_threshold=0
        ),
    )
    # and with the finisher crossing a chunk boundary mid-stream (the
    # default threshold passed explicitly: left at None, a compiled
    # provider would skip lock-step altogether)
    assert_results_identical(
        ref_par,
        batched_parallel_idla(
            g,
            seeds=spawn_seed_sequences(11, 5),
            tail_threshold=batched_mod._TAIL_THRESHOLD,
        ),
    )
    assert_results_identical(
        ref_seq,
        batched_sequential_idla(g, seeds=spawn_seed_sequences(11, 5)),
    )


@pytest.mark.parametrize("block", [2, 8, 64])
def test_tick_scheduled_chunk_invariance(monkeypatch, block):
    """The continuous drivers' streaming chunks may be any power of two
    from one tick's 2 doubles up to the serial fetch block."""
    g = cycle_graph(24)
    ref_ctu = [ctu_idla(g, seed=s) for s in spawn_seed_sequences(11, 5)]
    ref_uni = [uniform_idla(g, seed=s) for s in spawn_seed_sequences(11, 5)]
    monkeypatch.setattr(bc_mod, "_BLOCK", block)
    assert_results_identical(
        ref_ctu,
        batched_ctu_idla(g, seeds=spawn_seed_sequences(11, 5)),
        ["settle_clock"],
    )
    assert_results_identical(
        ref_uni, batched_uniform_idla(g, seeds=spawn_seed_sequences(11, 5))
    )


def test_uniform_stream_initial_prefix_continues_stream():
    """A stream primed with leftover doubles is the same stream: prefix
    first, then the generator, across refills — with `drawn` counting
    only generator fetches."""
    ref = as_generator(42).random(40)
    gen = as_generator(42)
    prefix = gen.random(10)  # simulate a buffer drawn ahead of consumption
    s = UniformStream(gen, block=8, initial=prefix)
    assert s.drawn == 0
    got = [s.uniform() for _ in range(40)]
    assert np.array_equal(np.asarray(got), ref)
    assert s.drawn == 32  # four 8-blocks fetched past the prefix


def test_uniform_streams_tail_and_refill_roundtrip():
    """UniformStreams row draws equal one flat per-repetition stream,
    through fill, remainder-copy refills and a tail handoff."""
    gens = spawn_generators(7, 2)
    streams = UniformStreams(gens, per_rep_min=4, block=16)
    streams.fill(range(2))
    consumed = [streams.buf[r, :10].tolist() for r in range(2)]
    for r in range(2):
        streams.refill_tail(r, 10)
        consumed[r].extend(streams.buf[r, :6])  # the moved-down remainder
    tails = [streams.tail(r, 6) for r in range(2)]
    for r in range(2):
        consumed[r].extend(tails[r].uniform() for _ in range(30))
        ref = spawn_generators(7, 2)[r].random(46)
        assert np.array_equal(np.asarray(consumed[r]), ref)


# ----------------------------------------------------------------------
# sizing honesty
# ----------------------------------------------------------------------


def test_buffer_doubles_matches_actual_allocation():
    """The reported size equals the real UniformStreams allocation, per
    process — including c-sequential, which rides the sequential driver
    (the regression the old per-module block constants got wrong)."""
    cases = [
        ("parallel", 100, 64),
        ("parallel", 50000, 64),
        ("sequential", 100, 64),
        ("sequential", 50000, 64),
        ("ctu", 33, 64),
        ("uniform", 4097, 64),
    ]
    for process, reps, m in cases:
        gens = spawn_generators(0, reps)
        if process == "parallel":
            streams = batched_mod._parallel_streams(gens, m)
        elif process == "sequential":
            streams = batched_mod._sequential_streams(gens)
        else:
            streams = bc_mod._lane_streams(process, gens)
        assert buffer_doubles(process, reps, m) == streams.buf.size, process
    # c-sequential's allocation is the sequential driver's
    assert buffer_doubles("c-sequential", 640, 64) == buffer_doubles(
        "sequential", 640, 64
    )
    with pytest.raises(ValueError, match="no synchronous"):
        stream_block("ctu", 4, 4)
    with pytest.raises(ValueError, match="no tick-scheduled"):
        bc_mod.stream_block("parallel", 4, 4)


def test_resolve_stream_block_policy():
    from repro.utils.rng import _STREAM_BUDGET_DOUBLES, _STREAM_MAX_BLOCK

    # budget bound: R * block <= budget once R exceeds budget/max_block
    for reps in (1, 64, 1000, 10**5, 10**6):
        block = resolve_stream_block(reps, per_rep_min=1)
        assert block <= _STREAM_MAX_BLOCK
        if reps * _STREAM_MAX_BLOCK > _STREAM_BUDGET_DOUBLES and block > 1:
            assert reps * block <= _STREAM_BUDGET_DOUBLES
    # per-repetition floor always wins (one round must fit)
    assert resolve_stream_block(10**6, per_rep_min=2048) == 2048
    # align: result divides the serial fetch block
    for reps in (1, 100, 50000):
        block = resolve_stream_block(reps, align=16384)
        assert 16384 % block == 0
    assert resolve_stream_block(1, align=16384) == 16384
    # align + per_rep_min: the floor survives the power-of-two rounding
    tiny = resolve_stream_block(10**7, per_rep_min=5, align=16384)
    assert tiny >= 5 and 16384 % tiny == 0
    # overrides are validated
    with pytest.raises(ValueError, match="power of two"):
        resolve_stream_block(4, align=100)
    with pytest.raises(ValueError, match="divide"):
        resolve_stream_block(4, align=16384, block=100)
    with pytest.raises(ValueError, match="minimum"):
        resolve_stream_block(4, per_rep_min=8, block=4)
    with pytest.raises(ValueError, match="exceed align"):
        resolve_stream_block(4, per_rep_min=32768, align=16384)


# ----------------------------------------------------------------------
# runner plumbing for the tail_threshold knob
# ----------------------------------------------------------------------


def test_runner_accepts_tail_threshold():
    """The knob flows through every dispatch mode without changing a
    sample: batched drivers receive it, serial paths strip it (it is a
    performance knob the serial oracles have no counterpart for)."""
    from repro.experiments import estimate_dispersion

    g = cycle_graph(24)
    ref = estimate_dispersion(g, "parallel", reps=6, seed=2, batched=False)
    for mode in (True, "auto", False):
        for threshold in (0, 10**9):
            est = estimate_dispersion(
                g,
                "parallel",
                reps=6,
                seed=2,
                batched=mode,
                tail_threshold=threshold,
            )
            assert np.array_equal(ref.samples, est.samples), (mode, threshold)
    # below the auto crossover the serial fallback strips the knob too
    low = estimate_dispersion(
        g, "parallel", reps=2, seed=2, tail_threshold=4
    )
    low_ref = estimate_dispersion(g, "parallel", reps=2, seed=2)
    assert np.array_equal(low.samples, low_ref.samples)
    # and the fan-out path forwards it per shard
    fanned = estimate_dispersion(
        g, "sequential", reps=4, seed=2, n_jobs=2, tail_threshold=2
    )
    fanned_ref = estimate_dispersion(g, "sequential", reps=4, seed=2)
    assert np.array_equal(fanned.samples, fanned_ref.samples)
    # processes with no batched counterpart for the knob still reject it
    with pytest.raises(TypeError, match="tail_threshold"):
        estimate_dispersion(g, "uniform", reps=2, seed=2, tail_threshold=4)


# ----------------------------------------------------------------------
# bootstrap_ci fast path
# ----------------------------------------------------------------------


def test_bootstrap_ci_mean_fast_path_unchanged():
    """The vectorised default-statistic path returns the identical
    interval for a fixed seed, and matches the generic path bitwise."""
    rng = np.random.default_rng(5)
    x = rng.gamma(2.0, 3.0, size=200)
    lo, hi = bootstrap_ci(x, seed=123)
    assert (lo, hi) == bootstrap_ci(x, seed=123)
    # the generic path, forced through a wrapper that is not np.mean
    lo_ref, hi_ref = bootstrap_ci(x, stat=lambda row: np.mean(row), seed=123)
    assert (lo, hi) == (lo_ref, hi_ref)
    # the interval brackets the sample mean for a well-behaved sample
    assert lo < float(x.mean()) < hi
    # non-default statistics still work
    lo_med, hi_med = bootstrap_ci(x, stat=np.median, seed=123)
    assert lo_med < float(np.median(x)) < hi_med
