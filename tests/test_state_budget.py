"""Unit and edge-case tests of the budgeted resident-state layer.

The differential harness (``tests/test_differential_drivers.py``) pins
every budget geometry bit-identical to the serial oracles; this module
covers the layer's own contracts:

* budget-spec parsing and normalisation;
* :func:`plan_state` boundary behaviours — a budget larger than the
  whole run is a *no-op plan* (the drivers take their unbudgeted
  allocation path unchanged), a budget smaller than one repetition's
  floor still runs (``cohort_reps`` never drops below 1);
* cohort boundaries straddling the scalar tail finisher;
* cohort-aligned fan-out shard planning;
* the zero-copy trajectory array view (:class:`TrajectoryArrays`,
  ``DispersionResult.trajectory_arrays()``, ``Block`` accepting both
  row shapes) and the chunked occupancy probe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import batched_parallel_idla, batched_sequential_idla, stream_block
from repro.core.blocks import Block
from repro.core.budget import (
    NO_BUDGET_PLAN,
    StateBudget,
    as_state_budget,
    cohort_slices,
    parse_state_budget,
    plan_state,
    resident_bytes_per_rep,
)
from repro.core.parallel import parallel_idla
from repro.core.settlement import chunked_vacancies
from repro.core.trajectory import TrajectoryArrays
from repro.experiments.fanout import budget_aligned_shard, plan_shards
from repro.experiments.runner import estimate_dispersion
from repro.graphs import cycle_graph
from repro.kernels import available_kernels
from repro.utils.rng import spawn_seed_sequences

#: Every provider available here: numpy runs the parallel lock-step
#: body, a compiled one the per-repetition loop.
PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]

# ---------------------------------------------------------------------------
# parsing / normalisation


def test_parse_bytes_suffixes():
    assert parse_state_budget("4096") == StateBudget(bytes=4096)
    assert parse_state_budget("2k") == StateBudget(bytes=2048)
    assert parse_state_budget("256M") == StateBudget(bytes=256 * 1024**2)
    assert parse_state_budget("1G") == StateBudget(bytes=1024**3)
    assert parse_state_budget(" 16 K ") == StateBudget(bytes=16384)


def test_parse_particles():
    assert parse_state_budget("500000p") == StateBudget(particles=500000)
    assert parse_state_budget("8P") == StateBudget(particles=8)


@pytest.mark.parametrize("bad", ["", "nonsense", "12kp", "-4", "1.5G", "p"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_state_budget(bad)


def test_budget_validation():
    with pytest.raises(ValueError):
        StateBudget()
    with pytest.raises(ValueError):
        StateBudget(bytes=0)
    with pytest.raises(ValueError):
        StateBudget(particles=0)


def test_as_state_budget_normalises():
    b = StateBudget(particles=4)
    assert as_state_budget(None) is None
    assert as_state_budget(b) is b
    assert as_state_budget("64p") == StateBudget(particles=64)


def test_as_state_budget_accepts_integral_byte_counts():
    """Regression: a plain int byte count used to raise TypeError even
    though the identical value as a string parsed."""
    assert as_state_budget(268435456) == as_state_budget("268435456")
    assert as_state_budget(1024) == StateBudget(bytes=1024)
    assert as_state_budget(np.int64(1024)) == StateBudget(bytes=1024)
    with pytest.raises(TypeError):
        as_state_budget(True)  # a bool is not a byte count
    with pytest.raises(TypeError):
        as_state_budget(1024.0)  # floats stay rejected: bytes are counted


# ---------------------------------------------------------------------------
# plan_state boundaries


def test_no_budget_is_noop_plan():
    plan = plan_state(None, "parallel", 1000, 1000)
    assert plan is NO_BUDGET_PLAN
    assert plan.is_noop(10**9)


def test_huge_budget_resolves_to_noop():
    """A budget larger than the whole run forces nothing: no cohorts, no
    chunking, and — critically — no stream shrink, so the drivers take
    byte-for-byte the same allocation path as with no budget at all."""
    plan = plan_state(StateBudget(bytes=2**40), "parallel", 1000, 1000)
    assert plan.is_noop(4096)
    assert plan.step_chunk is None
    assert plan.stream_budget_doubles is None
    # the stream sizing the drivers derive is identical to the default
    assert stream_block(
        "parallel", 64, 1000, budget_doubles=plan.stream_budget_doubles
    ) == stream_block("parallel", 64, 1000)


def test_tiny_budget_never_drops_below_one_rep():
    n = m = 1000
    floor = resident_bytes_per_rep("parallel", n, m)
    plan = plan_state(StateBudget(bytes=floor // 100), "parallel", n, m)
    assert plan.cohort_reps == 1  # documented floor, not an error


def test_particle_cap_below_m_chunks_parallel_rounds():
    plan = plan_state(StateBudget(particles=100), "parallel", 1000, 1000)
    assert plan.cohort_reps == 1
    assert plan.step_chunk == 100
    # non-parallel processes cohort but never chunk
    seq = plan_state(StateBudget(particles=100), "sequential", 1000, 1000)
    assert seq.cohort_reps == 1 and seq.step_chunk is None


def test_byte_budget_shrinks_streams_only_downward():
    small = plan_state(StateBudget(bytes=2**16), "uniform", 1000, 1000)
    assert small.stream_budget_doubles == 2**16 // 32
    big = plan_state(StateBudget(bytes=2**34), "uniform", 1000, 1000)
    assert big.stream_budget_doubles is None


def test_cohort_slices_cover_contiguously():
    assert list(cohort_slices(7, 3)) == [(0, 3), (3, 6), (6, 7)]
    assert list(cohort_slices(3, 10)) == [(0, 3)]


def test_unknown_process_raises():
    with pytest.raises(ValueError, match="resident-state model"):
        resident_bytes_per_rep("quantum", 10, 10)


# ---------------------------------------------------------------------------
# driver edge cases


def test_budget_smaller_than_one_rep_still_runs():
    g = cycle_graph(24)
    plain = batched_parallel_idla(g, 0, seeds=spawn_seed_sequences(3, 4))
    for kernels in PROVIDERS:
        tight = batched_parallel_idla(
            g, 0, seeds=spawn_seed_sequences(3, 4),
            state_budget=StateBudget(particles=1), kernels=kernels,
        )
        for s, b in zip(plain, tight):
            assert s.dispersion_time == b.dispersion_time
            assert np.array_equal(s.steps, b.steps)


def test_huge_budget_matches_unbudgeted_results():
    g = cycle_graph(24)
    plain = batched_sequential_idla(g, 0, seeds=spawn_seed_sequences(3, 4))
    roomy = batched_sequential_idla(
        g,
        0,
        seeds=spawn_seed_sequences(3, 4),
        state_budget=StateBudget(bytes=2**40),
    )
    for s, b in zip(plain, roomy):
        assert s.dispersion_time == b.dispersion_time
        assert np.array_equal(s.settled_at, b.settled_at)


def test_cohorts_straddle_scalar_tail_finisher():
    """Cohorts of 9 over 24 repetitions with the default tail threshold:
    every cohort crosses into the scalar finisher independently, and the
    mid-walk handoff still replays the serial oracle bit for bit."""
    g = cycle_graph(32)
    reps = 24
    serial = [
        parallel_idla(g, 0, seed=s, record=True)
        for s in spawn_seed_sequences(11, reps)
    ]
    batch = batched_parallel_idla(
        g,
        0,
        seeds=spawn_seed_sequences(11, reps),
        record=True,
        state_budget=StateBudget(particles=32 * 9),
    )
    for s, b in zip(serial, batch):
        assert s.dispersion_time == b.dispersion_time
        assert np.array_equal(s.steps, b.steps)
        assert s.trajectories == b.trajectories


def test_string_budget_accepted_by_drivers_and_runner():
    g = cycle_graph(24)
    a = batched_parallel_idla(g, 0, seeds=spawn_seed_sequences(5, 4))
    for kernels in PROVIDERS:
        b = batched_parallel_idla(
            g, 0, seeds=spawn_seed_sequences(5, 4), state_budget="48p",
            kernels=kernels,
        )
        assert [r.dispersion_time for r in a] == [r.dispersion_time for r in b]
    est = estimate_dispersion(g, "parallel", reps=4, seed=5, batched=True,
                              state_budget="48p")
    est2 = estimate_dispersion(g, "parallel", reps=4, seed=5, batched=False)
    assert np.array_equal(est.samples, est2.samples)


# ---------------------------------------------------------------------------
# fan-out shard alignment


def test_budget_aligned_shard_rounds_down_to_cohorts():
    assert budget_aligned_shard(64, 4, 6) == 12
    assert budget_aligned_shard(8, 4, 6) == 6  # never below one cohort
    assert budget_aligned_shard(64, 4, 6, max_shard=7) == 6
    assert budget_aligned_shard(64, 4, 16) == 16


def test_budget_aligned_shard_validates():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            budget_aligned_shard(*bad)


def test_aligned_shards_partition_reps():
    cap = budget_aligned_shard(24, 4, 9)
    shards = plan_shards(24, 4, max_shard=cap)
    assert shards[0][1] - shards[0][0] <= cap
    assert shards[-1][1] == 24 and shards[0][0] == 0


# ---------------------------------------------------------------------------
# trajectory arrays / Block interop


def _sample_lists():
    return [[3], [3, 2, 1], [1, 0], [0, 5, 6, 4]]


def test_trajectory_arrays_roundtrip_and_views():
    rows = _sample_lists()
    arrs = TrajectoryArrays.from_lists(rows)
    assert len(arrs) == 4
    assert arrs.to_lists() == rows
    assert [list(r) for r in arrs] == rows
    # row() is a zero-copy view into the flat buffer
    assert arrs.row(1).base is arrs.flat or arrs.row(1).base is arrs.flat.base
    assert arrs[3].tolist() == rows[3]


def test_trajectory_arrays_equality_both_directions():
    rows = _sample_lists()
    arrs = TrajectoryArrays.from_lists(rows)
    assert arrs == TrajectoryArrays.from_lists(rows)
    assert arrs == rows and rows == arrs  # reflected eq via NotImplemented
    assert arrs != rows[:-1]
    assert TrajectoryArrays.__hash__ is None  # mutable views: unhashable


def test_block_accepts_array_and_list_rows():
    rows = _sample_lists()
    from_arrays = Block(TrajectoryArrays.from_lists(rows))
    from_lists = Block(rows)
    assert from_arrays.rows == from_lists.rows
    assert all(isinstance(v, int) for r in from_arrays.rows for v in r)


def test_result_trajectory_arrays_accessor():
    g = cycle_graph(16)
    res = parallel_idla(g, 0, seed=1, record=True)
    assert isinstance(res.trajectories, TrajectoryArrays)
    assert res.trajectory_arrays() is res.trajectories
    bare = parallel_idla(g, 0, seed=1)
    with pytest.raises(ValueError, match="record"):
        bare.trajectory_arrays()


# ---------------------------------------------------------------------------
# chunked occupancy probe


@pytest.mark.parametrize("chunk", [None, 1, 3, 7, 64])
def test_chunked_vacancies_matches_global_probe(chunk):
    rng = np.random.default_rng(9)
    occ = (rng.random(20 * 40) < 0.5).astype(np.uint8)
    rep_off = rng.integers(0, 20, size=37) * 40
    pos = rng.integers(0, 40, size=37)
    expect = np.flatnonzero(occ[rep_off + pos] == 0)
    got = chunked_vacancies(occ, rep_off, pos, chunk)
    assert np.array_equal(got, expect)
    assert got.dtype == expect.dtype or got.size == 0
