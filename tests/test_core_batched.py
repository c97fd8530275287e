"""Batched cross-repetition drivers vs the serial reference oracles.

The contract under test is *bit-identity*: with the same spawned child
streams, ``batched_parallel_idla`` / ``batched_sequential_idla`` must
reproduce every field of every ``DispersionResult`` the serial drivers
produce — dispersion times, per-particle step counts, settlement maps and
settle order — across graph families, laziness, tie-breaking, origin
specifications, particle-count variants and settling rules.  Plus
property-based shape checks for the ``WalkEngine.step_batch`` kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DelayedRule,
    HairRule,
    batched_parallel_idla,
    batched_sequential_idla,
    parallel_idla,
    sequential_idla,
)
from repro.core import parallel
from repro.experiments import estimate_dispersion, runner
from repro.kernels import available_kernels
from repro.graphs import (
    clique_with_hair,
    complete_graph,
    cycle_graph,
    grid_graph,
)
from repro.utils.rng import spawn_seed_sequences
from repro.walks.engine import WalkEngine

REPS = 5
PARENT_SEED = 20240517

#: Every provider available here: numpy runs the parallel lock-step
#: body, a compiled one the per-repetition loop.
PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]


def assert_results_identical(serial, batch):
    assert len(serial) == len(batch)
    for s, b in zip(serial, batch):
        assert s.process == b.process
        assert s.graph_name == b.graph_name
        assert s.n == b.n
        assert s.origin == b.origin
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        assert s.num_particles == b.num_particles
        assert b.trajectories is None


def graph_cases():
    return [cycle_graph(32), complete_graph(24), grid_graph(6, 5)]


PARALLEL_VARIANTS = [
    {},
    {"lazy": True},
    {"tie_break": "random"},
    {"origin": "uniform"},
    {"num_particles": 9},
    # "switch" patches the serial driver's vector-to-scalar switch
    pytest.param({"lazy": True, "switch": 4}, id="lazy,switch=4"),
    pytest.param({"lazy": True, "switch": 1000}, id="lazy,switch=1000"),  # all scalar
]

SEQUENTIAL_VARIANTS = [
    {},
    {"lazy": True},
    {"origin": "uniform"},
    {"num_particles": 9},
]


@pytest.mark.parametrize("g", graph_cases(), ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", PARALLEL_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_batched_parallel_bit_identical(g, variant, monkeypatch):
    kwargs = dict(variant)
    origin = kwargs.pop("origin", 0)
    if "switch" in kwargs:
        monkeypatch.setattr(parallel, "_SCALAR_THRESHOLD", kwargs.pop("switch"))
    serial = [
        parallel_idla(g, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, REPS)
    ]
    for kernels in PROVIDERS:
        batch = batched_parallel_idla(
            g,
            origin,
            seeds=spawn_seed_sequences(PARENT_SEED, REPS),
            kernels=kernels,
            **kwargs,
        )
        assert_results_identical(serial, batch)


@pytest.mark.parametrize("g", graph_cases(), ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", SEQUENTIAL_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_batched_sequential_bit_identical(g, variant):
    kwargs = dict(variant)
    origin = kwargs.pop("origin", 0)
    serial = [
        sequential_idla(g, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, REPS)
    ]
    batch = batched_sequential_idla(
        g, origin, seeds=spawn_seed_sequences(PARENT_SEED, REPS), **kwargs
    )
    assert_results_identical(serial, batch)


def test_batched_parallel_surplus_particles():
    """m > n: surplus particles never settle but report their step counts."""
    g = cycle_graph(16)
    m = g.n + 5
    serial = [
        parallel_idla(g, seed=s, num_particles=m)
        for s in spawn_seed_sequences(7, REPS)
    ]
    for kernels in PROVIDERS:
        batch = batched_parallel_idla(
            g, seeds=spawn_seed_sequences(7, REPS), num_particles=m,
            kernels=kernels,
        )
        assert_results_identical(serial, batch)
        for res in batch:
            assert res.is_complete_dispersion()
            assert np.count_nonzero(res.settled_at < 0) == 5


def test_batched_parallel_custom_rule():
    g = clique_with_hair(20)
    rule = HairRule.for_clique_with_hair(g.n)
    serial = [
        parallel_idla(g, seed=s, rule=rule) for s in spawn_seed_sequences(3, REPS)
    ]
    batch = batched_parallel_idla(g, seeds=spawn_seed_sequences(3, REPS), rule=rule)
    assert_results_identical(serial, batch)


def test_batched_sequential_custom_rule():
    g = grid_graph(5, 5)
    rule = DelayedRule(4)
    serial = [
        sequential_idla(g, seed=s, rule=rule) for s in spawn_seed_sequences(11, REPS)
    ]
    batch = batched_sequential_idla(g, seeds=spawn_seed_sequences(11, REPS), rule=rule)
    assert_results_identical(serial, batch)


def test_batched_budget_errors_match_serial():
    g = cycle_graph(64)
    for kernels in PROVIDERS:
        with pytest.raises(RuntimeError, match="max_rounds=5"):
            batched_parallel_idla(
                g, seeds=spawn_seed_sequences(0, 3), max_rounds=5,
                kernels=kernels,
            )
    with pytest.raises(RuntimeError, match="max_total_steps=5"):
        batched_sequential_idla(
            g, seeds=spawn_seed_sequences(0, 3), max_total_steps=5
        )


def test_batched_argument_validation():
    g = cycle_graph(8)
    with pytest.raises(ValueError, match="seeds.*reps|either"):
        batched_parallel_idla(g)
    with pytest.raises(ValueError, match="does not match"):
        batched_parallel_idla(g, reps=3, seeds=spawn_seed_sequences(0, 2))
    with pytest.raises(ValueError, match="tie_break"):
        batched_parallel_idla(g, reps=2, tie_break="bogus")
    with pytest.raises(ValueError, match="num_particles"):
        batched_sequential_idla(g, reps=2, num_particles=g.n + 1)
    assert batched_parallel_idla(g, reps=0) == []


@pytest.mark.parametrize("kernels", PROVIDERS)
def test_scalar_threshold_is_rejected_before_any_repetition(kernels, monkeypatch):
    """``scalar_threshold`` is no option: no sample depends on where the
    serial driver switches to its scalar loop, so an estimate naming it
    raises the unknown-kwarg ``TypeError`` in every mode, before a
    repetition runs."""

    def ran(*args, **kwargs):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(runner, "_round_outcomes", ran)
    monkeypatch.setattr(runner, "_adaptive_outcomes", ran)
    g = cycle_graph(16)
    modes = [{"reps": r} for r in (1, 4, 32)] + [
        {"reps": 4, "batched": False},
        {"reps": 4, "batched": True},
        {"reps": 4, "n_jobs": 2},
        {"precision": 0.5},
    ]
    for mode in modes:
        with pytest.raises(TypeError, match="'scalar_threshold'"):
            estimate_dispersion(
                g, "parallel", seed=0, kernels=kernels, scalar_threshold=2,
                **mode,
            )


def test_batched_explicit_origin_array():
    g = grid_graph(4, 4)
    origins = np.arange(g.n)[::-1].copy()
    serial = [
        parallel_idla(g, origins, seed=s) for s in spawn_seed_sequences(21, REPS)
    ]
    for kernels in PROVIDERS:
        batch = batched_parallel_idla(
            g, origins, seeds=spawn_seed_sequences(21, REPS), kernels=kernels
        )
        assert_results_identical(serial, batch)


# ----------------------------------------------------------------------
# runner dispatch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("process", ["parallel", "sequential"])
def test_runner_batched_dispatch_is_invisible(process):
    """estimate_dispersion returns identical samples in all three modes."""
    g = cycle_graph(48)
    ref = estimate_dispersion(g, process, reps=6, seed=5, batched=False)
    forced = estimate_dispersion(g, process, reps=6, seed=5, batched=True)
    auto = estimate_dispersion(g, process, reps=6, seed=5)
    assert np.array_equal(ref.samples, forced.samples)
    assert np.array_equal(ref.total_samples, forced.total_samples)
    assert np.array_equal(ref.samples, auto.samples)


def test_runner_batched_rejects_unsupported_kwargs():
    g = cycle_graph(16)
    # unknown driver kwargs fail fast with the accepted-options TypeError
    # (formerly they reached _validate_forced_batched as a ValueError)
    with pytest.raises(TypeError, match="faithful_r"):
        estimate_dispersion(
            g, "parallel", reps=4, seed=0, batched=True, faithful_r=True
        )
    with pytest.raises(KeyError, match="unknown process"):
        estimate_dispersion(g, "unknown-process", reps=4, seed=0, batched=True)
    with pytest.raises(ValueError, match="batched must be"):
        estimate_dispersion(g, "parallel", reps=4, seed=0, batched="true")
    # unsupported kwargs are rejected before any fan-out worker starts
    with pytest.raises(TypeError, match="faithful_r"):
        estimate_dispersion(
            g, "parallel", reps=4, seed=0, batched=True, n_jobs=2, faithful_r=True
        )
    # record=True is no longer a serial-only mode: forced batching takes
    # it and returns the serial trajectories bit for bit
    ref = estimate_dispersion(g, "parallel", reps=4, seed=0, batched=False, record=True)
    forced = estimate_dispersion(g, "parallel", reps=4, seed=0, batched=True, record=True)
    assert np.array_equal(ref.samples, forced.samples)
    assert ref.trajectories == forced.trajectories


def test_runner_auto_dispatch_serialises_stateful_rules():
    """Auto dispatch must not batch rules it cannot prove pure: the batched
    drivers evaluate rules on fewer (particle, vertex) pairs, so a stateful
    rule would silently change the numbers."""

    class CountingRule(DelayedRule):
        calls = 0

        def __call__(self, t, vertex, vacant):
            CountingRule.calls += 1
            return super().__call__(t, vertex, vacant)

    g = cycle_graph(24)
    auto = estimate_dispersion(g, "parallel", reps=4, seed=3, rule=CountingRule(2))
    auto_calls = CountingRule.calls
    CountingRule.calls = 0
    serial = estimate_dispersion(
        g, "parallel", reps=4, seed=3, rule=CountingRule(2), batched=False
    )
    # identical samples *and* identical rule-call traffic == serial path ran
    assert np.array_equal(auto.samples, serial.samples)
    assert auto_calls == CountingRule.calls
    # the known pure library rules do batch (dispatch decision only)
    from repro.experiments.runner import _use_batched

    assert _use_batched("parallel", g, 8, 1, {"rule": DelayedRule(2)}, "auto")
    assert not _use_batched("parallel", g, 8, 1, {"rule": CountingRule(2)}, "auto")


def test_runner_auto_dispatch_has_no_memory_decline():
    """The streaming buffers bound their own allocation, so repetition
    counts that the old ``_BATCHED_MAX_BUFFER_DOUBLES`` cap declined now
    batch — and the allocation the drivers report stays within the
    streaming budget rather than scaling with ``reps × block``."""
    from repro.core.batched import buffer_doubles
    from repro.experiments.runner import _use_batched
    from repro.utils.rng import _STREAM_BUDGET_DOUBLES

    g = cycle_graph(64)
    assert _use_batched("parallel", g, 100, 1, {}, "auto")
    assert _use_batched("parallel", g, 50000, 1, {}, "auto")
    assert _use_batched("sequential", g, 50000, 1, {}, "auto")
    budget_slack = 50000 * (2 * g.n + 2)  # per-round floor dominates budget
    assert buffer_doubles("parallel", 50000, g.n) <= max(
        _STREAM_BUDGET_DOUBLES, budget_slack
    )
    assert buffer_doubles("sequential", 50000, g.n) <= _STREAM_BUDGET_DOUBLES


# ----------------------------------------------------------------------
# step_batch property-based shape checks
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=7),
    cols=st.integers(min_value=1, max_value=9),
    n=st.integers(min_value=3, max_value=33),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_step_batch_shapes_and_validity(rows, cols, n, seed):
    g = cycle_graph(n)
    eng = WalkEngine(g, seed=seed)
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, n, size=(rows, cols), dtype=np.int64)
    new = eng.step_batch(pos)
    assert new.shape == pos.shape
    assert new.dtype == np.int64
    # every move lands on a neighbour of the source vertex
    diff = (new - pos) % n
    assert np.all((diff == 1) | (diff == n - 1))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_step_batch_matches_flat_step(rows, cols, seed):
    """One batched step equals the flat engine step on the same uniforms."""
    g = grid_graph(4, 4)
    eng = WalkEngine(g, seed=seed)
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, g.n, size=(rows, cols), dtype=np.int64)
    u = rng.random((rows, cols))
    batched = eng.step_batch(pos, u=u)
    flat_eng = WalkEngine(g, seed=seed)
    expected = np.empty_like(pos)
    for r in range(rows):
        # identical kernel on each row with that row's uniforms
        from repro.graphs.csr import neighbor_kernel
        from repro.walks.engine import neighbor_step

        expected[r] = neighbor_step(neighbor_kernel(g), g.degrees, pos[r], u[r])
    assert np.array_equal(batched, expected)
    assert flat_eng is not eng  # engines untouched by supplied uniforms


def test_step_batch_out_and_validation():
    g = cycle_graph(8)
    eng = WalkEngine(g, seed=0)
    pos = np.zeros((3, 4), dtype=np.int64)
    out = np.empty_like(pos)
    res = eng.step_batch(pos, out=out)
    assert res is out
    with pytest.raises(ValueError, match="u must match"):
        eng.step_batch(pos, u=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="out must match"):
        eng.step_batch(pos, out=np.empty((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="contiguous"):
        eng.step_batch(pos, out=np.empty((3, 8), dtype=np.int64)[:, ::2])
