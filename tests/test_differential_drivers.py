"""Differential driver harness: one sweep pinning every execution mode.

The batched subsystem's whole contract is that **dispatch is purely a
performance decision**: for every process, running the serial oracle per
repetition, the lock-step batched driver, or the shared-memory fan-out
over the children of one ``SeedSequence`` must produce bit-identical
results — ``τ``, step counts, settlement, settle order, the per-process
extras (``settle_clock``, ``durations``, the ``faithful_r`` schedule)
and, since the chunked trajectory store landed, full ``record=True``
trajectories.

Instead of one hand-written pin per driver per PR, this module sweeps
the whole matrix in the style of scikit-learn's estimator checks:

    5 processes (+ lazy / faithful_r variants)
      x {serial oracle, batched lock-step, batched w/ finisher, n_jobs=2}
        x {record on, record off}

Repetition count and graph are chosen to *straddle the scalar tail
finisher*: with ``REPS`` below the default ``tail_threshold`` the
sequential family hands every repetition to the scalar micro-loop
mid-stream, while the parallel driver starts wide (``reps x particles``
live walkers) and crosses the threshold only deep in the cycle's
settlement tail — so both the pure lock-step and the handoff paths are
exercised and compared against the same serial oracle.

Since the neighbour-kernel seam landed, the whole matrix additionally
runs on the *implicit* build of the same family (``cycle_graph(24,
implicit=True)``): the serial oracle always runs on the CSR build, so
each implicit case pins cross-build bit-identity through every driver —
including the descriptor round-trip across the ``n_jobs=2`` shard
boundary, where the implicit graph ships as ``(family, params)`` instead
of a shared-memory segment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget import StateBudget
from repro.experiments import estimate_dispersion
from repro.experiments.runner import BATCHED_DRIVERS, PROCESS_DRIVERS
from repro.graphs import cycle_graph
from repro.kernels import available_kernels
from repro.utils.rng import spawn_seed_sequences

PARENT_SEED = 20260731
REPS = 6  # < default tail_threshold: the sequential finisher engages at once
GRAPH = cycle_graph(24)  # the serial oracle's build — always CSR

#: The graph the mode-under-test runs on: the CSR build (classic
#: self-consistency) or the implicit build (cross-build bit-identity).
GRAPH_BUILDS = {
    "csr": GRAPH,
    "implicit": cycle_graph(24, implicit=True),
}

#: (process, driver kwargs) — every supported mode of every process.
CASES = [
    ("sequential", {}),
    ("sequential", {"lazy": True}),
    ("parallel", {}),
    ("parallel", {"lazy": True}),
    ("uniform", {}),
    ("uniform", {"faithful_r": True}),
    ("ctu", {}),
    ("c-sequential", {}),
]

#: Extra (object.__setattr__) attributes each process attaches.
EXTRAS = {
    "ctu": ("settle_clock",),
    "c-sequential": ("durations",),
}

#: Processes whose batched driver takes the finisher knob.
TAIL_TUNABLE = {"sequential", "parallel"}


def case_id(case):
    process, kwargs = case
    return process + ("-" + ",".join(sorted(kwargs)) if kwargs else "")


def assert_result_identical(s, b, extras=()):
    assert s.process == b.process
    assert s.graph_name == b.graph_name
    assert (s.n, s.origin, s.num_particles) == (b.n, b.origin, b.num_particles)
    assert s.dispersion_time == b.dispersion_time
    assert s.total_steps == b.total_steps
    assert s.ticks == b.ticks
    assert np.array_equal(s.steps, b.steps)
    assert np.array_equal(s.settled_at, b.settled_at)
    assert np.array_equal(s.settle_order, b.settle_order)
    assert s.trajectories == b.trajectories  # None == None when not recording
    for name in extras:
        assert np.array_equal(getattr(s, name), getattr(b, name)), name


def serial_oracle(process, kwargs, record):
    return [
        PROCESS_DRIVERS[process](GRAPH, 0, seed=s, record=record, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, REPS)
    ]


@pytest.mark.parametrize("build", GRAPH_BUILDS, ids=GRAPH_BUILDS)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_batched_drivers_match_serial_oracle(case, record, build):
    """Lock-step drivers (finisher on and off) vs the serial reference."""
    process, kwargs = case
    extras = EXTRAS.get(process, ())
    if kwargs.get("faithful_r"):
        extras = (*extras, "schedule")
    serial = serial_oracle(process, kwargs, record)
    modes = [{}]
    if process in TAIL_TUNABLE:
        # 0 = pure lock-step to the last settlement; default straddles
        modes.append({"tail_threshold": 0})
    for mode in modes:
        batch = BATCHED_DRIVERS[process](
            GRAPH_BUILDS[build],
            0,
            seeds=spawn_seed_sequences(PARENT_SEED, REPS),
            record=record,
            **kwargs,
            **mode,
        )
        assert len(batch) == REPS
        for s, b in zip(serial, batch):
            assert_result_identical(s, b, extras)
            if record:
                assert b.trajectories is not None


@pytest.mark.parametrize("build", GRAPH_BUILDS, ids=GRAPH_BUILDS)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_estimate_modes_match_serial_oracle(case, record, build):
    """serial / forced-batched / auto / n_jobs=2 estimates, one seed plan."""
    process, kwargs = case
    serial = serial_oracle(process, kwargs, record)
    tau = np.asarray([float(r.dispersion_time) for r in serial])
    totals = np.asarray([r.total_steps for r in serial], dtype=np.int64)
    trajectories = [r.trajectories for r in serial] if record else None
    schedules = (
        [r.schedule for r in serial] if kwargs.get("faithful_r") else None
    )
    for mode in ({"batched": True}, {"batched": "auto"}, {"n_jobs": 2}):
        est = estimate_dispersion(
            GRAPH_BUILDS[build],
            process,
            reps=REPS,
            seed=PARENT_SEED,
            record=record,
            **kwargs,
            **mode,
        )
        assert np.array_equal(est.samples, tau), mode
        assert np.array_equal(est.total_samples, totals), mode
        assert est.trajectories == trajectories, mode
        if schedules is None:
            assert est.schedules is None
        else:
            assert all(
                np.array_equal(a, b) for a, b in zip(est.schedules, schedules)
            ), mode


#: Budget shapes forcing every cohort geometry on GRAPH (n = m = 24,
#: REPS = 6): one repetition per cohort, 3-repetition cohorts (two
#: cohorts), a particle cap *below one repetition's m* (parallel
#: additionally chunks mid-round), and a byte budget tight enough to
#: force cohorts and shrink the streaming uniform buffers.
BUDGETS = {
    "cohort1": StateBudget(particles=24),
    "cohort3": StateBudget(particles=72),
    "subrep": StateBudget(particles=8),
    "bytes2k": StateBudget(bytes=2000),
}


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGETS)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_budgeted_batched_matches_serial_oracle(case, record, budget):
    """Every budget geometry replays the serial oracle bit for bit.

    Cohort boundaries, mid-round particle chunks and shrunken stream
    buffers are all invisible in the results — the same guarantees that
    make batching itself invisible (per-repetition streams, ufunc
    slice-invariance, double-stream chunk-invariance)."""
    process, kwargs = case
    extras = EXTRAS.get(process, ())
    if kwargs.get("faithful_r"):
        extras = (*extras, "schedule")
    serial = serial_oracle(process, kwargs, record)
    modes = [{}]
    if process in TAIL_TUNABLE:
        modes.append({"tail_threshold": 0})
    for mode in modes:
        batch = BATCHED_DRIVERS[process](
            GRAPH,
            0,
            seeds=spawn_seed_sequences(PARENT_SEED, REPS),
            record=record,
            state_budget=BUDGETS[budget],
            **kwargs,
            **mode,
        )
        assert len(batch) == REPS
        for s, b in zip(serial, batch):
            assert_result_identical(s, b, extras)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_budgeted_estimates_match_serial_oracle(case):
    """``state_budget`` through the runner: forced batch and fan-out.

    ``n_jobs=2`` with a 3-repetition cohort exercises the cohort-aligned
    shard planning (each worker gets whole cohorts)."""
    process, kwargs = case
    serial = serial_oracle(process, kwargs, True)
    tau = np.asarray([float(r.dispersion_time) for r in serial])
    trajectories = [r.trajectories for r in serial]
    for mode in ({"batched": True}, {"batched": True, "n_jobs": 2}):
        est = estimate_dispersion(
            GRAPH,
            process,
            reps=REPS,
            seed=PARENT_SEED,
            record=True,
            state_budget=StateBudget(particles=72),
            **kwargs,
            **mode,
        )
        assert np.array_equal(est.samples, tau), mode
        assert est.trajectories == trajectories, mode


#: Kernel providers forced through the drivers: ``numpy`` is the always-
#: available reference fallback; the ``cffi`` provider is skipped (not
#: silently passed) when cffi or a C compiler is absent on this host.
KERNEL_PROVIDERS = [
    pytest.param(
        name,
        marks=()
        if ok
        else pytest.mark.skip(reason=f"kernel provider {name!r} unavailable"),
    )
    for name, ok in sorted(available_kernels().items())
]


@pytest.mark.parametrize("kernels", KERNEL_PROVIDERS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernels_axis_matches_serial_oracle(case, kernels, monkeypatch):
    """Every kernel provider replays the serial oracle bit for bit.

    The compiled seam, like dispatch, must be a
    pure performance decision: the fused offset+gather step, the
    counting-scatter settlement round, the vectorised vacancy probe and
    both scalar tail finishers all engage here (``record=True`` keeps the
    store-active paths honest too — recording disables the compiled
    finishers but not the lock-step kernels), and every result field must
    stay byte-identical to the per-repetition serial loop.

    ``min_width`` is forced to 0 so this small graph still drives the
    compiled array kernels — under the default width gate these rounds
    would stay on the numpy expressions and pin nothing."""
    from repro.kernels import CompiledKernels

    monkeypatch.setattr(CompiledKernels, "min_width", 0)
    process, kwargs = case
    extras = EXTRAS.get(process, ())
    if kwargs.get("faithful_r"):
        extras = (*extras, "schedule")
    for record in (False, True):
        serial = serial_oracle(process, kwargs, record)
        modes = [{}]
        if process in TAIL_TUNABLE:
            modes.append({"tail_threshold": 0})
        for mode in modes:
            for build in GRAPH_BUILDS:
                # implicit builds expose no CSR arrays: the fused step and
                # the finishers fall back per-graph while the settlement
                # kernels stay engaged — both gates must be invisible
                batch = BATCHED_DRIVERS[process](
                    GRAPH_BUILDS[build],
                    0,
                    seeds=spawn_seed_sequences(PARENT_SEED, REPS),
                    record=record,
                    kernels=kernels,
                    **kwargs,
                    **mode,
                )
                assert len(batch) == REPS
                for s, b in zip(serial, batch):
                    assert_result_identical(s, b, extras)


@pytest.mark.parametrize("kernels", KERNEL_PROVIDERS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernels_through_runner(case, kernels):
    """``kernels=`` through ``estimate_dispersion``: forced batch and the
    ``n_jobs=2`` fan-out, whose shard workers re-resolve the provider
    from the pickled :class:`~repro.kernels.KernelSet`."""
    process, kwargs = case
    serial = serial_oracle(process, kwargs, False)
    tau = np.asarray([float(r.dispersion_time) for r in serial])
    for mode in ({"batched": True}, {"batched": True, "n_jobs": 2}):
        est = estimate_dispersion(
            GRAPH,
            process,
            reps=REPS,
            seed=PARENT_SEED,
            kernels=kernels,
            **kwargs,
            **mode,
        )
        assert np.array_equal(est.samples, tau), mode


@pytest.mark.parametrize("kernels", KERNEL_PROVIDERS)
def test_kernels_deep_tail_and_budget(kernels):
    """Compiled finishers against a genuine mid-run handoff (reps above
    the tail threshold) and compiled lock-step under budget cohorts.

    The threshold is passed explicitly: left at ``None``, a compiled
    sequential run skips lock-step altogether (see
    ``test_sequential_per_rep_route_matches_serial_oracle``)."""
    g = cycle_graph(32)
    reps = 24
    for process in ("sequential", "parallel"):
        serial = [
            PROCESS_DRIVERS[process](g, 0, seed=s)
            for s in spawn_seed_sequences(11, reps)
        ]
        batch = BATCHED_DRIVERS[process](
            g,
            0,
            seeds=spawn_seed_sequences(11, reps),
            kernels=kernels,
            tail_threshold=16,
        )
        for s, b in zip(serial, batch):
            assert_result_identical(s, b)
        budgeted = BATCHED_DRIVERS[process](
            g,
            0,
            seeds=spawn_seed_sequences(11, reps),
            kernels=kernels,
            tail_threshold=16,
            state_budget=StateBudget(particles=32 * 9),
        )
        for s, b in zip(serial, budgeted):
            assert_result_identical(s, b)


#: Compiled providers only: the per-repetition route needs one.
COMPILED_PROVIDERS = [p for p in KERNEL_PROVIDERS if p.values[0] != "numpy"]

#: Driver variants of the per-repetition route; c-sequential has no lazy
#: walk and no ``num_particles`` knob.
PER_REP_VARIANTS = {
    "sequential": {
        "plain": {},
        "lazy": {"lazy": True},
        "m<n": {"num_particles": 10},
        "uniform-origin": {"origin": "uniform"},
    },
    "c-sequential": {
        "plain": {},
        "uniform-origin": {"origin": "uniform"},
    },
}


@pytest.fixture
def route_calls(monkeypatch):
    """Count the compiled loop, the fused step and the numpy step."""
    import repro.core.batched as batched
    from repro.kernels import CompiledKernels

    calls = {"finish_sequential": 0, "csr_step": 0, "neighbor_step": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(CompiledKernels, "finish_sequential")
    counted(CompiledKernels, "csr_step")
    counted(batched, "neighbor_step")
    return calls


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("reps", [1, 16, 63, 64])
@pytest.mark.parametrize(
    "process,variant",
    [(p, v) for p, variants in PER_REP_VARIANTS.items() for v in variants],
)
def test_sequential_per_rep_route_matches_serial_oracle(
    process, variant, reps, kernels, route_calls
):
    """Auto dispatch with a compiled provider runs each repetition in one
    compiled loop, at any repetition count, bit-identical to the serial
    oracle: τ, total steps, per-particle steps and settlement, and the
    c-sequential Gamma durations (which read the generator after the walk,
    so they also pin where the route leaves each stream)."""
    kwargs = dict(PER_REP_VARIANTS[process][variant])
    origin = kwargs.pop("origin", 0)
    serial = estimate_dispersion(
        GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
        batched=False, **kwargs,
    )
    est = estimate_dispersion(
        GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
        kernels=kernels, **kwargs,
    )
    assert np.array_equal(est.samples, serial.samples)
    assert np.array_equal(est.total_samples, serial.total_samples)
    # the route: no lock-step tick at all, one compiled call per repetition
    assert route_calls == {
        "finish_sequential": reps,
        "csr_step": 0,
        "neighbor_step": 0,
    }

    seeds = spawn_seed_sequences(PARENT_SEED, reps)
    oracle = [
        PROCESS_DRIVERS[process](GRAPH, origin, seed=s, **kwargs) for s in seeds
    ]
    batch = BATCHED_DRIVERS[process](
        GRAPH, origin, seeds=spawn_seed_sequences(PARENT_SEED, reps),
        kernels=kernels, **kwargs,
    )
    for s, b in zip(oracle, batch):
        assert_result_identical(s, b, EXTRAS.get(process, ()))

    if process == "sequential":
        # the step limit fails with the serial oracle's exact error
        messages = []
        for mode in ({"batched": False}, {"kernels": kernels}):
            with pytest.raises(RuntimeError) as err:
                estimate_dispersion(
                    GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
                    max_total_steps=50, **kwargs, **mode,
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "sequential IDLA exceeded max_total_steps=50"
        )


@pytest.mark.parametrize("build", ["csr", "implicit"])
def test_deep_tail_straddles_finisher_with_recording(build):
    """A repetition count above the threshold: the lock-step phase runs
    first and the finisher takes over only for the last stragglers, so
    the trajectory store's handoff seeds the scalar micro-loop mid-walk.
    On the implicit build the finisher's adjacency access goes through
    the lazy per-vertex view instead of materialised lists."""
    oracle_g = cycle_graph(32)
    g = cycle_graph(32, implicit=(build == "implicit"))
    reps = 24  # > default tail_threshold=16: genuine mid-run handoff
    for process in ("sequential", "parallel"):
        serial = [
            PROCESS_DRIVERS[process](oracle_g, 0, seed=s, record=True)
            for s in spawn_seed_sequences(11, reps)
        ]
        batch = BATCHED_DRIVERS[process](
            g, 0, seeds=spawn_seed_sequences(11, reps), record=True
        )
        for s, b in zip(serial, batch):
            assert_result_identical(s, b)
