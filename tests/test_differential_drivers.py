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

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import parallel, route
from repro.core.budget import StateBudget
from repro.core.stopping_rules import DelayedRule
from repro.experiments import estimate_dispersion
from repro.experiments.runner import BATCHED_DRIVERS, PROCESS_DRIVERS
from repro.graphs import complete_binary_tree, cycle_graph
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
    """Lock-step drivers (finisher on and off) vs the serial reference,
    under every provider available here."""
    process, kwargs = case
    extras = EXTRAS.get(process, ())
    if kwargs.get("faithful_r"):
        extras = (*extras, "schedule")
    serial = serial_oracle(process, kwargs, record)
    modes = [{}]
    if process in TAIL_TUNABLE:
        # 0 = pure lock-step to the last settlement; default straddles
        modes.append({"tail_threshold": 0})
    for kernels in PROVIDERS:
        for mode in modes:
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
    for kernels in PROVIDERS:
        for mode in modes:
            batch = BATCHED_DRIVERS[process](
                GRAPH,
                0,
                seeds=spawn_seed_sequences(PARENT_SEED, REPS),
                record=record,
                state_budget=BUDGETS[budget],
                kernels=kernels,
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

#: The providers available here, by name: the lock-step tests above run
#: each.
PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]


@pytest.mark.parametrize("kernels", KERNEL_PROVIDERS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernels_axis_matches_serial_oracle(case, kernels, monkeypatch):
    """Every kernel provider replays the serial oracle bit for bit.

    The compiled seam, like dispatch, must be a
    pure performance decision: the fused offset+gather step, the
    counting-scatter settlement round, the vectorised vacancy probe and
    both scalar tail finishers all engage here (``record=True`` keeps the
    store-active paths honest too — under ``tail_threshold=0`` recording
    runs the lock-step kernels, left at ``None`` the compiled loops' event
    sinks), and every result field must stay byte-identical to the
    per-repetition serial loop.

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
    the tail threshold) and compiled lock-step under budget cohorts."""
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
#: walk and no ``num_particles`` knob.  The budget variant runs the tick
#: processes in cohorts of two repetitions.
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
    "uniform": {
        "plain": {},
        "m<n": {"num_particles": 10},
        "uniform-origin": {"origin": "uniform"},
        "state-budget": {"state_budget": StateBudget(particles=48)},
    },
    "ctu": {
        "plain": {},
        "m<n": {"num_particles": 10},
        "uniform-origin": {"origin": "uniform"},
        "rate": {"rate": 0.5},
        "state-budget": {"state_budget": StateBudget(particles=48)},
    },
}

#: The sequential family's route, and the tick processes' route.
SEQ_ROUTE = ("sequential", "c-sequential")
TICK_ROUTE = ("uniform", "ctu")


@pytest.fixture
def route_calls(monkeypatch):
    """Count the compiled loops, the compiled step and the lock-step
    drivers' walk steps (each builds one through ``make_stepper``)."""
    import repro.core.batched as batched
    import repro.core.batched_continuous as batched_continuous
    from repro.kernels import CompiledKernels

    calls = {
        "finish_sequential": 0,
        "finish_uniform": 0,
        "finish_ctu": 0,
        "finish_parallel": 0,
        "finish_parallel_single": 0,
        "csr_step": 0,
        "settle_round": 0,
        "make_stepper": 0,
    }

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(CompiledKernels, "finish_sequential")
    counted(CompiledKernels, "finish_uniform")
    counted(CompiledKernels, "finish_ctu")
    counted(CompiledKernels, "finish_parallel")
    counted(CompiledKernels, "finish_parallel_single")
    counted(CompiledKernels, "csr_step")
    counted(CompiledKernels, "settle_round")
    counted(batched, "make_stepper")
    counted(batched_continuous, "make_stepper")
    return calls


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("reps", [1, 16, 63, 64])
@pytest.mark.parametrize(
    "process,variant",
    [(p, v) for p in SEQ_ROUTE for v in PER_REP_VARIANTS[p]],
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
    # the route: no lock-step tick at all, one compiled call per shard
    assert route_calls == dict.fromkeys(route_calls, 0) | {
        "finish_sequential": 1
    }

    seeds = spawn_seed_sequences(PARENT_SEED, reps)
    oracle = [
        PROCESS_DRIVERS[process](GRAPH, origin, seed=s, **kwargs) for s in seeds
    ]
    batch = route.run_reps(
        process, GRAPH, spawn_seed_sequences(PARENT_SEED, reps), origin,
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


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("reps", [1, 15, 16, 64])
@pytest.mark.parametrize(
    "process,variant",
    [(p, v) for p in TICK_ROUTE for v in PER_REP_VARIANTS[p]],
)
def test_tick_per_rep_route_matches_serial_oracle(
    process, variant, reps, kernels, route_calls
):
    """Uniform-IDLA and CTU-IDLA take the per-repetition route at any
    repetition count under auto dispatch with a compiled provider: one
    compiled call per shard (none when no repetition has unsettled
    particles) and no lock-step tick, bit-identical to the serial oracle
    including the tick clock and CTU's ``settle_clock``."""
    kwargs = dict(PER_REP_VARIANTS[process][variant])
    origin = kwargs.pop("origin", 0)
    budget = kwargs.pop("state_budget", None)
    serial = estimate_dispersion(
        GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
        batched=False, **kwargs,
    )
    est = estimate_dispersion(
        GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
        kernels=kernels, state_budget=budget, **kwargs,
    )
    assert np.array_equal(est.samples, serial.samples)
    assert np.array_equal(est.total_samples, serial.total_samples)

    oracle = [
        PROCESS_DRIVERS[process](GRAPH, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, reps)
    ]
    walking = any(r.total_steps > 0 for r in oracle)
    assert route_calls == dict.fromkeys(route_calls, 0) | {
        f"finish_{process}": int(walking)
    }
    batch = route.run_reps(
        process, GRAPH, spawn_seed_sequences(PARENT_SEED, reps), origin,
        kernels=kernels, state_budget=budget, **kwargs,
    )
    for s, b in zip(oracle, batch):
        assert_result_identical(s, b, EXTRAS.get(process, ()))

    if process == "uniform":
        # the tick limit fails with the serial oracle's exact error
        messages = []
        for mode in ({"batched": False}, {"kernels": kernels}):
            with pytest.raises(RuntimeError) as err:
                estimate_dispersion(
                    GRAPH, process, origin=origin, reps=reps, seed=PARENT_SEED,
                    max_ticks=50, **kwargs, **mode,
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "uniform IDLA exceeded max_ticks=50"
        )


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("process", TICK_ROUTE)
def test_tick_lockstep_body_keeps_its_cases(process, kernels, route_calls):
    """What has no compiled loop keeps the numpy lock-step body, still
    bit-identical: ``faithful_r=True``, implicit graphs and the numpy
    provider (also when chosen through ``REPRO_KERNELS``), recording or
    not."""
    cases = [
        (GRAPH, {"record": True, "kernels": "numpy"}),
        (GRAPH_BUILDS["implicit"], {"record": True, "kernels": kernels}),
        (GRAPH_BUILDS["implicit"], {"kernels": kernels}),
        (GRAPH, {"kernels": "numpy"}),
        (GRAPH, {}),  # REPRO_KERNELS=numpy, set below
    ]
    if process == "uniform":
        cases.append((GRAPH, {"faithful_r": True, "kernels": kernels}))
    for g, kwargs in cases:
        extras = EXTRAS.get(process, ())
        if kwargs.get("faithful_r"):
            extras = (*extras, "schedule")
        drive = {k: v for k, v in kwargs.items() if k != "kernels"}
        oracle = [
            PROCESS_DRIVERS[process](GRAPH, 0, seed=s, **drive)
            for s in spawn_seed_sequences(PARENT_SEED, REPS)
        ]
        with pytest.MonkeyPatch.context() as env:
            if not kwargs:
                env.setenv("REPRO_KERNELS", "numpy")
            batch = BATCHED_DRIVERS[process](
                g, 0, seeds=spawn_seed_sequences(PARENT_SEED, REPS), **kwargs
            )
        for s, b in zip(oracle, batch):
            assert_result_identical(s, b, extras)
    assert route_calls["finish_uniform"] == route_calls["finish_ctu"] == 0
    assert route_calls["make_stepper"] == len(cases)


#: Parallel-IDLA variants of the per-repetition route: lazy with the
#: serial oracle's scalar switch patched to 0 (``"switch"``) keeps the
#: oracle in its vectorised rounds to the end, and ``m > n`` leaves
#: surplus particles walking when the last vertex fills.
PARALLEL_VARIANTS = {
    "plain": {},
    "lazy": {"lazy": True},
    "lazy-wide": {"lazy": True, "switch": 0},
    "m<n": {"num_particles": 10},
    "m>n": {"num_particles": 40},
    "uniform-origin": {"origin": "uniform"},
    "random-ties": {"tie_break": "random"},
    "state-budget": {"state_budget": StateBudget(particles=48)},
}

#: A regular graph and an irregular one for the parallel route.
PARALLEL_GRAPHS = {"cycle": GRAPH, "btree": complete_binary_tree(4)}


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("reps", [1, 4, 32])
@pytest.mark.parametrize("graph", PARALLEL_GRAPHS)
@pytest.mark.parametrize("variant", PARALLEL_VARIANTS)
def test_parallel_per_rep_route_matches_serial_oracle(
    variant, graph, reps, kernels, route_calls, monkeypatch
):
    """Parallel-IDLA takes the per-repetition route at any repetition
    count under auto dispatch with a compiled provider: one compiled
    call per shard (none when no repetition has particles left to walk),
    no lock-step round and no finisher, bit-identical to the serial
    oracle."""
    g = PARALLEL_GRAPHS[graph]
    kwargs = dict(PARALLEL_VARIANTS[variant])
    origin = kwargs.pop("origin", 0)
    budget = kwargs.pop("state_budget", None)
    if "switch" in kwargs:
        monkeypatch.setattr(parallel, "_SCALAR_THRESHOLD", kwargs.pop("switch"))
    serial = estimate_dispersion(
        g, "parallel", origin=origin, reps=reps, seed=PARENT_SEED,
        batched=False, **kwargs,
    )
    oracle = [
        PROCESS_DRIVERS["parallel"](g, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, reps)
    ]
    walking = any(r.total_steps > 0 for r in oracle)
    # the serial oracle steps through the compiled csr_step: count from here
    route_calls.update(dict.fromkeys(route_calls, 0))
    est = estimate_dispersion(
        g, "parallel", origin=origin, reps=reps, seed=PARENT_SEED,
        kernels=kernels, state_budget=budget, **kwargs,
    )
    assert np.array_equal(est.samples, serial.samples)
    assert np.array_equal(est.total_samples, serial.total_samples)
    assert route_calls == dict.fromkeys(route_calls, 0) | {
        "finish_parallel": int(walking)
    }
    batch = route.run_reps(
        "parallel", g, spawn_seed_sequences(PARENT_SEED, reps), origin,
        kernels=kernels, state_budget=budget, **kwargs,
    )
    for s, b in zip(oracle, batch):
        assert_result_identical(s, b)

    # the round limit fails with the serial oracle's exact error
    messages = []
    for mode in ({"batched": False}, {"kernels": kernels}):
        with pytest.raises(RuntimeError) as err:
            estimate_dispersion(
                g, "parallel", origin=origin, reps=reps, seed=PARENT_SEED,
                max_rounds=5, **kwargs, **mode,
            )
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "parallel IDLA exceeded max_rounds=5"


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
def test_parallel_lockstep_body_keeps_its_cases(kernels, route_calls):
    """What the per-repetition loop does not cover keeps the lock-step
    body, still bit-identical: implicit graphs, a non-default rule, an
    explicit ``tail_threshold`` and the numpy provider (also when chosen
    through ``REPRO_KERNELS``), recording or not."""
    rule = DelayedRule(2)
    cases = [
        (GRAPH, {"record": True, "kernels": "numpy"}),
        (GRAPH_BUILDS["implicit"], {"record": True, "kernels": kernels}),
        (GRAPH_BUILDS["implicit"], {"kernels": kernels}),
        (GRAPH, {"rule": rule, "kernels": kernels}),
        (GRAPH, {"tail_threshold": 16, "kernels": kernels}),
        (GRAPH, {"kernels": "numpy"}),
        (GRAPH, {}),  # REPRO_KERNELS=numpy, set below
    ]
    for g, kwargs in cases:
        drive = {
            k: v for k, v in kwargs.items() if k not in ("kernels", "tail_threshold")
        }
        oracle = [
            PROCESS_DRIVERS["parallel"](GRAPH, 0, seed=s, **drive)
            for s in spawn_seed_sequences(PARENT_SEED, REPS)
        ]
        with pytest.MonkeyPatch.context() as env:
            if not kwargs:
                env.setenv("REPRO_KERNELS", "numpy")
            batch = BATCHED_DRIVERS["parallel"](
                g, 0, seeds=spawn_seed_sequences(PARENT_SEED, REPS), **kwargs
            )
        for s, b in zip(oracle, batch):
            assert_result_identical(s, b)
    assert route_calls["finish_parallel"] == 0
    assert route_calls["make_stepper"] == len(cases)


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("process", sorted(BATCHED_DRIVERS))
def test_lockstep_drivers_never_take_the_route(process, kernels, monkeypatch):
    """Called directly, the lock-step drivers run lock-step under a
    compiled provider too, recording or not: the per-repetition loops
    and their event sinks belong to :mod:`repro.core.route` alone."""
    from repro.kernels import CompiledKernels

    called = []
    for name in ("finish_parallel", "finish_uniform", "finish_ctu", "event_sink"):
        monkeypatch.setattr(
            CompiledKernels, name, lambda *a, _name=name, **k: called.append(_name)
        )
    for record in (False, True):
        batch = BATCHED_DRIVERS[process](
            GRAPH, 0, seeds=spawn_seed_sequences(PARENT_SEED, REPS),
            record=record, kernels=kernels,
        )
        for s, b in zip(serial_oracle(process, {}, record), batch):
            assert_result_identical(s, b, EXTRAS.get(process, ()))
    assert called == []


#: The options the route gate reads, per process that has them.
GATE_OPTIONS = {
    "parallel": [
        {},
        {"rule": DelayedRule(2)},
        {"tail_threshold": 16},
        {"rule": DelayedRule(2), "tail_threshold": 16},
    ],
    "uniform": [{}, {"faithful_r": True}],
}


class _InlineProcessPool(ThreadPoolExecutor):
    """The fork pool's stand-in: the same shards, without forking."""

    def __init__(self, max_workers, mp_context=None):
        super().__init__(max_workers)


@pytest.mark.parametrize("batched", [True, "auto", False], ids=repr)
@pytest.mark.parametrize("build", GRAPH_BUILDS, ids=GRAPH_BUILDS)
@pytest.mark.parametrize("kernels", KERNEL_PROVIDERS)
@pytest.mark.parametrize(
    "process,options",
    [(p, o) for p in GATE_OPTIONS for o in GATE_OPTIONS[p]],
    ids=lambda v: v if isinstance(v, str) else ",".join(sorted(v)) or "default",
)
def test_runner_and_thread_pool_agree_on_the_route(
    process, options, kernels, build, batched, monkeypatch
):
    """The in-process runner takes ``run_reps`` exactly when
    ``n_jobs=2`` takes the thread pool: both consult the one gate, and
    it passes exactly for a compiled provider, a CSR graph, the default
    rule and scheduler, no explicit ``tail_threshold`` and ``batched``
    not ``False``."""
    import concurrent.futures

    import repro.experiments.fanout as fanout_mod
    import repro.experiments.runner as runner_mod

    taken = {"runner": 0, "threads": 0}
    for module, key in ((runner_mod, "runner"), (fanout_mod, "threads")):

        def counted(*args, _inner=module.run_reps, _key=key, **kwargs):
            taken[_key] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, "run_reps", counted)
    # the fork path imports its pool from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineProcessPool)
    runs = [
        estimate_dispersion(
            GRAPH_BUILDS[build], process, reps=4, seed=PARENT_SEED,
            n_jobs=n_jobs, batched=batched, kernels=kernels, **options,
        )
        for n_jobs in (1, 2)
    ]
    assert np.array_equal(runs[0].samples, runs[1].samples)
    expected = (
        kernels != "numpy" and build == "csr" and not options and batched is not False
    )
    assert taken == {"runner": expected, "threads": 2 * expected}


#: Recorded variants of the per-repetition route: every route variant.
#: ``origin="uniform"`` settles several particles at their starts (rows
#: ``[start]``); Parallel adds the lazy hold shapes, random ties and
#: ``m > n`` surplus walkers.
RECORD_VARIANTS = {"parallel": PARALLEL_VARIANTS, **PER_REP_VARIANTS}

#: The compiled loop each process's per-repetition route calls.
ROUTE_LOOP = {
    "parallel": "finish_parallel",
    "sequential": "finish_sequential",
    "c-sequential": "finish_sequential",
    "uniform": "finish_uniform",
    "ctu": "finish_ctu",
}


@pytest.mark.parametrize("kernels", COMPILED_PROVIDERS)
@pytest.mark.parametrize("sink", ["default-sink", "one-event-sink"])
@pytest.mark.parametrize("view", ["lists", "arrays"])
@pytest.mark.parametrize(
    "process,variant",
    [(p, v) for p in RECORD_VARIANTS for v in RECORD_VARIANTS[p]],
)
def test_recorded_per_rep_route_matches_serial_oracle(
    process, variant, view, sink, kernels, route_calls, same_rows, monkeypatch
):
    """``record=True`` takes the per-repetition route with a compiled
    provider, through ``run_reps`` and auto dispatch alike: one compiled
    call per shard (for the tick and round loops, none when no
    repetition walks), no lock-step round, and trajectories
    equal to the serial oracle's, in its shape and through either reader
    (``to_lists()`` or the buffers and row views).  A one-event sink
    (one round for Parallel) makes every loop re-enter after "sink
    full"."""
    import repro.kernels as kernels_mod

    if sink == "one-event-sink":
        monkeypatch.setattr(kernels_mod, "_SINK_EVENTS", 1)
    kwargs = dict(RECORD_VARIANTS[process][variant])
    origin = kwargs.pop("origin", 0)
    budget = kwargs.pop("state_budget", None)
    if "switch" in kwargs:
        monkeypatch.setattr(parallel, "_SCALAR_THRESHOLD", kwargs.pop("switch"))
    oracle = [
        PROCESS_DRIVERS[process](GRAPH, origin, seed=s, record=True, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, REPS)
    ]
    # one call per shard; the tick and round loops skip a shard that
    # does not walk
    calls = 1 if process in SEQ_ROUTE else int(any(r.total_steps for r in oracle))
    # the serial oracle steps through the compiled csr_step: count from here
    route_calls.update(dict.fromkeys(route_calls, 0))
    batch = route.run_reps(
        process, GRAPH, spawn_seed_sequences(PARENT_SEED, REPS), origin,
        record=True, kernels=kernels, state_budget=budget, **kwargs,
    )
    assert route_calls == dict.fromkeys(route_calls, 0) | {
        ROUTE_LOOP[process]: calls
    }
    for s, b in zip(oracle, batch):
        assert_result_identical(s, b, EXTRAS.get(process, ()))
        assert type(b.trajectories) is type(s.trajectories)
        same_rows(b.trajectories, s.trajectories, view)

    est = estimate_dispersion(
        GRAPH, process, origin=origin, reps=REPS, seed=PARENT_SEED,
        record=True, kernels=kernels, state_budget=budget, **kwargs,
    )
    assert route_calls[ROUTE_LOOP[process]] == 2 * calls
    assert est.trajectories == [r.trajectories for r in oracle]
    for traj, s in zip(est.trajectories, oracle):
        same_rows(traj, s.trajectories, view)


#: ``record`` values that name no recording mode; ``"arrays"`` was one
#: until ``record=True`` itself returned arrays.
BAD_RECORDS = ["arrays", "array", "lists", 0.5, 0, 1, None]


@pytest.mark.parametrize("bad", BAD_RECORDS, ids=repr)
@pytest.mark.parametrize("process", sorted(PROCESS_DRIVERS))
def test_invalid_record_rejected_before_any_repetition(process, bad, monkeypatch):
    """A misspelt or non-boolean ``record`` used to record as if it were
    ``True``; every serial driver, batched driver and estimate mode now
    raises before a repetition runs."""
    finished = []
    for registry in (PROCESS_DRIVERS, BATCHED_DRIVERS):
        fn = registry[process]

        def tracked(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            finished.append(out)
            return out

        monkeypatch.setitem(registry, process, tracked)
    match = r"record must be True or False, got .* \(record=True returns"
    with pytest.raises(ValueError, match=match):
        PROCESS_DRIVERS[process](GRAPH, 0, seed=1, record=bad)
    with pytest.raises(ValueError, match=match):
        BATCHED_DRIVERS[process](GRAPH, 0, reps=0, record=bad)
    for mode in ({"batched": False}, {"batched": True}, {}, {"n_jobs": 2}):
        with pytest.raises(ValueError, match=match):
            estimate_dispersion(
                GRAPH, process, reps=REPS, seed=1, record=bad, **mode
            )
    if available_kernels()["cffi"]:
        with pytest.raises(ValueError, match=match):
            route.run_reps(process, GRAPH, [1], record=bad, kernels="cffi")
    assert finished == []


@pytest.mark.parametrize("process", sorted(PROCESS_DRIVERS))
def test_numpy_bool_record_accepted(process):
    """``record`` accepts NumPy booleans like Python ones."""
    est = estimate_dispersion(GRAPH, process, reps=2, seed=1, record=np.True_)
    ref = estimate_dispersion(GRAPH, process, reps=2, seed=1, record=True)
    assert est.trajectories == ref.trajectories
    assert estimate_dispersion(
        GRAPH, process, reps=2, seed=1, record=np.False_
    ).trajectories is None


@pytest.mark.parametrize("build", ["csr", "implicit"])
def test_deep_tail_straddles_finisher_with_recording(build):
    """A repetition count above the threshold: the lock-step phase runs
    first and the finisher takes over only for the last stragglers, so
    the trajectory store's handoff seeds the scalar micro-loop mid-walk.
    On the implicit build the finisher's adjacency access goes through
    the lazy per-vertex view instead of materialised lists."""
    oracle_g = cycle_graph(32)
    g = cycle_graph(32, implicit=(build == "implicit"))
    reps = 24  # > tail_threshold=16: genuine mid-run handoff
    for process in ("sequential", "parallel"):
        serial = [
            PROCESS_DRIVERS[process](oracle_g, 0, seed=s, record=True)
            for s in spawn_seed_sequences(11, reps)
        ]
        batch = BATCHED_DRIVERS[process](
            g, 0, seeds=spawn_seed_sequences(11, reps), record=True,
            tail_threshold=16,
        )
        for s, b in zip(serial, batch):
            assert_result_identical(s, b)
