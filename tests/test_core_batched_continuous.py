"""Batched continuous/uniform drivers vs the serial reference oracles.

The contract under test is *bit-identity*: with the same spawned child
streams, ``batched_ctu_idla`` / ``batched_uniform_idla`` /
``batched_continuous_sequential_idla`` must reproduce every field of
every ``DispersionResult`` the serial drivers produce — continuous
dispersion times, tick clocks, per-particle step counts, settlement maps,
settle order and the ``settle_clock`` / ``durations`` extras — across
graph families, rates, origin specifications and particle-count variants.
Plus chunk-invariance: the batched buffer block size must not influence a
single bit (the uniform-double streams have no batch boundaries), and the
runner's auto dispatch must be invisible.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batched_continuous as bc
from repro.core import (
    batched_continuous_sequential_idla,
    batched_ctu_idla,
    batched_uniform_idla,
    continuous_sequential_idla,
    ctu_idla,
    uniform_idla,
)
from repro.core.origins import resolve_origins
from repro.core.settlement import UnsettledPool, settle_vacant_starts_inorder
from repro.experiments import estimate_dispersion
from repro.experiments.runner import BATCHED_DRIVERS, PROCESS_DRIVERS
from repro.graphs import complete_graph, cycle_graph, grid_graph
from repro.kernels import available_kernels, get_kernels
from repro.utils.rng import as_generator, spawn_seed_sequences

REPS = 5
PARENT_SEED = 20260730


def assert_results_identical(serial, batch, extras=()):
    assert len(serial) == len(batch)
    for s, b in zip(serial, batch):
        assert s.process == b.process
        assert s.graph_name == b.graph_name
        assert s.n == b.n
        assert s.origin == b.origin
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert s.ticks == b.ticks
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        assert s.num_particles == b.num_particles
        assert b.trajectories is None
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name)), name


def graph_cases():
    return [cycle_graph(32), complete_graph(24), grid_graph(6, 5)]


CTU_VARIANTS = [
    {},
    {"rate": 0.5},
    {"origin": "uniform"},
    {"num_particles": 9},
]

UNIFORM_VARIANTS = [
    {},
    {"origin": "uniform"},
    {"num_particles": 9},
    {"max_ticks": 10**9},
]

CSEQ_VARIANTS = [
    {},
    {"rate": 2.0},
    {"origin": "uniform"},
]


#: Every provider available here: numpy runs the lock-step bodies, a
#: compiled one the per-repetition loops of uniform and ctu.
PROVIDERS = [name for name, ok in sorted(available_kernels().items()) if ok]


def run_pair(serial_driver, batched_driver, g, variant, extras=(), kernels=None):
    kwargs = dict(variant)
    origin = kwargs.pop("origin", 0)
    serial = [
        serial_driver(g, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(PARENT_SEED, REPS)
    ]
    batch = batched_driver(
        g, origin, seeds=spawn_seed_sequences(PARENT_SEED, REPS),
        kernels=kernels, **kwargs,
    )
    assert_results_identical(serial, batch, extras)
    return batch


@pytest.mark.parametrize("g", graph_cases(), ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", CTU_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_batched_ctu_bit_identical(g, variant):
    for kernels in PROVIDERS:
        batch = run_pair(
            ctu_idla, batched_ctu_idla, g, variant, ["settle_clock"], kernels
        )
        for res in batch:
            assert res.settle_clock.max() == res.dispersion_time


@pytest.mark.parametrize("g", graph_cases(), ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", UNIFORM_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_batched_uniform_bit_identical(g, variant):
    for kernels in PROVIDERS:
        batch = run_pair(
            uniform_idla, batched_uniform_idla, g, variant, (), kernels
        )
        for res in batch:
            assert res.ticks >= res.total_steps


@pytest.mark.parametrize("g", graph_cases(), ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", CSEQ_VARIANTS, ids=lambda v: ",".join(sorted(v)) or "classic"
)
def test_batched_continuous_sequential_bit_identical(g, variant):
    run_pair(
        continuous_sequential_idla,
        batched_continuous_sequential_idla,
        g,
        variant,
        ["durations"],
    )


def test_batched_cseq_all_instant_settlement():
    """K₂: particle 1 sometimes needs no walk at all, exercising the
    serial driver's drawn-but-unconsumed first block (the batched replica
    must burn it so the Gamma stream positions line up)."""
    g = complete_graph(2)
    serial = [
        continuous_sequential_idla(g, seed=s)
        for s in spawn_seed_sequences(5, 12)
    ]
    batch = batched_continuous_sequential_idla(g, seeds=spawn_seed_sequences(5, 12))
    assert_results_identical(serial, batch, ["durations"])


def test_batched_single_particle_no_draws():
    """m=1 settles at time 0 everywhere: no randomness is ever consumed."""
    g = cycle_graph(8)
    serial = [
        ctu_idla(g, 2, seed=s, num_particles=1)
        for s in spawn_seed_sequences(0, REPS)
    ]
    batch = batched_ctu_idla(
        g, 2, seeds=spawn_seed_sequences(0, REPS), num_particles=1
    )
    assert_results_identical(serial, batch, ["settle_clock"])
    assert all(res.dispersion_time == 0.0 for res in batch)


# ----------------------------------------------------------------------
# chunk-invariance: buffer block size must never change a bit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block", [2, 8, 64])
def test_batched_block_size_invariance(monkeypatch, block):
    """The lock-step buffers replay one uniform-double stream; any
    refill chunk that divides the serial fetch block (so each finished
    repetition's generator can land on the serial grid before its clock
    draws) must reproduce the serial results exactly.  (The numpy
    provider pins the lock-step body; the compiled per-repetition loops
    fetch serial-sized blocks, varied in ``tests/test_kernels.py``.)"""
    g = cycle_graph(24)

    def seeds():
        return spawn_seed_sequences(PARENT_SEED, REPS)

    ref_ctu = [ctu_idla(g, seed=s) for s in seeds()]
    ref_uni = [uniform_idla(g, seed=s) for s in seeds()]
    monkeypatch.setattr(bc, "_BLOCK", block)
    assert_results_identical(
        ref_ctu,
        batched_ctu_idla(g, seeds=seeds(), kernels="numpy"),
        ["settle_clock"],
    )
    assert_results_identical(
        ref_uni, batched_uniform_idla(g, seeds=seeds(), kernels="numpy")
    )


@pytest.mark.parametrize("block", [2, 8, 64])
def test_batched_faithful_schedule_block_size_invariance(monkeypatch, block):
    """The recorded ``faithful_r`` schedule and trajectories must be
    invariant to the streaming refill chunk — the store records what the
    process *consumed*, never where a buffer happened to refill (guards
    against fetch-grid drift in the trajectory/schedule stores)."""
    g = cycle_graph(24)

    def seeds():
        return spawn_seed_sequences(PARENT_SEED, REPS)

    ref = [
        uniform_idla(g, seed=s, faithful_r=True, record=True) for s in seeds()
    ]
    monkeypatch.setattr(bc, "_BLOCK", block)
    batch = batched_uniform_idla(g, seeds=seeds(), faithful_r=True, record=True)
    for s, b in zip(ref, batch):
        assert np.array_equal(s.schedule, b.schedule)
        assert s.trajectories == b.trajectories
        assert s.ticks == b.ticks
        assert np.array_equal(s.steps, b.steps)


def test_serial_stream_block_invariance():
    """The serial oracle itself is chunk-invariant in its stream block."""
    from repro.utils.rng import UniformStream, as_generator

    ref = as_generator(123).random(40)
    for block in (1, 7, 64):
        s = UniformStream(as_generator(123), block=block)
        got = [s.uniform() for _ in range(40)]
        assert np.array_equal(np.asarray(got), ref)


# ----------------------------------------------------------------------
# budgets and argument validation
# ----------------------------------------------------------------------


def test_batched_budget_errors_match_serial():
    g = cycle_graph(64)
    for kernels in PROVIDERS:
        with pytest.raises(RuntimeError, match="max_ticks=3"):
            batched_uniform_idla(
                g, seeds=spawn_seed_sequences(0, 3), max_ticks=3, kernels=kernels
            )
    with pytest.raises(RuntimeError, match="max_ticks=3"):
        uniform_idla(g, seed=0, max_ticks=3)


def test_batched_argument_validation():
    g = cycle_graph(8)
    with pytest.raises(ValueError, match="either"):
        batched_ctu_idla(g)
    with pytest.raises(ValueError, match="does not match"):
        batched_uniform_idla(g, reps=3, seeds=spawn_seed_sequences(0, 2))
    with pytest.raises(ValueError, match="num_particles"):
        batched_ctu_idla(g, reps=2, num_particles=g.n + 1)
    with pytest.raises(ValueError, match="num_particles"):
        batched_uniform_idla(g, reps=2, num_particles=0)
    with pytest.raises(ValueError, match="rate"):
        batched_ctu_idla(g, reps=2, rate=0.0)
    with pytest.raises(ValueError, match="rate"):
        batched_continuous_sequential_idla(g, reps=2, rate=-1.0)
    assert batched_ctu_idla(g, reps=0) == []
    assert batched_uniform_idla(g, reps=0) == []
    assert batched_continuous_sequential_idla(g, reps=0) == []


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
@pytest.mark.parametrize("process", ["ctu", "c-sequential"])
@pytest.mark.parametrize("batched", [False, True])
def test_non_finite_rate_rejected_before_any_repetition(process, rate, batched):
    """``nan`` used to return all-NaN samples and ``inf`` all-zero ones;
    both now fail up front in every mode."""
    g = cycle_graph(16)
    with pytest.raises(ValueError, match="finite"):
        estimate_dispersion(g, process, reps=4, seed=1, rate=rate, batched=batched)
    with pytest.raises(ValueError, match="finite"):
        BATCHED_DRIVERS[process](g, reps=4, seed=1, rate=rate)


#: The step/tick/round cap of each process with one.
LIMITS = {
    "parallel": "max_rounds",
    "sequential": "max_total_steps",
    "uniform": "max_ticks",
}


@pytest.mark.parametrize("batched", [False, "auto"])
@pytest.mark.parametrize("process", sorted(LIMITS))
def test_nan_limit_rejected_before_any_repetition(process, batched, monkeypatch):
    """``t > nan`` is always false, so a NaN cap used to disable the
    limit silently; it now raises before any repetition finishes, while
    an infinite cap still means "no cap"."""
    g = cycle_graph(16)
    name = LIMITS[process]
    finished = []
    for registry in (PROCESS_DRIVERS, BATCHED_DRIVERS):
        fn = registry[process]

        def tracked(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            finished.append(out)
            return out

        monkeypatch.setitem(registry, process, functools.wraps(fn)(tracked))
    for reps in (2, 64):
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            estimate_dispersion(
                g, process, reps=reps, seed=0, batched=batched,
                **{name: float("nan")},
            )
    assert finished == []
    est = estimate_dispersion(
        g, process, reps=2, seed=0, batched=batched, **{name: float("inf")}
    )
    ref = estimate_dispersion(g, process, reps=2, seed=0, batched=batched)
    assert np.array_equal(est.samples, ref.samples)


#: Caps that ``float`` would have accepted: strings it parses, booleans
#: it reads as 0 or 1, and a value that is not a real number at all.
BAD_LIMITS = ["50", "1e9", True, False, np.bool_(True), 1j]


@pytest.mark.parametrize("bad", BAD_LIMITS, ids=repr)
@pytest.mark.parametrize("process", sorted(LIMITS))
def test_non_real_limit_rejected_before_any_repetition(process, bad, monkeypatch):
    """``max_total_steps="50"``, ``max_ticks="1e9"`` and
    ``max_rounds="1e9"`` used to run, and ``max_ticks=True`` acted as a
    cap of 1; every path now raises ``TypeError`` before a repetition
    runs: the serial oracle, the per-repetition route and lock-step (an
    explicit ``tail_threshold`` where the driver has one)."""
    from repro.core.route import route_kernels, run_reps

    g = cycle_graph(16)
    name = LIMITS[process]
    lockstep = {"tail_threshold": 0} if process != "uniform" else {}
    finished = []
    for registry in (PROCESS_DRIVERS, BATCHED_DRIVERS):
        fn = registry[process]

        def tracked(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            finished.append(out)
            return out

        monkeypatch.setitem(registry, process, functools.wraps(fn)(tracked))
    calls = [
        lambda: PROCESS_DRIVERS[process](g, 0, seed=0, **{name: bad}),
        lambda: BATCHED_DRIVERS[process](
            g, reps=4, seed=0, kernels="numpy", **lockstep, **{name: bad}
        ),
    ]
    calls += [
        lambda batched=batched, reps=reps: estimate_dispersion(
            g, process, reps=reps, seed=0, batched=batched, **{name: bad}
        )
        for batched in (False, True, "auto")
        for reps in (2, 64)
    ]
    if route_kernels(process, g, {}) is not None:
        calls.append(lambda: run_reps(process, g, [0, 1], kernels=None, **{name: bad}))
    for call in calls:
        with pytest.raises(TypeError, match=f"{name} must be a real number"):
            call()
    assert finished == []


# ----------------------------------------------------------------------
# shared settlement helpers
# ----------------------------------------------------------------------


def test_settle_vacant_starts_inorder_duplicate_starts():
    occupied = [False] * 4
    settled_at = np.full(5, -1, dtype=np.int64)
    order: list[int] = []
    uns = settle_vacant_starts_inorder(
        occupied, np.array([2, 2, 0, 0, 3]), settled_at, order
    )
    assert uns == [1, 3]
    assert order == [0, 2, 4]  # lowest particle index wins each vertex
    assert settled_at.tolist() == [2, -1, 0, -1, 3]
    assert occupied == [True, False, True, True]


def test_unsettled_pool_swap_remove():
    pool = UnsettledPool([4, 7, 9, 11])
    assert len(pool) == 4 and pool.pick(1) == 7
    pool.remove_at(1)  # last entry swapped into slot 1
    assert pool.ids == [4, 11, 9]
    pool.remove_at(2)  # removing the last slot is a plain pop
    assert pool.ids == [4, 11]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_init_lanes_matches_the_serial_time0_pass(data):
    """``_init_lanes`` resolves time 0 for every repetition in one numpy
    pass; each repetition must come out as the serial drivers'
    per-particle ``settle_vacant_starts_inorder`` leaves it (first
    particle per start vertex wins; settle order and pool ascending),
    under duplicate starts, explicit per-particle origins and
    ``origin="uniform"``, whose draws must stay in repetition order."""
    n = data.draw(st.integers(3, 9))
    g = cycle_graph(n)
    m = data.draw(st.integers(1, n))
    origin = data.draw(
        st.one_of(
            st.integers(0, n - 1),
            st.just("uniform"),
            st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
            st.lists(st.integers(0, 1), min_size=m, max_size=m),
        )
    )
    seeds = spawn_seed_sequences(data.draw(st.integers(0, 2**32 - 1)), 6)
    R = data.draw(st.integers(1, 6))
    gens = [as_generator(s) for s in seeds[:R]]
    (
        starts2d, occ, pos, steps, settled, orders, pool, lanes, ks,
    ) = bc._init_lanes(g, origin, m, gens)
    assert not steps.any() and np.array_equal(pos, starts2d.reshape(-1))
    ref_lanes, ref_ks = [], []
    for r, seed in enumerate(seeds[:R]):
        ref_gen = as_generator(seed)
        starts = resolve_origins(g, origin, m, ref_gen)
        ref_occ = [False] * n
        ref_settled = np.full(m, -1, dtype=np.int64)
        ref_order: list[int] = []
        uns = settle_vacant_starts_inorder(ref_occ, starts, ref_settled, ref_order)
        assert np.array_equal(starts2d[r], starts)
        assert occ[r * n : (r + 1) * n].tolist() == ref_occ
        assert np.array_equal(settled[r * m : (r + 1) * m], ref_settled)
        assert orders[r] == ref_order
        assert pool[r * m : r * m + len(uns)].tolist() == uns
        if uns:
            ref_lanes.append(r)
            ref_ks.append(len(uns))
        assert gens[r].random() == ref_gen.random()
    assert (lanes, ks) == (ref_lanes, ref_ks)


# ----------------------------------------------------------------------
# runner dispatch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("process", ["uniform", "ctu", "c-sequential"])
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
        estimate_dispersion(g, "ctu", reps=4, seed=0, batched=True, faithful_r=True)
    with pytest.raises(TypeError, match="rate"):
        estimate_dispersion(g, "uniform", reps=4, seed=0, batched=True, rate=2.0)
    # record / faithful_r are no longer serial-only: forced batching
    # accepts them and the estimate carries the recorded artefacts
    est = estimate_dispersion(
        g, "uniform", reps=4, seed=0, batched=True, faithful_r=True, record=True
    )
    ref = estimate_dispersion(
        g, "uniform", reps=4, seed=0, batched=False, faithful_r=True, record=True
    )
    assert est.dispersion.n == 4
    assert est.trajectories == ref.trajectories
    assert all(np.array_equal(a, b) for a, b in zip(est.schedules, ref.schedules))


def test_runner_auto_dispatch_thresholds():
    """Auto dispatch per kernel provider available here: a compiled one
    moves the sequential, c-sequential, uniform, ctu and parallel
    crossovers to a single repetition, numpy keeps them."""
    providers = [name for name, ok in sorted(available_kernels().items()) if ok]
    assert "numpy" in providers
    for kernels in providers:
        _check_auto_dispatch_thresholds(kernels)


def _check_auto_dispatch_thresholds(kernels):
    from repro.core.route import route_kernels
    from repro.core.stopping_rules import DelayedRule
    from repro.experiments.runner import _use_batched

    g = cycle_graph(64)
    kw = {"kernels": kernels}
    for process in ("uniform", "ctu"):
        # huge repetition counts batch too: the streaming buffers bound
        # their allocation, so there is no memory decline any more
        assert _use_batched(process, 50000, kw, "auto")

    compiled = get_kernels(kernels).compiled
    crossovers = {
        "sequential": 64,
        "c-sequential": 64,
        "uniform": 16,
        "ctu": 16,
        "parallel": 4,
    }
    for process, crossover in crossovers.items():
        assert _use_batched(process, crossover, kw, "auto")
        # a compiled provider runs each repetition in one compiled loop,
        # which wins at any repetition count, recording or not: the
        # route's gate passes ahead of the lock-step crossover; numpy
        # keeps the crossover
        for extra in (kw, dict(kw, record=True)):
            assert (route_kernels(process, g, extra) is not None) == compiled
            for reps in sorted({1, 2, crossover - 1}):
                assert not _use_batched(process, reps, extra, "auto")
        # no compiled loop for these: numpy lock-step crossover
        for graph, extra in (
            (g, {"kernels": "numpy"}),
            (g, {"kernels": "numpy", "record": True}),
            (cycle_graph(64, implicit=True), kw),
        ):
            assert route_kernels(process, graph, extra) is None
            assert _use_batched(process, crossover, extra, "auto")
            assert not _use_batched(process, crossover - 1, extra, "auto")
    # the literal-schedule scheduler has no compiled loop either
    faithful = dict(kw, faithful_r=True)
    assert route_kernels("uniform", g, faithful) is None
    assert _use_batched("uniform", 16, faithful, "auto")
    assert not _use_batched("uniform", 15, faithful, "auto")
    for process in ("sequential", "parallel"):
        crossover = crossovers[process]
        for extra in (
            dict(kw, rule=DelayedRule(2)),  # pure, but not the default rule
            dict(kw, tail_threshold=16),  # an explicit threshold pins lock-step
        ):
            assert route_kernels(process, g, extra) is None
            assert _use_batched(process, crossover, extra, "auto")
            for reps in sorted({1, crossover - 1}):
                assert not _use_batched(process, reps, extra, "auto")
        # a rule auto dispatch cannot vouch for stays on the serial oracle
        impure = dict(kw, rule=lambda t, v, vacant: vacant)
        assert route_kernels(process, g, impure) is None
        for reps in (1, crossover - 1, crossover):
            assert not _use_batched(process, reps, impure, "auto")


@pytest.mark.parametrize(
    "process", ["sequential", "c-sequential", "uniform", "ctu", "parallel"]
)
def test_auto_dispatch_rejects_unknown_names_at_any_reps(process):
    """Auto dispatch resolves ``kernels`` for the processes with a
    per-repetition route at every repetition count, so an unknown name
    fails below the lock-step crossover too, as it does above it; a
    known provider that is not installed still runs the serial oracle."""
    g = cycle_graph(16)
    for reps in (1, 64):
        with pytest.raises(ValueError, match="no-such"):
            estimate_dispersion(
                g, process, reps=reps, seed=0, kernels="no-such-provider"
            )
    missing = [name for name, ok in available_kernels().items() if not ok]
    for name in missing:
        est = estimate_dispersion(g, process, reps=2, seed=0, kernels=name)
        ref = estimate_dispersion(g, process, reps=2, seed=0, batched=False)
        assert np.array_equal(est.samples, ref.samples)


def _fail(name):
    def driver(*args, **kwargs):
        raise AssertionError(f"{name} driver ran")

    return driver


@pytest.mark.parametrize("process", sorted(PROCESS_DRIVERS))
def test_removed_options_fail_before_any_repetition(process, monkeypatch):
    """``backend=`` is no driver option (``TypeError``) and ``numba`` is
    no kernel provider (``ValueError``, as keyword or ``REPRO_KERNELS``);
    both fail before any driver runs, at any repetition count."""
    for registry in (PROCESS_DRIVERS, BATCHED_DRIVERS):
        for name, fn in list(registry.items()):
            # wraps keeps the signature the runner reads its options from
            monkeypatch.setitem(registry, name, functools.wraps(fn)(_fail(name)))
    g = cycle_graph(16)
    for reps in (1, 64):
        with pytest.raises(TypeError, match="backend"):
            estimate_dispersion(g, process, reps=reps, seed=0, backend="numpy")
        with pytest.raises(ValueError, match="numba"):
            estimate_dispersion(g, process, reps=reps, seed=0, kernels="numba")
        with monkeypatch.context() as env:
            env.setenv("REPRO_KERNELS", "numba")
            with pytest.raises(ValueError, match="numba"):
                estimate_dispersion(g, process, reps=reps, seed=0)
