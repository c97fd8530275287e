"""Unit tests of the compiled-kernel seam (:mod:`repro.kernels`).

The differential harness (``tests/test_differential_drivers.py``) pins
whole driver runs bit-identical across providers; this module covers the
layer's own contracts:

* registry resolution precedence (explicit argument > ``REPRO_KERNELS``
  > auto-detection) and its failure modes — an explicitly requested
  provider that cannot initialise raises, auto-detection falls through
  silently, the numpy fallback is always available; the registry is
  exactly ``{numpy, cffi}``, and ``$CC`` may carry flags after the
  compiler;
* pickling resolved providers by name (the fan-out runner's kwargs
  path);
* kernel-by-kernel parity of each compiled provider against the
  :class:`~repro.kernels.NumpyKernels` reference implementations on
  irregular graphs, including the offset-clamp edge at ``u -> 1``;
* the single-walker compiled loops against the pure-Python
  :class:`~repro.walks.single.SingleWalkKernel` path;
* the per-repetition CTU-/Uniform-IDLA loops against their serial
  drivers at tiny fetch blocks (ticks straddling every refill), and the
  numpy ``logq`` table they read;
* the per-repetition Parallel-IDLA loop against ``parallel_idla`` on
  every numpy BitGenerator family, across the wide -> narrow draw
  switch, and the generator position it leaves behind;
* recording: every per-repetition loop at tiny event sinks against the
  serial trajectories, and the sink's grouping pass;
* the build cache keyed on the whole compile command;
* the ``UniformStream.take_block`` handoff contract the compiled tail
  finishers consume.
"""

from __future__ import annotations

import os
import pickle
import shutil

import numpy as np
import pytest

import repro.core.continuous as continuous_mod
import repro.core.uniform as uniform_mod
import repro.kernels as kernels_mod
from repro.core.route import _skip_log_table, run_reps
from repro.core.continuous import ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.sequential import sequential_idla
from repro.core.uniform import uniform_idla
from repro.graphs import complete_binary_tree, cycle_graph, grid_graph, star_graph
from repro.kernels import (
    KernelSet,
    KernelsUnavailableError,
    NumpyKernels,
    available_kernels,
    check_kernels,
    csr_arrays,
    get_kernels,
)
from repro.utils.rng import UniformStream, as_generator, spawn_seed_sequences
from repro.walks.single import random_walk, walk_until_hit

AVAILABLE = available_kernels()
COMPILED = [
    pytest.param(
        name,
        marks=()
        if ok
        else pytest.mark.skip(reason=f"kernel provider {name!r} unavailable"),
    )
    for name, ok in sorted(AVAILABLE.items())
    if name != "numpy"
]


# ---------------------------------------------------------------------------
# registry / resolution


def test_numpy_provider_always_available_and_cached():
    ks = get_kernels("numpy")
    assert isinstance(ks, NumpyKernels)
    assert ks.compiled is False
    assert get_kernels("numpy") is ks  # registry caches by name
    assert AVAILABLE["numpy"] is True


def test_kernelset_instance_passes_through():
    ks = get_kernels("numpy")
    assert get_kernels(ks) is ks


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "definitely-not-a-provider")
    assert get_kernels("numpy").name == "numpy"


def test_environment_resolves_when_no_argument(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    assert get_kernels().name == "numpy"
    monkeypatch.setenv("REPRO_KERNELS", "")
    # empty is unset: auto-detection must yield *some* provider
    assert isinstance(get_kernels(), KernelSet)


def test_unknown_provider_raises_listing_choices(monkeypatch):
    with pytest.raises(ValueError, match="unknown kernel provider"):
        get_kernels("bogus")
    monkeypatch.setenv("REPRO_KERNELS", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        get_kernels()


def test_non_string_spec_raises_typeerror():
    with pytest.raises(TypeError, match="provider name"):
        get_kernels(3)


def test_auto_never_raises():
    assert isinstance(get_kernels("auto"), KernelSet)


@pytest.fixture
def fresh_registry(monkeypatch, tmp_path):
    """Empty provider cache/failure memo and a private build cache, so a
    test sees provider resolution (and the C build) from scratch."""
    pytest.importorskip("cffi")
    monkeypatch.setattr(kernels_mod, "_CACHE", {})
    monkeypatch.setattr(kernels_mod, "_FAILED", {})
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    return monkeypatch


def test_explicitly_requesting_missing_provider_raises(fresh_registry):
    fresh_registry.setenv("CC", "no-such-compiler-for-repro-tests")
    # auto-detection skips a provider whose compiler is absent, silently
    assert get_kernels("auto").name == "numpy"
    with pytest.raises(KernelsUnavailableError, match="cffi"):
        get_kernels("cffi")


def test_cc_with_flags_keeps_the_compiled_provider(fresh_registry):
    # CC may carry flags, as in make; the compiler is its first word
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    fresh_registry.setenv("CC", f"{cc} -std=c99")
    assert available_kernels()["cffi"] is True
    assert get_kernels("auto").name == "cffi"
    assert get_kernels("cffi").compiled


def test_registry_names_numpy_and_cffi_only():
    assert set(AVAILABLE) == {"numpy", "cffi"}


@pytest.mark.parametrize("name", ["numba", "NUMPY", "cffi "])
def test_retired_and_misspelt_provider_names_raise(name, monkeypatch):
    for resolve in (get_kernels, check_kernels):
        with pytest.raises(ValueError, match="unknown kernel provider"):
            resolve(name)
    monkeypatch.setenv("REPRO_KERNELS", name)
    with pytest.raises(ValueError, match="unknown kernel provider"):
        get_kernels()


@pytest.mark.parametrize(
    "template", ["{cc}", "{cc} -std=c99", "  {cc}\t-O2  -g ", "'{cc}' -w"]
)
def test_compiler_probe_reads_the_first_word_of_cc(template, monkeypatch):
    pytest.importorskip("cffi")
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("CC", template.format(cc=cc))
    assert kernels_mod._dep_present("cffi") is True


def test_compiler_probe_rejects_a_missing_compiler_with_flags(monkeypatch):
    monkeypatch.setenv("CC", "no-such-compiler-for-repro-tests -std=c99")
    assert kernels_mod._dep_present("cffi") is False


def test_failed_build_reports_the_whole_cc_command(fresh_registry):
    from repro.kernels import cffi_impl

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    fresh_registry.setenv("CC", f"{cc} -fno-such-flag-for-repro-tests")
    with pytest.raises(RuntimeError, match="failed to build") as exc:
        cffi_impl._ensure_built()
    assert "-fno-such-flag-for-repro-tests" in str(exc.value).split("failed")[0]


def test_cache_key_covers_the_compile_command(fresh_registry):
    """Two ``CC`` flag strings build two cached libraries (a fast-math
    build must never be reused for a plain one), and every build passes
    ``-ffp-contract=off`` explicitly."""
    from repro.kernels import cffi_impl

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    argvs = []
    run = cffi_impl.subprocess.run

    def recording_run(argv, **kwargs):
        argvs.append(list(argv))
        return run(argv, **kwargs)

    fresh_registry.setattr(cffi_impl.subprocess, "run", recording_run)
    paths = []
    for flags in ("-std=c99", "-std=gnu99"):
        fresh_registry.setenv("CC", f"{cc} {flags}")
        paths.append(cffi_impl._ensure_built())
        assert cffi_impl._ensure_built() == paths[-1]  # cached: no rebuild
    assert paths[0] != paths[1]
    assert len(argvs) == 2
    assert all("-ffp-contract=off" in argv for argv in argvs)
    cache = os.environ["REPRO_KERNELS_CACHE"]
    assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in paths)


@pytest.mark.parametrize("name", [n for n, ok in sorted(AVAILABLE.items()) if ok])
def test_resolved_providers_pickle_by_name(name):
    ks = get_kernels(name)
    clone = pickle.loads(pickle.dumps(ks))
    assert clone is ks  # same process: the registry cache round-trips


@pytest.mark.parametrize("provider", COMPILED)
def test_compiled_providers_declare_a_width_gate(provider):
    """Compiled providers carry a positive ``min_width``: narrow rounds
    stay on the numpy expressions where FFI overhead would lose."""
    ks = get_kernels(provider)
    assert ks.compiled and ks.min_width > 0
    assert get_kernels("numpy").min_width == 0


def test_csr_arrays_gate():
    g = cycle_graph(12)
    csr = csr_arrays(g)
    assert csr is not None
    indptr, indices = csr
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert csr_arrays(cycle_graph(12, implicit=True)) is None
    assert csr_arrays(object()) is None


# ---------------------------------------------------------------------------
# kernel-by-kernel parity against the numpy reference

#: Irregular fixtures (degree varies per vertex, so the per-position
#: degree gather path is exercised); every vertex has degree >= 1.
GRAPHS = [complete_binary_tree(4), star_graph(20), cycle_graph(17)]


def _positions_and_uniforms(g, rng, k=257):
    pos = rng.integers(0, g.n, size=k)
    u = rng.random(k)
    # force the off == deg clamp edge and the exact-0 edge
    u[:3] = [np.nextafter(1.0, 0.0), 0.0, 0.5]
    return pos, u


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_csr_step_matches_reference(provider, g):
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    indptr, indices = csr_arrays(g)
    rng = np.random.default_rng(42)
    for _ in range(5):
        pos, u = _positions_and_uniforms(g, rng)
        expect = ref.csr_step(indptr, indices, pos, u)
        assert np.array_equal(ks.csr_step(indptr, indices, pos, u), expect)
        out = np.empty(pos.size, dtype=np.int64)
        assert np.array_equal(ks.csr_step(indptr, indices, pos, u, out), expect)
        # the fused per-graph closure is the same kernel
        fused = ks.stepper(g)
        assert fused is not None
        assert np.array_equal(fused(pos, u), expect)


@pytest.mark.parametrize("provider", COMPILED)
def test_stepper_stands_down_without_csr(provider):
    assert get_kernels(provider).stepper(cycle_graph(12, implicit=True)) is None


@pytest.mark.parametrize("provider", COMPILED)
def test_vacant_candidates_matches_reference(provider):
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    rng = np.random.default_rng(7)
    for k in (0, 1, 37, 256):
        occ = rng.random(20 * 40) < 0.5
        rep_off = rng.integers(0, 20, size=k) * 40
        pos = rng.integers(0, 40, size=k)
        expect = ref.vacant_candidates(occ, rep_off, pos)
        got = ks.vacant_candidates(occ, rep_off, pos)
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("provider", COMPILED)
def test_settle_round_matches_reference_and_restores_scratch(provider):
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    rng = np.random.default_rng(11)
    n, reps = 40, 6
    scratch = ks.make_settle_scratch(n)
    for trial in range(20):
        occ = rng.random(reps * n) < 0.4
        k = int(rng.integers(1, 64))
        # rep-grouped ascending, as the drivers' flat state guarantees
        rep_ids = np.sort(rng.integers(0, reps, size=k))
        pos = rng.integers(0, n, size=k)
        prio = rng.permutation(k).astype(np.int64)
        expect = ref.settle_round(occ.copy(), rep_ids, pos, prio, n)
        got = ks.settle_round(occ.copy(), rep_ids, pos, prio, n, scratch)
        assert np.array_equal(got, expect), trial
        # the persistent scratch must come back all -1, or the next
        # round inherits stale contests
        assert np.all(scratch == -1), trial


@pytest.mark.parametrize("provider", COMPILED)
def test_settle_round_tie_priority_keeps_first(provider):
    """Equal priorities: the reference lexsort is stable, so the first
    occurrence in flat order wins; the compiled strict-< compare must
    agree."""
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    n = 5
    occ = np.zeros(2 * n, dtype=bool)
    rep_ids = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    pos = np.array([2, 2, 3, 4, 4], dtype=np.int64)
    prio = np.array([9, 9, 1, 3, 3], dtype=np.int64)
    expect = ref.settle_round(occ.copy(), rep_ids, pos, prio, n)
    got = ks.settle_round(occ.copy(), rep_ids, pos, prio, n)
    assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# single-walker loops


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_single_walks_match_python_loop(provider, g):
    for seed in (0, 1234):
        assert np.array_equal(
            random_walk(g, 0, 3000, seed=seed, kernels="numpy"),
            random_walk(g, 0, 3000, seed=seed, kernels=provider),
        )
        assert walk_until_hit(
            g, 0, [g.n - 1], seed=seed, kernels="numpy"
        ) == walk_until_hit(g, 0, [g.n - 1], seed=seed, kernels=provider)


@pytest.mark.parametrize("provider", COMPILED)
def test_walk_until_hit_limit_and_trivial_cases(provider):
    g = cycle_graph(64)
    assert walk_until_hit(g, 5, [5], seed=1, kernels=provider) == 0
    with pytest.raises(RuntimeError, match="max_steps=3"):
        walk_until_hit(g, 0, [32], seed=2, max_steps=3, kernels=provider)


# ---------------------------------------------------------------------------
# per-repetition tick-process loops

TICK_DRIVERS = {
    "uniform": (uniform_idla, uniform_mod, ()),
    "ctu": (ctu_idla, continuous_mod, ("settle_clock",)),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("process", sorted(TICK_DRIVERS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_tick_loops_match_serial_at_tiny_blocks(
    provider, block, process, g, monkeypatch
):
    """With 1-5 doubles per fetch, ticks (2-3 doubles each) straddle
    nearly every refill: the loop's carried tail and the numpy log lane
    must still replay the serial draws, and each generator must end
    where the serial driver leaves it."""
    serial, module, extras = TICK_DRIVERS[process]
    monkeypatch.setattr(module, "_BLOCK", block)
    seeds = spawn_seed_sequences(7, 4)
    ref_gens = [as_generator(s) for s in seeds]
    gens = [as_generator(s) for s in seeds]
    ref = [serial(g, 0, seed=gen, num_particles=7) for gen in ref_gens]
    got = run_reps(process, g, gens, 0, num_particles=7, kernels=provider)
    for s, b, ref_gen, gen in zip(ref, got, ref_gens, gens):
        assert (s.dispersion_time, s.ticks) == (b.dispersion_time, b.ticks)
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name))
        assert gen.random() == ref_gen.random()


#: Every numpy BitGenerator family: the per-repetition Parallel-IDLA loop
#: calls each one's ``next_double`` directly.
BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def _generators(family, n=4):
    return [np.random.Generator(family(s)) for s in spawn_seed_sequences(7, n)]


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_parallel_loop_matches_serial_on_every_bit_generator(
    provider, family, record, lazy, g, monkeypatch
):
    """The loop draws from each bit generator's ``next_double`` in C,
    and ``scalar_threshold=3`` switches each run from the wide to the
    narrow draw mid-stream: the samples, settle orders and trajectories
    must still be ``parallel_idla``'s, for every BitGenerator family.
    An unrecorded repetition is one compiled call."""
    kwargs = {"lazy": lazy, "scalar_threshold": 3, "record": record}
    ref = [parallel_idla(g, 0, seed=gen, **kwargs) for gen in _generators(family)]
    ks = get_kernels(provider)
    calls = []
    inner = ks._impl.run_parallel

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(ks._impl, "run_parallel", counted)
    got = run_reps(
        "parallel", g, _generators(family), 0, kernels=provider, **kwargs
    )
    if not record:
        assert len(calls) == len(ref)
    for s, b in zip(ref, got):
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        assert b.trajectories == s.trajectories


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
def test_parallel_loop_leaves_each_generator_after_its_last_double(
    provider, family
):
    """With a fixed origin, index ties and no laziness a repetition
    draws exactly one double per particle-step, so afterwards its
    generator's next double is double ``total_steps + 1`` of a fresh
    twin."""
    gens = _generators(family)
    got = run_reps("parallel", grid_graph(4, 5), gens, 0, kernels=provider)
    for res, gen, twin in zip(got, gens, _generators(family)):
        twin.random(res.total_steps)
        assert gen.random() == twin.random()


@pytest.mark.parametrize("provider", COMPILED)
def test_parallel_loop_rejects_rows_it_cannot_update_in_place(provider):
    """The loop writes through raw pointers: a row of another dtype or a
    strided view would be reinterpreted or silently copied, and a row too
    short for the particles in ``act`` or the vertices of the graph would
    be read or written past its end, so the wrapper refuses them before
    any draw."""
    ks = get_kernels(provider)
    g = cycle_graph(5)
    indptr, indices = csr_arrays(g)

    def run(rng, **override):
        rows = {
            "occ_row": np.array([1, 0, 0, 0, 0], dtype=np.uint8),
            "act": np.arange(1, 5, dtype=np.int64),
            "pos": np.zeros(4, dtype=np.int64),
            "prio": np.arange(5, dtype=np.int64),
            "best": np.full(5, -1, dtype=np.int64),
            "steps_row": np.zeros(5, dtype=np.int64),
            "settled_row": np.full(5, -1, dtype=np.int64),
            "round_row": np.full(5, -1, dtype=np.int64),
        }
        rows.update(override)
        return ks.finish_parallel(
            indptr, indices, rows["occ_row"], rows["act"], rows["pos"],
            rows["prio"], rows["best"], rows["steps_row"],
            rows["settled_row"], rows["round_row"], rng, free=4, lazy=False,
            scalar_threshold=16, budget=float("inf"), max_rounds=None,
        )

    assert run(as_generator(0)) > 0
    for bad in (
        {"act": np.arange(1, 5, dtype=np.int32)},
        {"pos": np.zeros(8, dtype=np.int64)[::2]},
        {"pos": np.zeros(3, dtype=np.int64)},
        {"best": np.full(4, -1, dtype=np.int64)},
        {"occ_row": np.array([1, 0, 0, 0], dtype=np.uint8)},
        {"prio": np.arange(4, dtype=np.int64)},
        {"steps_row": np.zeros(4, dtype=np.int64)},
        {"settled_row": np.full(4, -1, dtype=np.int64)},
        {"round_row": np.full(4, -1, dtype=np.int64)},
        {"act": np.array([1, 2, 3, 5], dtype=np.int64)},
        {"act": np.array([-1, 2, 3, 4], dtype=np.int64)},
        {"pos": np.array([0, 0, 0, 5], dtype=np.int64)},
        {"pos": np.array([0, -1, 0, 0], dtype=np.int64)},
    ):
        rng = as_generator(0)
        with pytest.raises(ValueError, match="finish_parallel"):
            run(rng, **bad)
        assert rng.random() == as_generator(0).random()  # nothing drawn


def _sequential_call(ks, indptr, indices, stream, rows):
    return ks.finish_sequential(
        indptr, indices, rows["occ_row"], rows["starts"], stream,
        walker=rows["walker"], pos=rows["pos"], pstep=0, total=0,
        lazy=False, budget=float("inf"), limit_msg="limit",
        steps_row=rows["steps_row"], settled_row=rows["settled_row"],
    )


def _ctu_call(ks, indptr, indices, stream, rows):
    return ks.finish_ctu(
        indptr, indices, rows["occ_row"], rows["pool"], rows["pos_row"],
        rows["steps_row"], rows["settled_row"], rows["clock_row"],
        rows["order"], stream, k=rows["k"], norder=rows["norder"], rate=1.0,
    )


def _uniform_call(ks, indptr, indices, stream, rows):
    return ks.finish_uniform(
        indptr, indices, rows["occ_row"], rows["pool"], rows["pos_row"],
        rows["steps_row"], rows["settled_row"], rows["order"], stream,
        k=rows["k"], norder=rows["norder"], logq=rows["logq"],
        budget=float("inf"), limit_msg="limit",
    )


#: The block-fed loops, each with its row set on C5 (particle 0 settled
#: at vertex 0, particles 1..4 to walk from 0) and its violations: the
#: wrong dtype, a strided view, short rows, out-of-range indices.
BLOCK_LOOPS = {
    "finish_sequential": (
        _sequential_call,
        lambda: {
            "occ_row": np.array([1, 0, 0, 0, 0], dtype=bool),
            "starts": np.zeros(5, dtype=np.int64),
            "steps_row": np.zeros(5, dtype=np.int64),
            "settled_row": np.array([0, -1, -1, -1, -1], dtype=np.int64),
            "walker": 1,
            "pos": 0,
        },
        [
            {"steps_row": np.zeros(5, dtype=np.int32)},
            {"settled_row": np.full(10, -1, dtype=np.int64)[::2]},
            {"occ_row": np.array([1, 0, 0, 0, 0], dtype=np.int32)},
            {"steps_row": np.zeros(4, dtype=np.int64)},
            {"settled_row": np.full(4, -1, dtype=np.int64)},
            {"occ_row": np.array([1, 0, 0, 0], dtype=bool)},
            {"starts": np.array([0, 0, 0, 0, 5], dtype=np.int64)},
            {"starts": np.array([0, -1, 0, 0, 0], dtype=np.int64)},
            {"walker": 5},
            {"walker": -1},
            {"pos": 5},
            {"pos": -1},
        ],
    ),
    "finish_ctu": (
        _ctu_call,
        lambda: {
            "occ_row": np.array([1, 0, 0, 0, 0], dtype=np.uint8),
            "pool": np.arange(1, 5, dtype=np.int64),
            "pos_row": np.zeros(5, dtype=np.int64),
            "steps_row": np.zeros(5, dtype=np.int64),
            "settled_row": np.array([0, -1, -1, -1, -1], dtype=np.int64),
            "clock_row": np.zeros(5),
            "order": np.zeros(5, dtype=np.int64),
            "k": 4,
            "norder": 1,
        },
        [
            {"clock_row": np.zeros(5, dtype=np.float32)},
            {"steps_row": np.zeros(5, dtype=np.int32)},
            {"pool": np.arange(1, 5, dtype=np.int32)},
            {"clock_row": np.zeros(4)},
            {"order": np.zeros(4, dtype=np.int64)},
            {"pool": np.arange(1, 4, dtype=np.int64)},
            {"pos_row": np.zeros(10, dtype=np.int64)[::2]},
            {"pool": np.array([1, 2, 3, 5], dtype=np.int64)},
            {"pool": np.array([-1, 2, 3, 4], dtype=np.int64)},
            {"pos_row": np.array([0, 0, 0, 5, 0], dtype=np.int64)},
            {"k": 5},
            {"norder": 2},
            {"norder": -1},
        ],
    ),
    "finish_uniform": (
        _uniform_call,
        lambda: {
            "occ_row": np.array([1, 0, 0, 0, 0], dtype=np.uint8),
            "pool": np.arange(1, 5, dtype=np.int64),
            "pos_row": np.zeros(5, dtype=np.int64),
            "steps_row": np.zeros(5, dtype=np.int64),
            "settled_row": np.array([0, -1, -1, -1, -1], dtype=np.int64),
            "order": np.zeros(5, dtype=np.int64),
            "logq": np.log1p(-(np.arange(4) / 4)),
            "k": 4,
            "norder": 1,
        },
        [
            {"settled_row": np.full(5, -1, dtype=np.int32)},
            {"logq": np.log1p(-(np.arange(4) / 4)).astype(np.float32)},
            {"occ_row": np.array([1, 0, 0, 0, 0], dtype=np.int64)},
            {"settled_row": np.full(4, -1, dtype=np.int64)},
            {"occ_row": np.array([1, 0, 0, 0], dtype=np.uint8)},
            {"pool": np.array([1, 2, 3, 7], dtype=np.int64)},
            {"pos_row": np.array([0, 9, 0, 0, 0], dtype=np.int64)},
            {"k": -1},
            {"norder": 2},
        ],
    ),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("loop", sorted(BLOCK_LOOPS))
def test_block_loops_reject_rows_they_cannot_update_in_place(provider, loop):
    """As ``finish_parallel`` does, the block-fed loops refuse rows of
    another dtype, strided views, rows too short for the particles or
    the graph, and indices outside their rows, before any draw: C would
    misread them or write past a row's end."""
    ks = get_kernels(provider)
    indptr, indices = csr_arrays(cycle_graph(5))
    call, rows, bad_rows = BLOCK_LOOPS[loop]
    stream = UniformStream(as_generator(0), block=64)
    call(ks, indptr, indices, stream, rows())
    assert stream.drawn > 0
    for bad in bad_rows:
        stream = UniformStream(as_generator(0), block=64)
        with pytest.raises(ValueError, match=loop):
            call(ks, indptr, indices, stream, {**rows(), **bad})
        assert stream.drawn == 0, bad  # nothing drawn


# ---------------------------------------------------------------------------
# recording: event sinks of the per-repetition loops

#: (process, serial driver, kwargs) per recorded loop shape: lazy holds
#: in both draw phases, random ties, ``m > n`` surplus walkers.
RECORDED_LOOPS = {
    "parallel-lazy": (
        "parallel", parallel_idla, {"lazy": True, "scalar_threshold": 3}
    ),
    "parallel-random-ties": ("parallel", parallel_idla, {"tie_break": "random"}),
    "parallel-m>n": ("parallel", parallel_idla, {"num_particles": 14}),
    "sequential-lazy": ("sequential", sequential_idla, {"lazy": True}),
    "uniform": ("uniform", uniform_idla, {"num_particles": 7}),
    "ctu": ("ctu", ctu_idla, {"num_particles": 7}),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("capacity", [1, 2, 5])
@pytest.mark.parametrize("record", [True, "arrays"], ids=["lists", "arrays"])
@pytest.mark.parametrize("origin", [0, "uniform"])
@pytest.mark.parametrize("loop", sorted(RECORDED_LOOPS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_recorded_loops_match_serial_at_tiny_sinks(
    provider, capacity, record, origin, loop, g, monkeypatch
):
    """Sinks of 1-5 events (a Parallel-IDLA sink holds at least one
    round) fill over and over: every re-entry after "sink full" must
    resume the loop exactly, and the grouped events must equal the
    serial trajectories in the serial shape.  Particles settled at their
    start (all of them, some reps, under ``origin="uniform"``) keep
    ``[start]``."""
    monkeypatch.setattr(kernels_mod, "_SINK_EVENTS", capacity)
    reopened = []
    seal = kernels_mod.EventSink.seal

    def counted(self, count, *, reopen=True):
        reopened.append(reopen)
        return seal(self, count, reopen=reopen)

    monkeypatch.setattr(kernels_mod.EventSink, "seal", counted)
    process, serial, kwargs = RECORDED_LOOPS[loop]
    ref = [
        serial(g, origin, seed=s, record=record, **kwargs)
        for s in spawn_seed_sequences(7, 4)
    ]
    got = run_reps(
        process, g, spawn_seed_sequences(7, 4), origin, record=record,
        kernels=provider, **kwargs,
    )
    if capacity == 1:
        assert any(reopened)  # some sink filled up and the loop re-entered
    for s, b in zip(ref, got):
        assert type(b.trajectories) is type(s.trajectories)
        assert b.trajectories == s.trajectories
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)


@pytest.mark.parametrize("provider", COMPILED)
def test_event_sink_groups_events_by_particle(provider):
    """Events interleaved across particles and split over several sealed
    buffers group into per-particle rows, chronological, each opened by
    its start; a particle with no event keeps ``[start]``."""
    ks = get_kernels(provider)
    sink = ks.event_sink()
    assert sink.capacity == kernels_mod._SINK_EVENTS
    assert ks.event_sink(kernels_mod._SINK_EVENTS + 1).capacity == (
        kernels_mod._SINK_EVENTS + 1
    )
    sink.buf[:6] = [2, 5, 0, 1, 2, 6]
    sink.seal(3)
    sink.buf[:4] = [0, 2, 2, 7]
    sink.seal(2, reopen=False)
    traj = sink.trajectories(np.array([9, 8, 4, 3], dtype=np.int64))
    assert traj.to_lists() == [[9, 1, 2], [8], [4, 5, 6, 7], [3]]
    assert traj.offsets.tolist() == [0, 3, 4, 8, 9]
    empty = ks.event_sink().trajectories(np.array([1, 0], dtype=np.int64))
    assert empty.to_lists() == [[1], [0]]
    with pytest.raises(ValueError, match="capacity"):
        kernels_mod.EventSink(ks._impl.scatter_events, 0)


@pytest.mark.parametrize("provider", COMPILED)
def test_parallel_loop_rejects_a_sink_smaller_than_a_round(provider):
    """A Parallel-IDLA round writes one event per active particle at
    once, so a sink that cannot hold one round could never drain."""
    ks = get_kernels(provider)
    g = cycle_graph(5)
    indptr, indices = csr_arrays(g)
    with pytest.raises(ValueError, match="one round"):
        ks.finish_parallel(
            indptr, indices, np.array([1, 0, 0, 0, 0], dtype=np.uint8),
            np.arange(1, 5, dtype=np.int64), np.zeros(4, dtype=np.int64),
            np.arange(5, dtype=np.int64), np.full(5, -1, dtype=np.int64),
            np.zeros(5, dtype=np.int64), np.full(5, -1, dtype=np.int64),
            np.full(5, -1, dtype=np.int64), as_generator(0), free=4,
            lazy=False, scalar_threshold=16, budget=float("inf"),
            max_rounds=None,
            sink=kernels_mod.EventSink(ks._impl.scatter_events, 3),
        )


@pytest.mark.parametrize("pool_size", [1, 2, 3, 7, 10, 63, 1000, 4097])
def test_skip_log_table_matches_serial_scalar(pool_size):
    """The vectorised table equals uniform_idla's scalar computation
    ``float(np.log1p(-(k / pool_size)))`` bit for bit, for every k."""
    table = _skip_log_table(pool_size)
    assert table.shape == (pool_size,)
    for k in range(1, pool_size):
        assert table[k] == float(np.log1p(-(k / pool_size))), k


# ---------------------------------------------------------------------------
# UniformStream.take_block handoff contract


def test_take_block_resumes_buffered_suffix_then_whole_blocks():
    rng = as_generator(99)
    ref = as_generator(99).random(20)
    s = UniformStream(rng, block=8)
    head = [s.uniform() for _ in range(3)]
    first = s.take_block()  # remainder of the current block: 5 doubles
    assert head == ref[:3].tolist()
    assert first.tolist() == ref[3:8].tolist()
    second = s.take_block()  # fresh whole block
    assert second.tolist() == ref[8:16].tolist()
    assert s.drawn == 16  # reconcilable with the serial fetch schedule


def test_take_block_consumes_initial_prefix_first():
    leftover = np.array([0.25, 0.75], dtype=np.float64)
    s = UniformStream(as_generator(5), block=4, initial=leftover)
    first = s.take_block()
    assert first.tolist() == leftover.tolist()
    assert s.drawn == 0  # the prefix was already drawn by the caller
    assert s.take_block().tolist() == as_generator(5).random(4).tolist()
    assert s.drawn == 4
