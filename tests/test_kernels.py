"""Unit tests of the compiled-kernel seam (:mod:`repro.kernels`).

The differential harness (``tests/test_differential_drivers.py``) pins
whole driver runs bit-identical across providers; this module covers the
layer's own contracts:

* registry resolution precedence (explicit argument > ``REPRO_KERNELS``
  > auto-detection) and its failure modes — an explicitly requested
  provider that cannot initialise raises, auto-detection falls through
  silently, the numpy fallback is always available; the registry is
  exactly ``{numpy, cffi}``, ``$CC`` may carry flags after the
  compiler, and auto-detection returns a loaded provider without
  probing the toolchain again;
* pickling resolved providers by name (the fan-out runner's kwargs
  path);
* kernel-by-kernel parity of each compiled provider against the
  :class:`~repro.kernels.NumpyKernels` reference implementations on
  irregular graphs, including the offset-clamp edge at ``u -> 1``;
* the single-walker compiled loops against the pure-Python
  :class:`~repro.walks.single.SingleWalkKernel` path;
* the per-repetition CTU-/Uniform-IDLA jump chain against the serial
  drivers at tiny serial fetch blocks (the holding layer's grid jump at
  every size), and the generator position it leaves behind;
* the per-repetition loops against ``parallel_idla`` /
  ``sequential_idla`` / ``ctu_idla`` / ``uniform_idla`` on every numpy
  BitGenerator family (across Parallel's wide -> narrow draw switch),
  the generator position each leaves behind, c-sequential's durations
  and whole generator state after the sequential loop, and the
  lock-step sequential tail's prefix handoff;
* the Sequential-IDLA loop's lanes (several repetitions in flight per
  call): 1-65 repetitions, repetitions done at time 0 beside walking
  ones, a budget excess past the first lane, one-event sinks that make
  every lane re-enter, and the refusal of one generator for two rows;
* the Parallel-IDLA loop and the jump chain (one call runs a shard, a
  repetition at a time): 0-17 repetitions with idle rows among walking
  ones, a later row's full sink and tick cap, one particle and one
  vertex, and the row checks of every shard loop on ``(R, m)`` arrays;
* the holding layer against numpy's ``Generator.gamma`` and
  ``negative_binomial``, bit for bit, on Hypothesis level rows, grid
  skips and every draw source;
* recording: every per-repetition loop at tiny event sinks against the
  serial trajectories, and the sink's grouping pass;
* the build cache: the library keyed on the whole compile command, the
  generated ffi module on ``CDEF`` and the cffi version too, a first
  build silent on stdout, a damaged module failing like a damaged
  library, and a warm-cache load in a fresh interpreter that imports no
  pycparser yet runs the self-check;
* the ``UniformStream.take_block`` handoff contract the block-fed
  parallel straggler loop consumes.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.batched as batched_mod
import repro.core.continuous as continuous_mod
import repro.core.parallel as parallel_mod
import repro.core.sequential as sequential_mod
import repro.core.uniform as uniform_mod
import repro.kernels as kernels_mod
import repro.kernels._selfcheck as selfcheck_mod
from repro.core.batched import batched_sequential_idla
from repro.core.route import run_reps
from repro.core.continuous import continuous_sequential_idla, ctu_idla
from repro.core.origins import resolve_origins
from repro.core.parallel import parallel_idla
from repro.core.sequential import sequential_idla
from repro.core.uniform import uniform_idla
from repro.graphs import (
    Graph,
    complete_binary_tree,
    cycle_graph,
    grid_graph,
    star_graph,
)
from repro.kernels import (
    KernelSet,
    KernelsUnavailableError,
    NumpyKernels,
    available_kernels,
    check_kernels,
    csr_arrays,
    get_kernels,
)
from repro.utils.rng import (
    SpawnRange,
    UniformStream,
    as_generator,
    spawn_seed_sequences,
)
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
    # the compile path imports subprocess when it builds
    run = subprocess.run

    def recording_run(argv, **kwargs):
        argvs.append(list(argv))
        return run(argv, **kwargs)

    fresh_registry.setattr(subprocess, "run", recording_run)
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


def test_auto_returns_the_loaded_provider_without_probing(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    ks = get_kernels("auto")
    if not ks.compiled:
        pytest.skip("no compiled provider loads here")

    def no_probe(name):
        raise AssertionError(f"probed the toolchain for loaded {name!r}")

    monkeypatch.setattr(kernels_mod, "_dep_present", no_probe)
    assert get_kernels() is ks
    assert get_kernels("auto") is ks


def _require_cc():
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")


def _ffi_modules(cache):
    return sorted(f for f in os.listdir(cache) if f.startswith("repro_kernels_ffi_"))


def test_first_build_writes_nothing_to_stdout(fresh_registry, capfd):
    _require_cc()
    assert get_kernels("cffi").name == "cffi"
    assert capfd.readouterr().out == ""
    assert len(_ffi_modules(os.environ["REPRO_KERNELS_CACHE"])) == 1


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
def test_damaged_ffi_module_fails_like_a_damaged_library(fresh_registry, damage):
    """A cached ffi module that no longer imports makes ``cffi``
    unavailable: an explicit request raises, auto-detection warns and
    falls back to ``numpy``."""
    _require_cc()
    get_kernels("cffi")
    cache = os.environ["REPRO_KERNELS_CACHE"]
    (name,) = _ffi_modules(cache)
    path = os.path.join(cache, name)
    with open(path, "rb") as fh:
        text = fh.read()
    with open(path, "wb") as fh:
        fh.write(text[: len(text) // 2] if damage == "truncated" else b"\0ffi = (")
    fresh_registry.setattr(kernels_mod, "_CACHE", {})
    fresh_registry.setattr(kernels_mod, "_FAILED", {})
    with pytest.raises(KernelsUnavailableError, match="cffi"):
        get_kernels("cffi")
    fresh_registry.setattr(kernels_mod, "_FAILED", {})
    with pytest.warns(RuntimeWarning, match="cffi"):
        assert get_kernels("auto").name == "numpy"


def test_cache_key_covers_the_numpy_whose_samplers_it_links(fresh_registry):
    """The library links numpy's ``libnpyrandom.a``: another numpy
    version or archive path keys another library (and ffi module), so an
    upgraded numpy never runs samplers that differ from its
    ``Generator``'s."""
    from repro.kernels import cffi_impl

    keys = [(cffi_impl._so_key(), cffi_impl._ffi_module_path())]
    fresh_registry.setattr(np, "__version__", "0.0.0-repro-test")
    keys.append((cffi_impl._so_key(), cffi_impl._ffi_module_path()))
    fresh_registry.setattr(cffi_impl, "_npyrandom", lambda: "/elsewhere/libnpyrandom.a")
    keys.append((cffi_impl._so_key(), cffi_impl._ffi_module_path()))
    assert len({key for pair in keys for key in pair}) == 6, keys


def test_missing_sampler_archive_fails_the_build_naming_it(fresh_registry):
    """Without numpy's sampler archive the build fails like a compiler
    error, naming the file; auto-detection then falls back to numpy."""
    from repro.kernels import cffi_impl

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    missing = "/nonexistent/repro-test/libnpyrandom.a"
    fresh_registry.setattr(cffi_impl, "_npyrandom", lambda: missing)
    with pytest.raises(RuntimeError, match="cannot build") as exc:
        cffi_impl._ensure_built()
    assert missing in str(exc.value)
    with pytest.warns(RuntimeWarning, match="libnpyrandom"):
        assert get_kernels("auto").name == "numpy"


def test_ffi_module_key_covers_cdef_and_cffi_version(fresh_registry):
    """Edited declarations or another cffi never reuse a generated ffi
    module; an unchanged key reuses it without regenerating."""
    import _cffi_backend
    import cffi.recompiler

    from repro.kernels import cffi_impl

    made = []
    make = cffi.recompiler.make_py_source

    def recording_make(ffi, name, path, *args, **kwargs):
        made.append(name)
        return make(ffi, name, path, *args, **kwargs)

    fresh_registry.setattr(cffi.recompiler, "make_py_source", recording_make)
    paths = [cffi_impl._ensure_ffi_module()]
    assert cffi_impl._ensure_ffi_module() == paths[0]  # cached
    fresh_registry.setattr(
        cffi_impl, "CDEF", cffi_impl.CDEF + "void repro_not_built(void);\n"
    )
    paths.append(cffi_impl._ensure_ffi_module())
    assert paths[1] != paths[0] and len(made) == 2
    cache = os.environ["REPRO_KERNELS_CACHE"]
    assert _ffi_modules(cache) == sorted(os.path.basename(p) for p in paths)
    # cffi itself refuses to run beside another backend version, so only
    # the key is checked for this part
    fresh_registry.setattr(_cffi_backend, "__version__", "0.0.0-repro-test")
    assert cffi_impl._ffi_module_path() not in paths


_NO_PARSER_LOAD = """
import sys
import repro.kernels as k
import repro.kernels._selfcheck as sc
check, ran = sc.self_check, []
sc.self_check = lambda ks: (ran.append(ks.name), check(ks))
assert k.get_kernels("cffi").name == "cffi"
assert ran == ["cffi"], ran
assert "pycparser" not in sys.modules
"""


def test_warm_cache_loads_without_pycparser(fresh_registry):
    """A fresh interpreter on a warm cache resolves ``cffi`` from the
    generated ffi module and the cached library: it parses no ``CDEF``,
    imports no pycparser, and still runs the load-time self-check."""
    import subprocess
    import sys

    import repro

    _require_cc()
    get_kernels("cffi")  # warms the private cache
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_PARSER_LOAD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
    # force the off == deg clamp edge (u = 1 past it) and the exact-0 edge
    u[:4] = [np.nextafter(1.0, 0.0), 0.0, 0.5, 1.0]
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


@settings(max_examples=500, deadline=None)
@given(d=st.one_of(
    st.integers(1, 2**24), st.integers(1, 2**53), st.sampled_from([2**53, 2**53 - 1])
))
def test_largest_uniform_stays_below_every_degree(d):
    """Every C walk step clamps ``u`` to the largest double below 1 and
    the serial loops' ``int(u * deg)`` does not; they take the same slot
    because that double times a degree up to 2**53 truncates below the
    degree (rounding is monotone, and ``d * 2**-53`` is at least half an
    ulp of ``d``), and for ``u >= 1`` the clamp gives slot ``d - 1``, as
    the numpy step's ``minimum(off, deg - 1)`` does."""
    assert int(np.nextafter(1.0, 0.0) * d) == d - 1


#: ``(pos, u, out)`` that C would misread or write past: pos and u not
#: 1-D or of two lengths, out of another dtype, strided or length.
BAD_CSR_STEP = {
    "short-out": (np.zeros(5, np.int64), np.full(5, 0.9), np.empty(2, np.int64)),
    "long-out": (np.zeros(5, np.int64), np.full(5, 0.9), np.empty(9, np.int64)),
    "int32-out": (np.zeros(5, np.int64), np.full(5, 0.9), np.empty(5, np.int32)),
    "strided-out": (
        np.zeros(5, np.int64), np.full(5, 0.9), np.empty(10, np.int64)[::2]
    ),
    "2d-out": (np.zeros(4, np.int64), np.full(4, 0.9), np.empty((2, 2), np.int64)),
    "short-u": (np.zeros(5, np.int64), np.full(2, 0.9), None),
    "2d-pos": (np.zeros((2, 3), np.int64), np.full(6, 0.9), None),
    "2d-u": (np.zeros(6, np.int64), np.full((2, 3), 0.9), None),
    "0d-pos": (np.int64(0), np.full(1, 0.9), None),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("case", BAD_CSR_STEP)
def test_csr_step_rejects_what_c_would_overrun(provider, case):
    """The wrapper checks shapes before C runs: unchecked, a short
    ``out`` corrupts the heap and an int32 one reads back garbage."""
    indptr, indices = csr_arrays(cycle_graph(8))
    pos, u, out = BAD_CSR_STEP[case]
    with pytest.raises(ValueError, match="csr_step needs"):
        get_kernels(provider).csr_step(indptr, indices, pos, u, out)


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


def _count_draws(monkeypatch):
    """Count the doubles the serial jump chain's stream serves."""
    counts = {"uniform": 0}

    class Counted(UniformStream):
        __slots__ = ()

        def uniform(self):
            counts["uniform"] += 1
            return super().uniform()

    monkeypatch.setattr(uniform_mod, "UniformStream", Counted)
    return counts


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("m", [7, None], ids=["m=7", "m=n"])
@pytest.mark.parametrize("origin", [0, "uniform"])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("process", sorted(TICK_DRIVERS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_tick_loops_match_serial_at_tiny_blocks(
    provider, m, origin, block, process, g, monkeypatch
):
    """With 1-5 doubles per serial fetch, ticks (2 doubles each) straddle
    nearly every refill of the serial driver's stream, and the holding
    layer's jump to its block grid takes every remainder: the route must
    still replay the serial draws, 2 per tick, and each generator ends
    where the serial driver leaves it.  With ``m = n`` from a vertex
    origin Uniform's first level wastes no tick, so draws none."""
    serial, module, extras = TICK_DRIVERS[process]
    monkeypatch.setattr(module, "_BLOCK", block)
    seeds = spawn_seed_sequences(7, 4)
    gens = [as_generator(s) for s in seeds]
    got = run_reps(process, g, gens, origin, num_particles=m, kernels=provider)
    for seed, b, gen in zip(seeds, got, gens):
        counts = _count_draws(monkeypatch)
        twin = as_generator(seed)
        s = serial(g, origin, seed=twin, num_particles=m)
        assert (s.dispersion_time, s.ticks) == (b.dispersion_time, b.ticks)
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name))
        assert counts["uniform"] == 2 * b.total_steps
        assert _same_state(gen.bit_generator.state, twin.bit_generator.state)


#: Every numpy BitGenerator family: the per-repetition Parallel- and
#: Sequential-IDLA loops call each one's ``next_double`` directly.
BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def _generators(family, n=4):
    return [np.random.Generator(family(s)) for s in spawn_seed_sequences(7, n)]


def _returns(process, monkeypatch) -> list:
    """Spy on the compiled calls of ``process``'s shard loop:
    ``(status, which, state)`` after every return, read from the shard."""
    seen = []
    enter = kernels_mod.Shard.enter

    def spied(shard, loop):
        status = enter(shard, loop)
        if shard.name == f"finish_{process}":
            seen.append((status, shard.which, shard.state.copy()))
        return status

    monkeypatch.setattr(kernels_mod.Shard, "enter", spied)
    return seen


def _assert_returns(returns, record):
    """An unrecorded shard is one compiled call, which ends it and counts
    no event (the last state column); a recorded one returns only "sink
    full" before its last return."""
    statuses = [status for status, _, _ in returns]
    assert statuses[-1:] == [1] and set(statuses[:-1]) <= {2}, statuses
    if not record:
        assert len(returns) == 1
        assert not returns[0][2][:, -1].any()


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
    and the serial oracle, patched to switch to its scalar loop at 3
    walkers, changes loop mid-stream: the samples, settle orders and
    trajectories must still be ``parallel_idla``'s, for every
    BitGenerator family.  Unrecorded, the whole shard is one compiled
    call."""
    monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", 3)
    kwargs = {"lazy": lazy, "record": record}
    ref = [parallel_idla(g, 0, seed=gen, **kwargs) for gen in _generators(family)]
    returns = _returns("parallel", monkeypatch)
    got = run_reps(
        "parallel", g, _generators(family), 0, kernels=provider, **kwargs
    )
    _assert_returns(returns, record)
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
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_sequential_loop_matches_serial_on_every_bit_generator(
    provider, family, record, lazy, g, monkeypatch
):
    """The loop draws one double per step from each bit generator's
    ``next_double`` in C: the samples and trajectories must still be
    ``sequential_idla``'s, for every BitGenerator family.  Unrecorded,
    the whole shard is one compiled call."""
    kwargs = {"lazy": lazy, "record": record}
    ref = [sequential_idla(g, 0, seed=gen, **kwargs) for gen in _generators(family)]
    returns = _returns("sequential", monkeypatch)
    got = run_reps(
        "sequential", g, _generators(family), 0, kernels=provider, **kwargs
    )
    _assert_returns(returns, record)
    for s, b in zip(ref, got):
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert b.trajectories == s.trajectories


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_sequential_loop_leaves_each_generator_after_its_last_double(
    provider, family, lazy
):
    """One double per step, holds included: afterwards each generator's
    next double is double ``total_steps + 1`` of a fresh twin."""
    gens = _generators(family)
    got = run_reps(
        "sequential", grid_graph(4, 5), gens, 0, kernels=provider, lazy=lazy
    )
    for res, gen, twin in zip(got, gens, _generators(family)):
        twin.random(res.total_steps)
        assert gen.random() == twin.random()


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("process", sorted(TICK_DRIVERS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_tick_loops_match_serial_on_every_bit_generator(
    provider, family, record, process, g, monkeypatch
):
    """The jump chain draws each double from the bit generator's
    ``next_double`` in C, and the holding layer calls numpy's samplers
    on its ``bitgen_t``: the samples, settle clocks and trajectories
    must still be the serial driver's, and each generator must end
    where the serial driver leaves it, for every BitGenerator family.
    Unrecorded, the whole shard is one compiled call."""
    serial, _, extras = TICK_DRIVERS[process]
    kwargs = {"num_particles": 7, "record": record}
    ref_gens, route_gens = _generators(family), _generators(family)
    ref = [serial(g, 0, seed=gen, **kwargs) for gen in ref_gens]
    returns = _returns(process, monkeypatch)
    got = run_reps(process, g, route_gens, 0, kernels=provider, **kwargs)
    _assert_returns(returns, record)
    for a, c in zip(ref_gens, route_gens):
        assert _same_state(a.bit_generator.state, c.bit_generator.state)
    for s, b in zip(ref, got):
        assert (s.dispersion_time, s.ticks) == (b.dispersion_time, b.ticks)
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name))
        assert b.trajectories == s.trajectories


def _same_state(a, b) -> bool:
    """Bit-generator ``state`` dicts equal, arrays (Philox's) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _buffered(n_uint32):
    """PCG64 generators that drew ``n_uint32`` bounded ``uint32`` values
    first: one leaves half an output buffered (``has_uint32 = 1``), two
    leave none but keep the spent half in ``uinteger``."""
    def family(seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        gen.integers(0, 10, size=n_uint32, dtype=np.uint32)
        return gen.bit_generator
    family.__name__ = f"PCG64-after-{n_uint32}-uint32"
    return family


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize(
    "family", [*BIT_GENERATORS, _buffered(1), _buffered(2)],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("block", [None, 1, 5, 64])
def test_c_sequential_durations_match_serial_on_every_bit_generator(
    provider, family, block, monkeypatch
):
    """The Gamma durations read each generator after the walk, so the
    route must land it where the serial driver's block fetches leave
    it, at the default fetch block and at tiny ones (a PCG64 by jumping
    its LCG, any other by drawing): the samples and each generator's
    whole ``bit_generator.state`` must be the serial driver's, for every
    BitGenerator family and for a PCG64 holding a buffered ``uint32``
    (which a jump would clear) or a spent one."""
    if block is not None:
        monkeypatch.setattr(sequential_mod, "_BLOCK", block)
    g = grid_graph(3, 4)
    ref_gens, route_gens = _generators(family), _generators(family)
    if family.__name__.endswith("-1-uint32"):
        assert route_gens[0].bit_generator.state["has_uint32"] == 1
    ref = [continuous_sequential_idla(g, 0, seed=gen) for gen in ref_gens]
    got = run_reps("c-sequential", g, route_gens, 0, kernels=provider)
    for s, b, a, c in zip(ref, got, ref_gens, route_gens):
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.durations, b.durations)
        assert s.dispersion_time == b.dispersion_time
        assert _same_state(a.bit_generator.state, c.bit_generator.state)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("block", [None, 4])
@pytest.mark.parametrize("tail_threshold", [3, 8])
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_lockstep_sequential_tail_hands_its_row_prefix_to_the_loop(
    provider, family, block, tail_threshold, lazy, monkeypatch
):
    """An explicit ``tail_threshold`` pins lock-step; at the handoff the
    compiled loop reads the row's unconsumed doubles (none when the
    handoff comes before the first fill, at threshold 8, or at a block's
    end), then the generator.  Samples must be the serial ones and each generator must
    end where the serial driver leaves it."""
    if block is not None:
        monkeypatch.setattr(batched_mod, "_BLOCK", block)
    g = grid_graph(3, 4)
    ks = get_kernels(provider)
    prefixes = []
    inner = ks._impl.prefix_bitgen

    def counted(buf, rest=None):
        prefixes.append(buf.shape[0])
        return inner(buf, rest)

    monkeypatch.setattr(ks._impl, "prefix_bitgen", counted)
    ref_gens, gens = _generators(family, 6), _generators(family, 6)
    ref = [sequential_idla(g, 0, seed=gen, lazy=lazy) for gen in ref_gens]
    got = batched_sequential_idla(
        g, 0, seeds=gens, lazy=lazy, tail_threshold=tail_threshold,
        kernels=provider,
    )
    if block is None:
        assert bool(prefixes) == (tail_threshold < 6)
    else:  # a prefix shorter than the handoff's remaining steps
        assert all(0 < p < block for p in prefixes), prefixes
    for s, b, ref_gen, gen in zip(ref, got, ref_gens, gens):
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert gen.random() == ref_gen.random()


# ---------------------------------------------------------------------------
# the Sequential-IDLA lane loop: several repetitions in flight per call


def _assert_sequential_identical(ref, got):
    assert len(ref) == len(got)
    for s, b in zip(ref, got):
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert b.trajectories == s.trajectories


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("reps", [1, 3, 4, 5, 63, 64, 65])
def test_sequential_lanes_match_serial_at_every_fill(provider, reps, monkeypatch):
    """Fewer repetitions than lanes, a whole number of lanes and one
    past it: one compiled call runs the shard, every row equals the
    serial oracle, and each generator ends right after its last
    double."""
    g = grid_graph(3, 4)
    returns = _returns("sequential", monkeypatch)
    seeds = spawn_seed_sequences(11, reps)
    ref = [sequential_idla(g, 0, seed=s) for s in seeds]
    gens = [as_generator(s) for s in seeds]
    got = run_reps("sequential", g, gens, 0, kernels=provider)
    _assert_returns(returns, record=False)
    _assert_sequential_identical(ref, got)
    for res, gen, s in zip(got, gens, seeds):
        twin = as_generator(s)
        twin.random(res.total_steps)
        assert gen.random() == twin.random()


#: Requests whose repetitions settle every particle at time 0: one
#: particle, distinct explicit origins, or (cycle-4, three uniform
#: origins) a mix of such repetitions and walking ones.
DONE_AT_ZERO = {
    "one-particle": (grid_graph(3, 4), 0, {"num_particles": 1}),
    "distinct-origins": (
        grid_graph(3, 4), [0, 5, 11], {"num_particles": 3}
    ),
    "mixed": (cycle_graph(4), "uniform", {"num_particles": 3}),
    "mixed-lazy": (cycle_graph(4), "uniform", {"num_particles": 3, "lazy": True}),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("case", sorted(DONE_AT_ZERO))
def test_sequential_lanes_skip_repetitions_done_at_time_zero(provider, case):
    """Repetitions done at time 0 take no lane and draw nothing; those
    that walk beside them still equal the serial oracle."""
    g, origin, kwargs = DONE_AT_ZERO[case]
    seeds = spawn_seed_sequences(3, 24)
    ref = [sequential_idla(g, origin, seed=s, **kwargs) for s in seeds]
    if case.startswith("mixed"):
        walks = {res.total_steps > 0 for res in ref}
        assert walks == {False, True}, "the seeds no longer mix the two"
    gens = [as_generator(s) for s in seeds]
    got = run_reps("sequential", g, gens, origin, kernels=provider, **kwargs)
    _assert_sequential_identical(ref, got)
    for res, gen, s in zip(got, gens, seeds):
        if res.total_steps == 0:  # only the origins were drawn
            twin = as_generator(s)
            resolve_origins(g, origin, kwargs["num_particles"], twin)
            assert gen.random() == twin.random()


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_sequential_lane_budget_excess_raises_the_serial_message(provider, lazy):
    """A budget that repetition 0 (lane 0) stays within but a later one
    exceeds: the route raises the serial driver's exact message."""
    g = grid_graph(3, 4)
    seeds = spawn_seed_sequences(5, 6)
    totals = [sequential_idla(g, 0, seed=s, lazy=lazy).total_steps for s in seeds]
    budget = totals[0]
    assert max(totals[1:]) > budget, "no later repetition exceeds the budget"
    with pytest.raises(RuntimeError) as serial:
        for s in seeds:
            sequential_idla(g, 0, seed=s, lazy=lazy, max_total_steps=budget)
    with pytest.raises(RuntimeError) as routed:
        run_reps(
            "sequential", g, seeds, 0, kernels=provider, lazy=lazy,
            max_total_steps=budget,
        )
    assert str(routed.value) == str(serial.value)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("family", BIT_GENERATORS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_sequential_lanes_reenter_on_every_full_sink(
    provider, family, lazy, monkeypatch
):
    """One-event sinks fill at every step of every lane: each "sink full"
    return hands back one row, and the re-entered loop resumes every lane
    exactly (nine repetitions: the lanes are refilled, then run partly
    empty)."""
    monkeypatch.setattr(kernels_mod, "_SINK_EVENTS", 1)
    g = star_graph(7)
    ref = [
        sequential_idla(g, 0, seed=gen, lazy=lazy, record=True)
        for gen in _generators(family, 9)
    ]
    got = run_reps(
        "sequential", g, _generators(family, 9), 0, kernels=provider,
        lazy=lazy, record=True,
    )
    _assert_sequential_identical(ref, got)


@pytest.mark.parametrize("provider", COMPILED)
def test_sequential_loop_rejects_one_generator_for_two_rows(provider):
    """Rows sharing a bit generator would take its lock twice and
    interleave its draws, so the wrapper refuses them before any draw,
    whether one Generator is passed twice or two wrap one BitGenerator."""
    ks = get_kernels(provider)
    g = cycle_graph(5)
    indptr, indices = csr_arrays(g)
    shared = np.random.PCG64(0)
    for rngs in (
        [as_generator(0)] * 2,
        [np.random.Generator(shared), np.random.Generator(shared)],
    ):
        with pytest.raises(ValueError, match="finish_sequential: a generator"):
            ks.finish_sequential(
                indptr, indices, np.zeros(10, dtype=bool),
                np.zeros((2, 5), dtype=np.int64), rngs, walker=0, lazy=False,
                budget=float("inf"), limit_msg="limit",
                steps=np.zeros((2, 5), dtype=np.int64),
                settled=np.full((2, 5), -1, dtype=np.int64),
            )
        assert rngs[0].random() == as_generator(0).random()  # nothing drawn
    gen = as_generator(0)
    with pytest.raises(ValueError, match="finish_sequential: a generator"):
        run_reps("sequential", g, [gen, gen], 0, kernels=provider)


# ---------------------------------------------------------------------------
# the Parallel-, Uniform- and CTU-IDLA shard loops: one call per shard

#: Serial driver and result extras of each loop that runs a shard's
#: repetitions one after another.
SHARD_LOOPS = {
    "parallel": (parallel_idla, ()),
    "uniform": (uniform_idla, ("ticks",)),
    "ctu": (ctu_idla, ("ticks", "settle_clock")),
}

def _assert_rows_identical(ref, got, extras):
    assert len(ref) == len(got)
    for s, b in zip(ref, got):
        assert (s.dispersion_time, s.total_steps) == (b.dispersion_time, b.total_steps)
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        assert b.trajectories == s.trajectories
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name)), name


#: Three particles from uniform origins on the 3x4 grid: children 0, 2,
#: 3, 5, ... of parent seed 3 draw three distinct starts, so nothing
#: walks, while children 1, 4, 8, ... walk (``test_..._beside_idle_rows``
#: asserts the mix).
IDLE_MIX_SEED = 3


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("process", sorted(SHARD_LOOPS))
@pytest.mark.parametrize("R", [0, 1, 2, 5, 17])
def test_shard_loops_match_serial_beside_idle_rows(provider, process, R, monkeypatch):
    """A shard of 0-17 repetitions, repetitions with nothing to walk
    (row 0 among them) beside walking ones: every row equals its serial
    oracle, one compiled call runs the shard (none when nothing walks),
    and an idle row's generator ends after its origin draws (the
    holding layer draws nothing for it)."""
    g, kwargs = grid_graph(3, 4), {"num_particles": 3}
    serial, extras = SHARD_LOOPS[process]
    seeds = spawn_seed_sequences(IDLE_MIX_SEED, R)
    ref = [serial(g, "uniform", seed=s, **kwargs) for s in seeds]
    walking = [res.total_steps > 0 for res in ref]
    assert walking[:5] == [False, True, False, False, True][:R], "the mix moved"
    returns = _returns(process, monkeypatch)
    gens = [as_generator(s) for s in seeds]
    got = run_reps(process, g, gens, "uniform", kernels=provider, **kwargs)
    _assert_rows_identical(ref, got, extras)
    assert len(returns) == int(any(walking))
    for res, gen, s in zip(got, gens, seeds):
        if res.total_steps == 0:  # only the origins were drawn
            twin = as_generator(s)
            resolve_origins(g, "uniform", 3, twin)
            assert gen.random() == twin.random()


#: The holding layer's draw sources: a numpy PCG64 (stepped inline,
#: reaching the samplers through the shim), a C-seeded PCG64 state, a
#: PCG64 holding half an output buffered, and two other families (their
#: own ``bitgen_t``).
_HOLD_SOURCES = ["pcg64", "seeded", "pcg64-buffered", "mt19937", "sfc64"]


@st.composite
def _holding_rows(draw):
    """1-4 rows of ``m`` particles as a finished chain leaves them: the
    tick at which each level ended (levels ``K0 .. 1``, ``K0 <= m-1``,
    each of 1 to ~10^6 ticks), the settle order, the walked particles'
    step counts (c-sequential), a grid skip, and a draw source."""
    R = draw(st.integers(1, 4))
    m = draw(st.integers(2, 8))
    ticks = st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 10**6))
    jumps = np.zeros((R, m), dtype=np.int64)
    order = np.zeros((R, m), dtype=np.int64)
    steps = np.zeros((R, m), dtype=np.int64)
    for r in range(R):
        k0 = draw(st.integers(0, m - 1))
        # levels k0 .. 1 end at increasing ticks
        ends = np.cumsum(draw(st.lists(ticks, min_size=k0, max_size=k0)))
        jumps[r, k0:0:-1] = ends
        order[r] = draw(st.permutations(range(m)))
        steps[r] = draw(st.lists(
            st.one_of(st.just(0), ticks), min_size=m, max_size=m
        ))
    skip = np.array(
        draw(st.lists(st.integers(0, 40000), min_size=R, max_size=R)), dtype=np.int64
    )
    sources = draw(st.lists(st.sampled_from(_HOLD_SOURCES), min_size=R, max_size=R))
    rate = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
    return jumps, order, steps, skip, sources, rate


def _hold_source(source, seed, child):
    """A route generator (``None``: a C-seeded row) and its numpy twin."""
    if source == "seeded":
        return None, np.random.Generator(np.random.PCG64(child))
    family = {"mt19937": np.random.MT19937, "sfc64": np.random.SFC64}.get(
        source, np.random.PCG64
    )
    pair = [np.random.Generator(family(seed)) for _ in range(2)]
    if source == "pcg64-buffered":
        for gen in pair:
            gen.integers(0, 10, dtype=np.uint32)
    return pair


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("kind", ["c-sequential", "ctu", "uniform"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_holding_layer_matches_numpy_samplers(provider, kind, data):
    """``repro_hold`` on rows a chain left gives, bit for bit, what the
    serial drivers draw with numpy after their chain: each row skips its
    grid remainder, then c-sequential's ``Gamma(steps, 1/rate)`` per
    walked particle, CTU's running sum of ``Gamma(J_k, 1/(k·rate))`` per
    level (each settle clock) or Uniform's ``NegBin(J_k, k/(m-1))``
    wasted ticks, from every draw source; afterwards each source stands
    where its twin does.  c-sequential runs through its wrapper,
    :meth:`CompiledKernels.draw_durations`."""
    from repro.core.continuous import level_clocks
    from repro.core.uniform import wasted_ticks

    ks = get_kernels(provider)
    jumps, order, steps, skip, sources, rate = data.draw(_holding_rows())
    R, m = jumps.shape
    children = SpawnRange(np.random.SeedSequence(41), 0, R)
    pairs = [_hold_source(src, r, children[r]) for r, src in enumerate(sources)]
    rngs = [rng for rng, _ in pairs]
    seeds = ks.pcg64_seeds(children)
    sclock = np.zeros((R, m))
    if kind == "c-sequential":
        ks.draw_durations(rngs, steps, sclock, rate=rate, skip=skip, seeds=seeds)
    else:
        shard = kernels_mod.Shard(
            ks._impl, "hold", rngs, width=4, seeds=seeds, rate=rate,
            rows={"jumps": jumps, "order": order, "sclock": sclock},
        )
        shard.state[:, 2] = 7
        shard.run(
            lambda c: 1, lambda c: ks._impl.hold(c, ks._impl.hold_kind[kind], skip)
        )
    for r, (_, twin) in enumerate(pairs):
        twin.random(int(skip[r]))
        levels = jumps[r, m - 1 : 0 : -1]
        ends = levels[levels > 0].tolist()
        want = np.zeros(m)
        if kind == "c-sequential":
            walked = steps[r] > 0
            want[walked] = twin.gamma(steps[r][walked], 1.0 / rate)
        elif kind == "ctu":
            want[order[r, m - len(ends):]] = level_clocks(twin, ends, rate)
        else:
            assert shard.state[r, 2] == 7 + wasted_ticks(twin, ends, m)
        assert sclock[r].view(np.int64).tolist() == want.view(np.int64).tolist()
        rng = rngs[r]
        if rng is None:
            after = ks.draw_doubles([None], 2, seeds=seeds[r : r + 1])[0]
        else:
            assert _same_state(rng.bit_generator.state, twin.bit_generator.state)
            after = rng.random(2)
        assert after.tolist() == twin.random(2).tolist()


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("process", sorted(SHARD_LOOPS))
def test_shard_loops_reenter_on_a_later_rows_full_sink(provider, process, monkeypatch):
    """Row 0 has nothing to walk, so every "sink full" return of a
    one-event sink names a later row; each re-entry resumes that row
    exactly (a Parallel-IDLA sink holds one round)."""
    monkeypatch.setattr(kernels_mod, "_SINK_EVENTS", 1)
    g, kwargs = grid_graph(3, 4), {"num_particles": 5, "record": True}
    serial, extras = SHARD_LOOPS[process]
    # child 0 of parent 13 draws five distinct starts; later ones walk
    # up to four steps
    seeds = spawn_seed_sequences(13, 9)
    ref = [serial(g, "uniform", seed=s, **kwargs) for s in seeds]
    returns = _returns(process, monkeypatch)
    got = run_reps(process, g, seeds, "uniform", kernels=provider, **kwargs)
    _assert_rows_identical(ref, got, extras)
    assert ref[0].total_steps == 0, "row 0 walks"
    full = [which for status, which, _ in returns if status == 2]
    assert full and min(full) >= 1, full


@pytest.mark.parametrize("provider", COMPILED)
def test_uniform_cap_trips_in_a_later_row_with_the_serial_message(provider):
    """A tick cap that rows 0 and 1 stay within and a later row passes:
    the shard raises the serial driver's exact message."""
    g, kwargs = grid_graph(3, 4), {"num_particles": 3}
    seeds = spawn_seed_sequences(IDLE_MIX_SEED, 9)
    ticks = [int(uniform_idla(g, "uniform", seed=s, **kwargs).ticks) for s in seeds]
    cap = max(ticks[:2])
    assert max(ticks[2:]) > cap, "no later row passes the cap"
    with pytest.raises(RuntimeError) as serial:
        for s in seeds:
            uniform_idla(g, "uniform", seed=s, max_ticks=cap, **kwargs)
    with pytest.raises(RuntimeError) as routed:
        run_reps(
            "uniform", g, seeds, "uniform", kernels=provider, max_ticks=cap,
            **kwargs,
        )
    assert str(routed.value) == str(serial.value)


#: One particle, one vertex, and (Parallel-IDLA only) surplus particles
#: on one vertex.
TINY = {
    "m=1": (grid_graph(3, 4), 1),
    "n=1": (Graph.from_edges(1, [], name="K1"), 1),
    "n=1,m=3": (Graph.from_edges(1, [], name="K1"), 3),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize(
    "process,case",
    [
        (p, c)
        for p in sorted(SHARD_LOOPS)
        for c in TINY
        if p == "parallel" or c != "n=1,m=3"
    ],
)
def test_shard_loops_with_one_particle_or_one_vertex(
    provider, process, case, monkeypatch
):
    """One particle, or one vertex (Parallel-IDLA's surplus particles
    have nowhere to go): every particle settles at time 0 or never
    moves, nothing walks, and no compiled call runs."""
    g, m = TINY[case]
    serial, extras = SHARD_LOOPS[process]
    seeds = spawn_seed_sequences(2, 3)
    ref = [serial(g, 0, seed=s, num_particles=m) for s in seeds]
    returns = _returns(process, monkeypatch)
    got = run_reps(process, g, seeds, 0, kernels=provider, num_particles=m)
    _assert_rows_identical(ref, got, extras)
    assert returns == []


def _tiled(row, dtype=np.int64, R=2):
    """``R`` copies of ``row`` as a C-contiguous ``(R, m)`` array."""
    return np.tile(np.array(row, dtype=dtype), (R, 1))


def _generator_rows(R):
    return [as_generator(r) for r in range(R)]


def _nothing_drawn(rngs):
    fresh = _generator_rows(len(rngs))
    return all(rng.random() == twin.random() for rng, twin in zip(rngs, fresh))


@pytest.mark.parametrize("provider", COMPILED)
def test_parallel_loop_rejects_rows_it_cannot_update_in_place(provider):
    """The loop writes through raw pointers: a row of another dtype or a
    strided view would be reinterpreted or silently copied, and a row too
    short for the particles in ``act`` or the vertices of the graph would
    be read or written past its end, so the wrapper refuses them, for
    the whole ``(R, m)`` shard, before any draw."""
    ks = get_kernels(provider)
    g = cycle_graph(5)
    indptr, indices = csr_arrays(g)

    def run(rngs, **override):
        rows = {
            "occ": np.tile(np.array([1, 0, 0, 0, 0], dtype=np.uint8), 2),
            "act": _tiled([1, 2, 3, 4, 0]),
            "pos": np.zeros((2, 5), dtype=np.int64),
            "prio": _tiled(range(5)),
            "steps": np.zeros((2, 5), dtype=np.int64),
            "settled": np.full((2, 5), -1, dtype=np.int64),
            "rounds": np.full((2, 5), -1, dtype=np.int64),
            "k": 4,
        }
        rows.update(override)
        return ks.finish_parallel(
            indptr, indices, rows["occ"], rows["act"], rows["pos"],
            rows["prio"], rows["steps"], rows["settled"], rows["rounds"], rngs,
            k=rows["k"], free=4, lazy=False,
            budget=float("inf"), max_rounds=None,
        )

    assert (run(_generator_rows(2)) > 0).all()
    for bad in (
        {"act": _tiled([1, 2, 3, 4, 0], np.int32)},
        {"pos": np.zeros((2, 10), dtype=np.int64)[:, ::2]},
        {"pos": np.zeros((2, 3), dtype=np.int64)},
        {"occ": np.tile(np.array([1, 0, 0, 0], dtype=np.uint8), 2)},
        {"prio": _tiled(range(4))},
        {"steps": np.zeros((2, 4), dtype=np.int64)},
        {"settled": np.full((2, 4), -1, dtype=np.int64)},
        {"rounds": np.full((2, 4), -1, dtype=np.int64)},
        {"act": np.array([[1, 2, 3, 4, 0], [1, 2, 3, 5, 0]], dtype=np.int64)},
        {"act": np.array([[-1, 2, 3, 4, 0], [1, 2, 3, 4, 0]], dtype=np.int64)},
        {"pos": np.array([[0, 0, 0, 0, 0], [0, 0, 0, 5, 0]], dtype=np.int64)},
        {"pos": np.array([[0, -1, 0, 0, 0], [0, 0, 0, 0, 0]], dtype=np.int64)},
        {"k": 6},
        {"k": [4, -1]},
    ):
        rngs = _generator_rows(2)
        with pytest.raises(ValueError, match="finish_parallel"):
            run(rngs, **bad)
        assert _nothing_drawn(rngs), bad
    rng = as_generator(0)
    with pytest.raises(ValueError, match="finish_parallel: a generator"):
        run([rng, rng])
    assert _nothing_drawn([rng])


def _sequential_call(ks, indptr, indices, rngs, rows):
    return ks.finish_sequential(
        indptr, indices, rows["occ_row"], rows["starts"][None], rngs,
        prefixes=[rows.get("prefix")], walker=rows["walker"], pos=rows["pos"],
        lazy=False, budget=float("inf"), limit_msg="limit",
        steps=rows["steps_row"][None], settled=rows["settled_row"][None],
    )


def _ctu_call(ks, indptr, indices, rngs, rows):
    return ks.finish_ctu(
        indptr, indices, rows["occ"], rows["pool"], rows["pos"],
        rows["steps"], rows["settled"], rows["clock"], rows["order"], rngs,
        k=rows["k"], norder=rows["norder"], rate=1.0, block=1,
    )


def _uniform_call(ks, indptr, indices, rngs, rows):
    return ks.finish_uniform(
        indptr, indices, rows["occ"], rows["pool"], rows["pos"],
        rows["steps"], rows["settled"], rows["order"], rngs,
        k=rows["k"], norder=rows["norder"], budget=float("inf"), limit_msg="limit",
        block=1,
    )


def _durations_call(ks, indptr, indices, rngs, rows):
    return ks.draw_durations(
        rngs, rows["steps"], rows["out"], rate=1.0, skip=rows["skip"]
    )


def _tick_rows():
    """Two repetitions on C5: particle 0 settled at vertex 0, particles
    1..4 to walk from 0."""
    return {
        "occ": np.tile(np.array([1, 0, 0, 0, 0], dtype=np.uint8), 2),
        "pool": _tiled([1, 2, 3, 4, 0]),
        "pos": np.zeros((2, 5), dtype=np.int64),
        "steps": np.zeros((2, 5), dtype=np.int64),
        "settled": _tiled([0, -1, -1, -1, -1]),
        "order": np.zeros((2, 5), dtype=np.int64),
        "k": 4,
        "norder": 1,
    }


#: The loops beside ``finish_parallel``, each with its row set on C5
#: (particle 0 settled at vertex 0, particles 1..4 to walk from 0; the
#: tick loops run two such repetitions; c-sequential's holding draws
#: take two rows of walked particles), its repetition count and its
#: violations: the wrong dtype, a strided view, short rows, out-of-range
#: indices or skips, and for the tick loops counts with k + norder != m
#: or k = m (the chain would write past its level row, or the holding
#: layer read order entries the chain never wrote).
BLOCK_LOOPS = {
    "draw_durations": (
        _durations_call,
        lambda: {
            "steps": np.ones((2, 5), dtype=np.int64),
            "out": np.zeros((2, 5)),
            "skip": np.array([0, 3], dtype=np.int64),
        },
        [
            {"skip": np.zeros(1, dtype=np.int64)},
            {"skip": np.array([0, -1], dtype=np.int64)},
            {"steps": np.ones((2, 5), dtype=np.int32)},
            {"out": np.zeros((2, 10))[:, ::2]},
            {"steps": np.ones((2, 4), dtype=np.int64)},
        ],
        2,
    ),
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
            {"walker": 6},
            {"walker": -1},
            {"pos": 5},
            {"pos": -1},
            {"prefix": np.zeros(4, dtype=np.float32)},
            {"prefix": np.zeros(8)[::2]},
        ],
        1,
    ),
    "finish_ctu": (
        _ctu_call,
        lambda: {**_tick_rows(), "clock": np.zeros((2, 5))},
        [
            {"clock": np.zeros((2, 5), dtype=np.float32)},
            {"steps": np.zeros((2, 5), dtype=np.int32)},
            {"pool": _tiled([1, 2, 3, 4, 0], np.int32)},
            {"clock": np.zeros((2, 4))},
            {"order": np.zeros((2, 4), dtype=np.int64)},
            {"pool": _tiled([1, 2, 3])},
            {"pos": np.zeros((2, 10), dtype=np.int64)[:, ::2]},
            {"pool": np.array([[1, 2, 3, 4, 0], [1, 2, 3, 5, 0]], dtype=np.int64)},
            {"pool": np.array([[1, 2, 3, 4, 0], [-1, 2, 3, 4, 0]], dtype=np.int64)},
            {"pos": np.array([[0, 0, 0, 0, 0], [0, 0, 0, 5, 0]], dtype=np.int64)},
            {"k": 5},
            {"norder": 2},
            {"norder": -1},
            {"k": 5, "norder": 0},
            {"k": 4, "norder": 0, "order": np.full((2, 5), -1, dtype=np.int64)},
            {"k": [4, 3]},
        ],
        2,
    ),
    "finish_uniform": (
        _uniform_call,
        _tick_rows,
        [
            {"settled": np.full((2, 5), -1, dtype=np.int32)},
            {"order": np.zeros((2, 10), dtype=np.int64)[:, ::2]},
            {"occ": np.tile(np.array([1, 0, 0, 0, 0], dtype=np.int64), 2)},
            {"settled": np.full((2, 4), -1, dtype=np.int64)},
            {"occ": np.tile(np.array([1, 0, 0, 0], dtype=np.uint8), 2)},
            {"pool": np.array([[1, 2, 3, 7, 0], [1, 2, 3, 4, 0]], dtype=np.int64)},
            {"pos": np.array([[0, 0, 0, 0, 0], [0, 9, 0, 0, 0]], dtype=np.int64)},
            {"k": -1},
            {"k": [4, 5]},
            {"norder": 2},
            {"k": 5, "norder": 0},
            {"k": 4, "norder": 0, "order": np.full((2, 5), -1, dtype=np.int64)},
            {"norder": [1, 0]},
        ],
        2,
    ),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("loop", sorted(BLOCK_LOOPS))
def test_block_loops_reject_rows_they_cannot_update_in_place(provider, loop):
    """As ``finish_parallel`` does, the other shard loops refuse rows of
    another dtype, strided views, rows too short for the particles or
    the graph, and indices outside their rows, before any draw: C would
    misread them or write past a row's end.  One generator for two rows
    is refused too."""
    ks = get_kernels(provider)
    indptr, indices = csr_arrays(cycle_graph(5))
    call, rows, bad_rows, R = BLOCK_LOOPS[loop]
    rngs = _generator_rows(R)
    call(ks, indptr, indices, rngs, rows())
    assert not any(
        rng.random() == fresh.random() for rng, fresh in zip(rngs, _generator_rows(R))
    )
    for bad in bad_rows:
        rngs = _generator_rows(R)
        with pytest.raises(ValueError, match=loop):
            call(ks, indptr, indices, rngs, {**rows(), **bad})
        assert _nothing_drawn(rngs), bad  # nothing drawn
    if R > 1:
        rng = as_generator(0)
        with pytest.raises(ValueError, match=f"{loop}: a generator"):
            call(ks, indptr, indices, [rng] * R, rows())
        assert _nothing_drawn([rng])


# ---------------------------------------------------------------------------
# recording: event sinks of the per-repetition loops

#: (process, serial driver, kwargs) per recorded loop shape: lazy holds
#: (the serial oracle switches loops at 3 walkers there), random ties,
#: ``m > n`` surplus walkers.
RECORDED_LOOPS = {
    "parallel-lazy": ("parallel", parallel_idla, {"lazy": True}),
    "parallel-random-ties": ("parallel", parallel_idla, {"tie_break": "random"}),
    "parallel-m>n": ("parallel", parallel_idla, {"num_particles": 14}),
    "sequential-lazy": ("sequential", sequential_idla, {"lazy": True}),
    "uniform": ("uniform", uniform_idla, {"num_particles": 7}),
    "ctu": ("ctu", ctu_idla, {"num_particles": 7}),
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("capacity", [1, 2, 5])
@pytest.mark.parametrize("view", ["lists", "arrays"])
@pytest.mark.parametrize("origin", [0, "uniform"])
@pytest.mark.parametrize("loop", sorted(RECORDED_LOOPS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_recorded_loops_match_serial_at_tiny_sinks(
    provider, capacity, view, origin, loop, g, same_rows, monkeypatch
):
    """Sinks of 1-5 events (a Parallel-IDLA sink holds at least one
    round) fill over and over: every re-entry after "sink full" must
    resume the loop exactly, and the grouped events must equal the
    serial trajectories, in the same shape and through either reader
    (``to_lists()`` or the buffers and row views).  Particles settled at
    their start (all of them, some reps, under ``origin="uniform"``)
    keep ``[start]``."""
    monkeypatch.setattr(kernels_mod, "_SINK_EVENTS", capacity)
    monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", 3)
    reopened = []
    seal = kernels_mod.EventSink.seal

    def counted(self, count, *, reopen=True):
        reopened.append(reopen)
        return seal(self, count, reopen=reopen)

    monkeypatch.setattr(kernels_mod.EventSink, "seal", counted)
    process, serial, kwargs = RECORDED_LOOPS[loop]
    ref = [
        serial(g, origin, seed=s, record=True, **kwargs)
        for s in spawn_seed_sequences(7, 4)
    ]
    got = run_reps(
        process, g, spawn_seed_sequences(7, 4), origin, record=True,
        kernels=provider, **kwargs,
    )
    if capacity == 1:
        assert any(reopened)  # some sink filled up and the loop re-entered
    for s, b in zip(ref, got):
        assert type(b.trajectories) is type(s.trajectories)
        assert b.trajectories == s.trajectories
        same_rows(b.trajectories, s.trajectories, view)
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)


@pytest.mark.parametrize("provider", COMPILED)
def test_event_sink_groups_events_by_particle(provider):
    """Events interleaved across particles and split over several sealed
    buffers group into per-particle rows, chronological, each opened by
    its start; a particle with no event keeps ``[start]``.  Closing frees
    the buffers; an unopened sink has no room until it opens."""
    ks = get_kernels(provider)
    sink = ks.event_sink(np.array([9, 8, 4, 3], dtype=np.int64))
    assert sink.capacity == kernels_mod._SINK_EVENTS
    assert ks.event_sink(None, kernels_mod._SINK_EVENTS + 1).capacity == (
        kernels_mod._SINK_EVENTS + 1
    )
    sink.buf[:6] = [2, 5, 0, 1, 2, 6]
    sink.seal(3)
    sink.buf[:4] = [0, 2, 2, 7]
    traj = sink.close(2)
    assert traj is sink.trajectories
    assert traj.to_lists() == [[9, 1, 2], [8], [4, 5, 6, 7], [3]]
    assert traj.offsets.tolist() == [0, 3, 4, 8, 9]
    assert sink.buf.shape == (0,) and sink._sealed == []
    unopened = ks.event_sink(np.array([1, 0], dtype=np.int64), opened=False)
    assert unopened.buf.shape == (0,)
    unopened.open()
    assert unopened.buf.shape == (2 * unopened.capacity,)
    assert unopened.close().to_lists() == [[1], [0]]
    with pytest.raises(ValueError, match="capacity"):
        kernels_mod.EventSink(ks._impl.scatter_events, 0, None)


@pytest.mark.parametrize("provider", COMPILED)
def test_parallel_loop_rejects_a_sink_smaller_than_a_round(provider):
    """A Parallel-IDLA round writes one event per active particle at
    once, so a sink that cannot hold one round could never drain."""
    ks = get_kernels(provider)
    g = cycle_graph(5)
    indptr, indices = csr_arrays(g)
    sink = kernels_mod.EventSink
    rngs = _generator_rows(2)
    with pytest.raises(ValueError, match="one round"):
        ks.finish_parallel(
            indptr, indices, np.tile(np.array([1, 0, 0, 0, 0], dtype=np.uint8), 2),
            _tiled([1, 2, 3, 4, 0]), np.zeros((2, 5), dtype=np.int64), None,
            np.zeros((2, 5), dtype=np.int64),
            np.full((2, 5), -1, dtype=np.int64),
            np.full((2, 5), -1, dtype=np.int64), rngs, k=[2, 4], free=4,
            lazy=False, budget=float("inf"), max_rounds=None,
            sinks=[sink(ks._impl.scatter_events, c, None) for c in (4, 3)],
        )
    assert _nothing_drawn(rngs)


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


# ---------------------------------------------------------------------------
# draw sources: the inline PCG64, C seeding, every other bit generator

#: numpy's PCG64 multiplier (numpy/random/src/pcg64).
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_U128 = (1 << 128) - 1


def _seeded(child):
    """``(state, inc)`` of ``PCG64(child)``, from
    ``child.generate_state(4, uint64)`` by PCG64's seeding recipe."""
    s0, s1, s2, s3 = (int(w) for w in child.generate_state(4, np.uint64))
    inc = (((s2 << 64 | s3) << 1) | 1) & _U128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _U128, inc


def _row_state(row):
    """``(state, inc)`` of a C seed row (two native 128-bit words)."""
    w = [int(x) for x in row]
    return w[1] << 64 | w[0], w[3] << 64 | w[2]


_ENTROPY = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**64, 2**200),
    st.lists(st.integers(0, 2**70), max_size=6),
)


@pytest.mark.parametrize("provider", COMPILED)
@settings(max_examples=150, deadline=None)
@given(
    entropy=_ENTROPY,
    key=st.lists(st.integers(0, 2**40), max_size=3),
    start=st.one_of(st.integers(0, 40), st.integers(2**32 - 3, 2**33)),
    count=st.integers(1, 5),
)
def test_c_seeding_matches_numpy(provider, entropy, key, start, count):
    """Each C-seeded row is the PCG64 state numpy seeds from that
    SeedSequence child: ``generate_state(4, uint64)`` through PCG64's
    seeding recipe, and ``PCG64(child).state`` itself, for ints above
    2**64, lists, nested spawn keys and child indices from 2**32 (past
    what ``spawn`` reaches, as ``SeedSequence(entropy, spawn_key=key +
    (i,))``)."""
    ks = get_kernels(provider)
    parent = np.random.SeedSequence(entropy, spawn_key=key)
    children = SpawnRange(parent, start, start + count)
    seeds = ks.pcg64_seeds(children)
    assert seeds.shape == (count, 4) and seeds.dtype == np.uint64
    for i, row in enumerate(seeds):
        child = np.random.SeedSequence(entropy, spawn_key=(*key, start + i))
        state = np.random.PCG64(child).state["state"]
        assert _row_state(row) == _seeded(child) == (state["state"], state["inc"])
    # and the rows draw what the children's generators draw
    drawn = ks.draw_doubles([None] * count, 3, seeds=seeds)
    for row, child in zip(drawn, children):
        assert row.tolist() == np.random.default_rng(child).random(3).tolist()


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("process", ["sequential", "parallel", "uniform", "ctu"])
def test_route_seeds_default_pool_children_in_c(provider, process, monkeypatch):
    """A range of default-pool children takes C-seeded rows, and the
    route builds no generator for them; a parent of another pool size
    takes numpy generators, which C seeding would not reproduce.  Both
    equal the serial driver."""
    import repro.core.route as route_mod

    serial = {
        "sequential": sequential_idla, "parallel": parallel_idla,
        "uniform": uniform_idla, "ctu": ctu_idla,
    }[process]
    g = grid_graph(3, 4)
    made = []
    real_gen = route_mod.as_generator

    def generator(s):
        made.append(s)
        return real_gen(s)

    monkeypatch.setattr(route_mod, "as_generator", generator)
    for pool_size, seeded in ((4, True), (8, False)):
        parent = np.random.SeedSequence(11, pool_size=pool_size)
        children = SpawnRange(parent, 3, 8)
        assert (get_kernels(provider).pcg64_seeds(children) is None) is not seeded
        made.clear()
        got = run_reps(process, g, children, 0, kernels=provider)
        assert len(made) == (0 if seeded else 5)
        for res, child in zip(got, children):
            ref = serial(g, 0, seed=child)
            assert ref.dispersion_time == res.dispersion_time
            assert np.array_equal(ref.steps, res.steps)
            assert np.array_equal(ref.settle_order, res.settle_order)


def _same_state(a, b) -> bool:
    """Two ``bit_generator.state`` dicts hold the same values."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


#: The serial drivers of the four shard loops.
SHARD_SERIALS = {
    "sequential": sequential_idla,
    "parallel": parallel_idla,
    "uniform": uniform_idla,
    "ctu": ctu_idla,
}


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
@pytest.mark.parametrize("process", sorted(SHARD_SERIALS))
@pytest.mark.parametrize(
    "g", [star_graph(9), grid_graph(3, 4)], ids=lambda g: g.name
)
def test_shard_loops_mix_every_draw_source(provider, record, process, g, monkeypatch):
    """One shard of nine rows: two C-seeded, a numpy PCG64 (stepped
    inline), PCG64DXSM, MT19937, Philox and SFC64 (the generic call) and
    two prefix bit generators (two doubles, then a PCG64 or an MT19937
    behind them).  Every row must equal the serial driver on a twin of
    its stream, and end where it should: Sequential and Parallel right
    after the doubles they consumed, CTU and Uniform where the serial
    driver leaves its generator (after the holding layer's draws).  A
    numpy generator's state, a C-seeded row's state and the generator
    behind a prefix are compared."""
    import repro.core.route as route_mod

    ks = get_kernels(provider)
    parent = np.random.SeedSequence(2024)
    children = SpawnRange(parent, 0, 9)
    families = [None, None, np.random.PCG64, np.random.PCG64DXSM,
                np.random.MT19937, np.random.Philox, np.random.SFC64,
                np.random.PCG64, np.random.MT19937]

    def twin(r):
        if families[r] is None:
            return np.random.default_rng(children[r])
        return np.random.Generator(families[r](children[r]))

    gens = [None if f is None else twin(r) for r, f in enumerate(families)]
    for r in (7, 8):  # the prefix rows: two doubles of their own stream first
        gens[r] = selfcheck_mod._ArrayGenerator(ks, gens[r].random(2), rest=gens[r])
    seeds = ks.pcg64_seeds(children)
    ref, ends = [], []
    for r in range(9):
        ends.append(twin(r))
        ref.append(SHARD_SERIALS[process](g, 0, seed=ends[-1], record=record))
    got = route_mod._RUNNERS[process](g, gens, seeds, 0, ks, record)
    for r, (s, b) in enumerate(zip(ref, got)):
        assert s.dispersion_time == b.dispersion_time, r
        assert s.total_steps == b.total_steps, r
        assert np.array_equal(s.steps, b.steps), r
        assert np.array_equal(s.settled_at, b.settled_at), r
        assert np.array_equal(s.settle_order, b.settle_order), r
        assert s.trajectories == b.trajectories, r
        after = ends[r]
        if process in ("sequential", "parallel"):
            after = twin(r)
            after.random(s.total_steps)
        if families[r] is None:
            state = after.bit_generator.state["state"]
            assert _row_state(seeds[r]) == (state["state"], state["inc"]), r
        else:
            gen = gens[r].bit_generator._keep[1] if r >= 7 else gens[r]
            assert _same_state(gen.bit_generator.state, after.bit_generator.state), r


# ---------------------------------------------------------------------------
# wrapper fuzz: every bad shard raises before any draw

#: Row sets of the four shard wrappers on C5 for ``R`` repetitions:
#: particle 0 settled at vertex 0, particles 1..4 to walk from 0.
def _shard_rows(loop, R):
    rows = {
        "occ": np.tile(np.array([1, 0, 0, 0, 0], dtype=np.uint8), R),
        "steps": np.zeros((R, 5), dtype=np.int64),
        "settled": _tiled([0, -1, -1, -1, -1], R=R),
    }
    if loop == "finish_sequential":
        rows.update(starts=np.zeros((R, 5), dtype=np.int64), walker=[1] * R)
    elif loop == "finish_parallel":
        rows.update(
            act=_tiled([1, 2, 3, 4, 0], R=R), pos=np.zeros((R, 5), dtype=np.int64),
            prio=_tiled(range(5), R=R), rounds=np.full((R, 5), -1, dtype=np.int64), k=[4] * R,
        )
    else:
        rows.update(
            pool=_tiled([1, 2, 3, 4, 0], R=R), pos=np.zeros((R, 5), dtype=np.int64),
            order=np.zeros((R, 5), dtype=np.int64), k=[4] * R, norder=[1] * R,
        )
        if loop == "finish_ctu":
            rows["clock"] = np.zeros((R, 5))
    return rows


def _shard_call(ks, loop, rows, rngs, seeds):
    indptr, indices = csr_arrays(cycle_graph(5))
    if loop == "finish_sequential":
        return ks.finish_sequential(
            indptr, indices, rows["occ"], rows["starts"], rngs,
            walker=rows["walker"], lazy=False, budget=float("inf"),
            limit_msg="limit", steps=rows["steps"], settled=rows["settled"],
            seeds=seeds,
        )
    if loop == "finish_parallel":
        return ks.finish_parallel(
            indptr, indices, rows["occ"], rows["act"], rows["pos"],
            rows["prio"], rows["steps"], rows["settled"], rows["rounds"], rngs,
            k=rows["k"], free=4, lazy=False,
            budget=float("inf"), max_rounds=None, seeds=seeds,
        )
    common = (
        indptr, indices, rows["occ"], rows["pool"], rows["pos"], rows["steps"],
        rows["settled"],
    )
    if loop == "finish_ctu":
        return ks.finish_ctu(
            *common, rows["clock"], rows["order"], rngs, k=rows["k"],
            norder=rows["norder"], rate=1.0, block=1, seeds=seeds,
        )
    return ks.finish_uniform(
        *common, rows["order"], rngs, k=rows["k"], norder=rows["norder"],
        budget=float("inf"), limit_msg="limit", block=1, seeds=seeds,
    )


#: Per wrapper: its index rows with their bound (a particle below m = 5,
#: a vertex below n = 5) and its per-row counts with a value each cannot
#: take.
_INDEX_ROWS = {
    "finish_sequential": {"starts": 5},
    "finish_parallel": {"act": 5, "pos": 5},
    "finish_ctu": {"pool": 5, "pos": 5},
    "finish_uniform": {"pool": 5, "pos": 5},
}
_BAD_COUNTS = {
    "finish_sequential": {"walker": [-1, 6]},
    "finish_parallel": {"k": [-1, 6]},
    "finish_ctu": {"k": [-1, 3, 5], "norder": [-1, 0, 2]},
    "finish_uniform": {"k": [-1, 3, 5], "norder": [-1, 0, 2]},
}


@st.composite
def _bad_shards(draw, loop):
    """A shard of 1-3 rows (each a numpy PCG64, an SFC64 or a C-seeded
    row) with one defect: a row array of another dtype, strided, short
    or of the wrong row count, an index outside its bound, a bad
    per-row count, bad seeds for the C-seeded rows, or one generator for
    two rows."""
    R = draw(st.integers(1, 3))
    rows = _shard_rows(loop, R)
    kinds = [draw(st.sampled_from(["pcg64", "sfc64", "seeded"])) for _ in range(R)]
    defect = draw(st.sampled_from(
        ["dtype", "strided", "short", "index", "count", "seeds", "twice"]
    ))
    arrays = sorted(k for k, v in rows.items() if isinstance(v, np.ndarray))
    seeds_bad = None
    if defect == "twice" and R == 1:
        defect = "count"
    if defect == "seeds":
        kinds[draw(st.integers(0, R - 1))] = "seeded"
        seeds_bad = draw(st.sampled_from(["dtype", "shape", "strided", "none"]))
    if defect == "twice":
        kinds[0] = kinds[1] = "pcg64"
    key = None
    if defect in ("dtype", "strided", "short"):
        key = draw(st.sampled_from(arrays))
        a = rows[key]
        if defect == "dtype":
            bad = [np.int32, np.float32, np.int64, np.float64]
            if a.dtype == np.uint8:
                bad = [np.int64, np.int32]
            new = draw(st.sampled_from([d for d in bad if d != a.dtype]))
            rows[key] = a.astype(new)
        elif defect == "strided":
            rows[key] = np.repeat(a, 2, axis=-1)[..., ::2]
        elif a.ndim == 2:
            short = [a[:, :-1], a[:-1], np.vstack([a, a[:1]])]
            rows[key] = np.ascontiguousarray(draw(st.sampled_from(short)))
        else:
            rows[key] = a[:-1].copy()
    elif defect == "index":
        key, bound = draw(st.sampled_from(sorted(_INDEX_ROWS[loop].items())))
        r, j = draw(st.integers(0, R - 1)), draw(st.integers(0, 4))
        rows[key][r, j] = draw(st.sampled_from([-1, bound, bound + 3, -(2**40), 2**40]))
    elif defect == "count":
        key, values = draw(st.sampled_from(sorted(_BAD_COUNTS[loop].items())))
        rows[key][draw(st.integers(0, R - 1))] = draw(st.sampled_from(values))
    return rows, kinds, defect, seeds_bad, key


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize(
    "loop", ["finish_sequential", "finish_parallel", "finish_ctu", "finish_uniform"]
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shard_wrappers_reject_bad_shards_before_any_draw(provider, loop, data):
    """Hypothesis over the four wrappers' row shapes, dtypes, values,
    per-row counts and seed rows: every bad shard raises ``ValueError``
    naming the wrapper, and no generator and no C-seeded row has moved."""
    ks = get_kernels(provider)
    rows, kinds, defect, seeds_bad, key = data.draw(_bad_shards(loop))
    R = len(kinds)
    bits = {"pcg64": np.random.PCG64, "sfc64": np.random.SFC64}
    rngs = [None if k == "seeded" else np.random.Generator(bits[k](r))
            for r, k in enumerate(kinds)]
    if defect == "twice":
        rngs[1] = rngs[0]
    seeds = ks.pcg64_seeds(SpawnRange(np.random.SeedSequence(3), 0, R))
    if seeds_bad == "dtype":
        seeds = seeds.view(np.int64)
    elif seeds_bad == "shape":
        seeds = np.ascontiguousarray(seeds[:, :3] if R == 1 else seeds[:-1])
    elif seeds_bad == "strided":
        seeds = np.repeat(seeds, 2, axis=1)[:, ::2]
    elif seeds_bad == "none":
        seeds = None
    before = None if seeds is None else seeds.copy()
    with pytest.raises(ValueError, match=loop):
        _shard_call(ks, loop, rows, rngs, seeds)
    for r, (rng, kind) in enumerate(zip(rngs, kinds)):
        if rng is not None and not (defect == "twice" and r == 1):
            fresh = np.random.Generator(bits[kind](r))
            assert rng.random() == fresh.random(), (defect, key, r)
    if before is not None:
        assert np.array_equal(seeds, before), (defect, key)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize(
    "loop", ["finish_sequential", "finish_parallel", "finish_ctu", "finish_uniform"]
)
def test_shard_wrappers_run_the_fuzzed_shards_when_sound(provider, loop):
    """The fuzz's row sets without a defect run: C-seeded rows beside
    PCG64 and SFC64 rows each draw their own doubles."""
    ks = get_kernels(provider)
    rngs = [np.random.Generator(np.random.PCG64(0)), None,
            np.random.Generator(np.random.SFC64(2))]
    seeds = ks.pcg64_seeds(SpawnRange(np.random.SeedSequence(3), 0, 3))
    before = seeds.copy()
    rows = _shard_rows(loop, 3)
    _shard_call(ks, loop, rows, rngs, seeds)
    assert not np.array_equal(seeds[1], before[1])
    assert np.array_equal(np.delete(seeds, 1, axis=0), np.delete(before, 1, axis=0))
    assert rngs[0].random() != np.random.Generator(np.random.PCG64(0)).random()
    assert (rows["settled"] >= 0).all()
