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
* the ``UniformStream.take_block`` handoff contract the compiled tail
  finishers consume.
"""

from __future__ import annotations

import pickle
import shutil

import numpy as np
import pytest

import repro.kernels as kernels_mod
from repro.graphs import complete_binary_tree, cycle_graph, star_graph
from repro.kernels import (
    KernelSet,
    KernelsUnavailableError,
    NumpyKernels,
    available_kernels,
    check_kernels,
    csr_arrays,
    get_kernels,
)
from repro.utils.rng import UniformStream, as_generator
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
