"""Tests for the vectorised walk engine and single-walker kernels."""

import numpy as np
import pytest

from repro.graphs import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.csr import neighbor_kernel
from repro.kernels import get_kernels
from repro.markov import stationary_distribution, transition_matrix
from repro.walks import SingleWalkKernel, WalkEngine, random_walk, walk_until_hit
from repro.walks.engine import make_stepper, neighbor_step

from test_differential_drivers import KERNEL_PROVIDERS as PROVIDERS


class TestWalkEngineStep:
    def test_steps_land_on_neighbors(self, small_graph):
        eng = WalkEngine(small_graph, seed=0)
        pos = np.zeros(50, dtype=np.int64)
        new = eng.step(pos)
        nbrs = set(small_graph.neighbors(0).tolist())
        assert set(new.tolist()) <= nbrs

    def test_in_place_output(self, c8):
        eng = WalkEngine(c8, seed=1)
        pos = np.zeros(10, dtype=np.int64)
        out = eng.step(pos, out=pos)
        assert out is pos

    def test_one_step_distribution_chi2(self):
        # from the centre of a star: uniform over leaves
        g = star_graph(5)
        eng = WalkEngine(g, seed=2)
        pos = np.zeros(40_000, dtype=np.int64)
        new = eng.step(pos)
        counts = np.bincount(new, minlength=5)[1:]
        expected = 10_000
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.3  # 99.9% quantile of chi2(3) is 16.27

    def test_deterministic_by_seed(self, c8):
        a = WalkEngine(c8, seed=7).step(np.zeros(5, dtype=np.int64))
        b = WalkEngine(c8, seed=7).step(np.zeros(5, dtype=np.int64))
        assert np.array_equal(a, b)

    def test_lazy_step_holds(self, c8):
        eng = WalkEngine(c8, seed=3)
        pos = np.zeros(20_000, dtype=np.int64)
        new = eng.step_lazy(pos)
        frac_held = (new == 0).mean()
        assert 0.45 < frac_held < 0.55

    def test_lazy_hold_probability_param(self, c8):
        eng = WalkEngine(c8, seed=4)
        pos = np.zeros(20_000, dtype=np.int64)
        new = eng.step_lazy(pos, hold=0.9)
        assert (new == 0).mean() > 0.85

    def test_lazy_rejects_bad_hold(self, c8):
        eng = WalkEngine(c8, seed=0)
        with pytest.raises(ValueError):
            eng.step_lazy(np.zeros(2, dtype=np.int64), hold=1.0)

    def test_step_subset(self, c8):
        eng = WalkEngine(c8, seed=5)
        pos = np.zeros(6, dtype=np.int64)
        active = np.array([True, False, True, False, False, False])
        eng.step_subset(pos, active)
        assert pos[1] == 0 and pos[3] == 0
        assert pos[0] in (1, 7) and pos[2] in (1, 7)


class TestTrajectoriesAndDistribution:
    def test_trajectories_shape_and_validity(self, c8):
        eng = WalkEngine(c8, seed=6)
        traj = eng.trajectories(np.zeros(4, dtype=np.int64), 10)
        assert traj.shape == (11, 4)
        for t in range(10):
            for k in range(4):
                assert c8.has_edge(int(traj[t, k]), int(traj[t + 1, k]))

    def test_endpoint_distribution_converges_to_pi(self):
        # K_n mixes in O(1); empirical law after 8 steps ~ pi
        g = complete_graph(6)
        eng = WalkEngine(g, seed=8)
        dist = eng.endpoint_distribution(0, 8, 30_000)
        pi = stationary_distribution(g)
        assert np.abs(dist - pi).max() < 0.02

    def test_two_step_distribution_matches_matrix(self):
        g = path_graph(5)
        eng = WalkEngine(g, seed=9)
        dist = eng.endpoint_distribution(0, 2, 40_000)
        P = transition_matrix(g)
        exact = (P @ P)[0]
        assert np.abs(dist - exact).max() < 0.02


class TestSingleWalker:
    def test_random_walk_is_path(self, small_graph):
        traj = random_walk(small_graph, 0, 30, seed=1)
        assert traj[0] == 0 and len(traj) == 31
        for a, b in zip(traj[:-1], traj[1:]):
            assert small_graph.has_edge(int(a), int(b))

    def test_random_walk_zero_steps(self, c8):
        assert random_walk(c8, 3, 0, seed=0).tolist() == [3]

    def test_random_walk_negative_steps(self, c8):
        with pytest.raises(ValueError):
            random_walk(c8, 0, -1)

    def test_kernel_lazy(self, c8):
        kern = SingleWalkKernel(c8, seed=2)
        holds = sum(kern.step_lazy(0) == 0 for _ in range(4000))
        assert 1700 < holds < 2300

    def test_walk_until_hit_zero_if_start_in_set(self, c8):
        assert walk_until_hit(c8, 2, [2, 5], seed=0) == 0

    def test_walk_until_hit_mean_matches_exact(self):
        # path endpoint hitting: exact 16 for P_5
        g = path_graph(5)
        times = [walk_until_hit(g, 0, [4], seed=s) for s in range(400)]
        assert abs(np.mean(times) - 16.0) < 2.5

    def test_walk_until_hit_max_steps(self, c8):
        with pytest.raises(RuntimeError):
            walk_until_hit(c8, 0, [4], seed=0, max_steps=1)

    def test_walk_until_hit_empty_set(self, c8):
        with pytest.raises(ValueError):
            walk_until_hit(c8, 0, [])


# ----------------------------------------------------------------------
# make_stepper: the one step decision
# ----------------------------------------------------------------------
#: A regular and two irregular CSR graphs, and implicit families of
#: both kinds.
STEP_GRAPHS = {
    "cycle": lambda: cycle_graph(17),
    "btree": lambda: complete_binary_tree(4),
    "star": lambda: star_graph(20),
    "implicit-cycle": lambda: cycle_graph(17, implicit=True),
    "implicit-grid": lambda: grid_graph(5, 4, implicit=True),
}


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("graph", STEP_GRAPHS)
def test_make_stepper_equals_neighbor_step(graph, provider, monkeypatch):
    """Every width and every ``out`` mode steps bit for bit as
    :func:`neighbor_step`; the compiled step runs at every width on CSR
    graphs and never on implicit ones."""
    g = STEP_GRAPHS[graph]()
    ks = get_kernels(provider)
    calls = []
    inner = type(ks).csr_step

    def counted(self, indptr, indices, pos, u, out=None):
        calls.append(len(pos))
        return inner(self, indptr, indices, pos, u, out)

    monkeypatch.setattr(type(ks), "csr_step", counted)
    step = make_stepper(g, ks)
    kernel = neighbor_kernel(g)
    rng = np.random.default_rng(7)
    widths = [1, 2, 63, 64, 257]
    compiled_widths = []
    for k in widths:
        pos = rng.integers(0, g.n, size=k)
        u = rng.random(k)
        # the offset clamp at u -> 1 and the exact-0 edge
        u[: min(k, 2)] = [np.nextafter(1.0, 0.0), 0.0][: min(k, 2)]
        expect = neighbor_step(kernel, g.degrees, pos, u)
        assert np.array_equal(step(pos, u), expect)
        out = np.empty(k, dtype=np.int64)
        assert step(pos, u, out) is out
        assert np.array_equal(out, expect)
        alias = pos.copy()
        assert step(alias, u, out=alias) is alias
        assert np.array_equal(alias, expect)
        if ks.compiled and not graph.startswith("implicit"):
            compiled_widths += [k] * 3
    assert calls == compiled_widths


@pytest.mark.parametrize("provider", PROVIDERS)
def test_make_stepper_ignores_the_round_gates(provider, monkeypatch):
    """The walk step has no width gate: with the round gate raised past
    any round, one lane still takes the compiled step (``csr_step``
    beats the numpy step at every width)."""
    from repro.kernels import CompiledKernels

    monkeypatch.setattr(CompiledKernels, "min_width", 1 << 40)
    ks = get_kernels(provider)
    calls = []
    inner = type(ks).csr_step

    def counted(self, *args):
        calls.append(1)
        return inner(self, *args)

    monkeypatch.setattr(type(ks), "csr_step", counted)
    g = complete_binary_tree(3)
    pos = np.array([3], dtype=np.int64)
    u = np.array([0.7])
    got = make_stepper(g, ks)(pos, u)
    assert np.array_equal(got, neighbor_step(neighbor_kernel(g), g.degrees, pos, u))
    assert len(calls) == int(ks.compiled)


# ----------------------------------------------------------------------
# WalkEngine input checks: one ValueError on every provider
# ----------------------------------------------------------------------
#: ``(method, positions, out, message)``; the cycle has 8 vertices.
BAD_INPUT = {
    "step-too-large": ("step", [100000, 1], None, r"in \[0, 8\)"),
    "step-negative": ("step", [1, -3], None, r"in \[0, 8\)"),
    "step-just-past": ("step", [8], None, r"in \[0, 8\)"),
    "step-float": ("step", [1.0, 2.0], None, "integer"),
    "step-bool": ("step", [True, False], None, "integer"),
    "step-2d": ("step", np.zeros((3, 2), dtype=np.int64), None, "1-D"),
    "step-0d": ("step", np.int64(3), None, "1-D"),
    "step-int32-out": (
        "step", np.zeros(5, dtype=np.int64), np.empty(5, np.int32), "int64"
    ),
    "step-short-out": (
        "step", np.zeros(5, dtype=np.int64), np.empty(2, np.int64), "out must match"
    ),
    "batch-too-large": (
        "step_batch", np.full((2, 3), 100000), None, r"in \[0, 8\)"
    ),
    "batch-negative": ("step_batch", np.full((2, 3), -1), None, r"in \[0, 8\)"),
    "batch-float": ("step_batch", np.zeros((2, 3)), None, "integer"),
    "batch-int32-out": (
        "step_batch", np.zeros((2, 3), np.int64), np.empty((2, 3), np.int32),
        "int64",
    ),
    "lazy-too-large": ("step_lazy", [100000, -3], None, r"in \[0, 8\)"),
    "lazy-2d": ("step_lazy", np.zeros((3, 2), dtype=np.int64), None, "1-D"),
}


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("case", BAD_INPUT)
def test_engine_rejects_bad_positions_on_every_provider(case, provider):
    """Out-of-range vertices made C read past ``indptr`` (a crash) and
    numpy wrap -3 to vertex n-3; a 2-D array made C step only its first
    rows.  Both providers now raise the same error, before any draw."""
    method, positions, out, message = BAD_INPUT[case]
    eng = WalkEngine(cycle_graph(8), seed=0, kernels=provider)
    before = eng.rng.bit_generator.state
    variants = [positions]
    if out is None and np.ndim(positions) == 1:
        # also wide enough for the compiled step
        variants.append(np.resize(positions, 64))
    for bad in variants:
        with pytest.raises(ValueError, match=message):
            getattr(eng, method)(bad, out=out)
    assert eng.rng.bit_generator.state == before


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("graph", ["cycle", "btree"])
def test_engine_accepts_any_integer_dtype(graph, provider):
    """int32 and unsigned vertices step exactly as int64 ones (uint64
    ones used to fail on the numpy step of a regular CSR graph)."""
    g = cycle_graph(15) if graph == "cycle" else complete_binary_tree(3)
    pos = np.arange(g.n)
    want = WalkEngine(g, seed=3, kernels=provider).step_batch(pos.reshape(3, 5))
    for dtype in (np.int32, np.uint16, np.uint64):
        got = WalkEngine(g, seed=3, kernels=provider).step_batch(
            pos.astype(dtype).reshape(3, 5)
        )
        assert got.dtype == np.int64 and np.array_equal(got, want)
