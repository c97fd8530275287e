"""Tests for the vectorised walk engine and single-walker kernels."""

import numpy as np
import pytest

from repro.graphs import complete_graph, path_graph, star_graph
from repro.markov import stationary_distribution, transition_matrix
from repro.walks import SingleWalkKernel, WalkEngine, random_walk, walk_until_hit


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
