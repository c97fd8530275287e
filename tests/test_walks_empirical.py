"""Tests for Monte-Carlo hitting/cover estimators and Poissonisation."""

import numpy as np
import pytest

from repro.graphs import complete_graph, cycle_graph, path_graph
from repro.markov import harmonic_number, hitting_time
from repro.walks import (
    empirical_cover_times,
    empirical_hitting_times,
    empirical_max_hitting_of_path,
    empirical_set_hitting_times,
    exponential_race,
    poissonise_steps,
)


class TestEmpiricalHitting:
    def test_matches_exact_path(self):
        g = path_graph(6)
        samples = empirical_hitting_times(g, 0, 5, reps=600, seed=0)
        exact = hitting_time(g, 0, 5)  # 25
        assert abs(samples.mean() - exact) < 0.15 * exact

    def test_matches_exact_complete(self):
        g = complete_graph(12)
        samples = empirical_hitting_times(g, 0, 5, reps=2000, seed=1)
        assert abs(samples.mean() - 11.0) < 1.0

    def test_zero_when_start_is_target(self, c8):
        samples = empirical_set_hitting_times(c8, 3, [3], reps=5, seed=0)
        assert np.all(samples == 0)

    def test_set_hitting_faster_than_single(self, c8):
        single = empirical_set_hitting_times(c8, 0, [4], reps=400, seed=2).mean()
        both = empirical_set_hitting_times(c8, 0, [3, 4], reps=400, seed=2).mean()
        assert both < single

    def test_lazy_roughly_doubles(self):
        g = cycle_graph(10)
        fast = empirical_set_hitting_times(g, 0, [5], reps=600, seed=3).mean()
        slow = empirical_set_hitting_times(
            g, 0, [5], reps=600, seed=4, lazy=True
        ).mean()
        assert 1.6 < slow / fast < 2.4

    def test_reps_validation(self, c8):
        with pytest.raises(ValueError):
            empirical_hitting_times(c8, 0, 1, reps=0)


class TestEmpiricalCover:
    def test_complete_graph_coupon_collector(self):
        # E[cover K_n] = (n-1) H_{n-1}
        n = 10
        samples = empirical_cover_times(complete_graph(n), 0, reps=800, seed=5)
        exact = (n - 1) * harmonic_number(n - 1)
        assert abs(samples.mean() - exact) < 0.1 * exact

    def test_cycle_cover_exact(self):
        # E[cover C_n] = n(n-1)/2 exactly
        n = 8
        samples = empirical_cover_times(cycle_graph(n), 0, reps=800, seed=6)
        exact = n * (n - 1) / 2
        assert abs(samples.mean() - exact) < 0.12 * exact

    def test_cover_at_least_n_minus_1(self, small_graph):
        samples = empirical_cover_times(small_graph, 0, reps=20, seed=7)
        assert np.all(samples >= small_graph.n - 1)


class TestMaxHittingOfPath:
    def test_dominates_single_hitting(self):
        n = 12
        single = empirical_set_hitting_times(path_graph(n), 0, [n - 1], n, seed=8)
        max_samples = empirical_max_hitting_of_path(n, reps=30, seed=9)
        assert max_samples.mean() > single.mean()

    def test_at_least_distance_squared_scale(self):
        n = 10
        m = empirical_max_hitting_of_path(n, reps=20, seed=10)
        assert np.all(m >= (n - 1))  # must at least traverse the path


class TestPoissonisation:
    def test_zero_steps_zero_duration(self):
        d = poissonise_steps([0, 0], seed=0)
        assert np.all(d == 0)

    def test_mean_matches_count(self):
        d = poissonise_steps(np.full(4000, 50), seed=1)
        assert abs(d.mean() - 50.0) < 1.0

    def test_rate_scaling(self):
        d1 = poissonise_steps(np.full(3000, 40), seed=2, rate=1.0)
        d2 = poissonise_steps(np.full(3000, 40), seed=2, rate=2.0)
        assert abs(d1.mean() / d2.mean() - 2.0) < 0.2

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            poissonise_steps([-1])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            poissonise_steps([1], rate=0.0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                poissonise_steps([1], rate=rate)


class TestExponentialRace:
    def test_mean_waiting_time(self):
        rng = np.random.default_rng(3)
        dts = [exponential_race(5, rng)[0] for _ in range(4000)]
        assert abs(np.mean(dts) - 0.2) < 0.02

    def test_winner_uniform(self):
        rng = np.random.default_rng(4)
        winners = np.array([exponential_race(4, rng)[1] for _ in range(8000)])
        counts = np.bincount(winners, minlength=4)
        assert counts.min() > 1700

    def test_k_validation(self):
        with pytest.raises(ValueError):
            exponential_race(0, np.random.default_rng(0))
