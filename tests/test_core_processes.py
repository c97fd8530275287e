"""Tests for the four process drivers: invariants, block validity, laziness,
tie-breaking, stopping rules and determinism."""

import numpy as np
import pytest

import repro.core.parallel as parallel_mod

from repro.core import (
    DelayedRule,
    HairRule,
    ctu_idla,
    continuous_sequential_idla,
    is_valid_parallel_block,
    is_valid_sequential_block,
    parallel_idla,
    sequential_idla,
    uniform_idla,
)
from repro.graphs import (
    clique_with_hair,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.utils.rng import stable_seed

DRIVERS = [sequential_idla, parallel_idla, uniform_idla, ctu_idla]


class TestCommonInvariants:
    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
    def test_complete_dispersion(self, small_graph, driver):
        res = driver(small_graph, 0, seed=1)
        assert res.is_complete_dispersion()
        assert res.settled_at[0] == 0  # particle 0 takes the origin
        assert res.steps[0] == 0

    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
    def test_total_steps_consistent(self, c8, driver):
        res = driver(c8, 0, seed=2)
        assert res.total_steps == int(res.steps.sum())

    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
    def test_deterministic_given_seed(self, c8, driver):
        a = driver(c8, 0, seed=33)
        b = driver(c8, 0, seed=33)
        assert a.dispersion_time == b.dispersion_time
        assert np.array_equal(a.settled_at, b.settled_at)

    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
    def test_origin_validation(self, c8, driver):
        with pytest.raises(ValueError):
            driver(c8, 99, seed=0)

    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.__name__)
    def test_nontrivial_origin(self, driver):
        g = path_graph(7)
        res = driver(g, 3, seed=4)
        assert res.is_complete_dispersion()
        assert res.settled_at[0] == 3

    @pytest.mark.parametrize(
        "driver",
        [sequential_idla, parallel_idla, uniform_idla],
        ids=lambda d: d.__name__,
    )
    def test_trajectories_consistent_with_steps(self, c8, driver):
        res = driver(c8, 0, seed=5, record=True)
        for i, traj in enumerate(res.trajectories):
            assert len(traj) == res.steps[i] + 1
            assert traj[0] == 0
            assert traj[-1] == res.settled_at[i]

    def test_single_vertex_graph(self):
        from repro.graphs import Graph

        g = Graph(np.array([0, 0]), np.array([], dtype=np.int64))
        res = sequential_idla(g, 0, seed=0)
        assert res.dispersion_time == 0 and res.total_steps == 0


class TestSequential:
    def test_block_validity(self, small_graph):
        res = sequential_idla(small_graph, 0, seed=6, record=True)
        assert is_valid_sequential_block(res.block(), small_graph, 0)

    def test_dispersion_is_max_steps(self, c8):
        res = sequential_idla(c8, 0, seed=7)
        assert res.dispersion_time == res.steps.max()

    def test_complete_graph_is_coupon_collector_scale(self):
        # E[total steps] for K_n sequential = sum_k (n-1)/k ~ n log n
        n = 64
        tot = [
            sequential_idla(complete_graph(n), seed=stable_seed("cc-t", r)).total_steps
            for r in range(30)
        ]
        expected = (n - 1) * sum(1.0 / k for k in range(1, n))
        assert abs(np.mean(tot) - expected) < 0.15 * expected

    def test_lazy_roughly_doubles(self):
        g = grid_graph(5, 5)
        fast = [
            sequential_idla(g, seed=stable_seed("lz", r)).dispersion_time
            for r in range(25)
        ]
        slow = [
            sequential_idla(g, seed=stable_seed("lz", r), lazy=True).dispersion_time
            for r in range(25)
        ]
        ratio = np.mean(slow) / np.mean(fast)
        assert 1.5 < ratio < 2.6

    def test_lazy_block_paths_allow_holds(self):
        g = cycle_graph(6)
        res = sequential_idla(g, 0, seed=8, lazy=True, record=True)
        b = res.block()
        b.check_paths(g, 0)  # repeats allowed, must not raise

    def test_max_total_steps_guard(self):
        g = cycle_graph(32)
        with pytest.raises(RuntimeError, match="max_total_steps"):
            sequential_idla(g, 0, seed=9, max_total_steps=5)

    def test_settle_order_is_identity(self, c8):
        res = sequential_idla(c8, 0, seed=10)
        assert res.settle_order.tolist() == list(range(8))


class TestParallel:
    def test_block_validity_index_tiebreak(self, small_graph):
        res = parallel_idla(small_graph, 0, seed=11, record=True)
        assert is_valid_parallel_block(res.block(), small_graph, 0)

    def test_dispersion_is_max_steps_and_rounds(self, c8):
        res = parallel_idla(c8, 0, seed=12)
        assert res.dispersion_time == res.steps.max()

    def test_scalar_and_vector_phases_agree_statistically(self, monkeypatch):
        # force everything through the wide phase vs everything through
        # the scalar phase; means must agree
        g = cycle_graph(12)
        monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", 0)
        big = [
            parallel_idla(g, seed=stable_seed("ph", r)).dispersion_time
            for r in range(60)
        ]
        monkeypatch.setattr(parallel_mod, "_SCALAR_THRESHOLD", 10**9)
        small = [
            parallel_idla(g, seed=stable_seed("ph2", r)).dispersion_time
            for r in range(60)
        ]
        assert abs(np.mean(big) - np.mean(small)) < 0.25 * np.mean(big)

    def test_random_tiebreak_valid_dispersion(self, c8):
        res = parallel_idla(c8, 0, seed=13, tie_break="random")
        assert res.is_complete_dispersion()

    def test_bad_tiebreak_rejected(self, c8):
        with pytest.raises(ValueError):
            parallel_idla(c8, 0, seed=0, tie_break="nope")

    def test_max_rounds_guard(self):
        with pytest.raises(RuntimeError, match="max_rounds"):
            parallel_idla(cycle_graph(64), 0, seed=14, max_rounds=3)

    def test_lazy_parallel_runs(self, c8):
        res = parallel_idla(c8, 0, seed=15, lazy=True)
        assert res.is_complete_dispersion()

    def test_settle_round_consistency(self, c8):
        # every settled particle's step count equals its settling round,
        # which is at most the dispersion time
        res = parallel_idla(c8, 0, seed=16)
        assert res.steps.max() == res.dispersion_time
        assert np.all(res.steps[1:] >= 1)


class TestUniform:
    def test_ticks_at_least_jumps(self, c8):
        res = uniform_idla(c8, 0, seed=17)
        assert res.ticks >= res.total_steps

    def test_faithful_r_schedule_recorded(self, c8):
        res = uniform_idla(c8, 0, seed=18, faithful_r=True)
        assert res.schedule.min() >= 1 and res.schedule.max() <= 7
        assert len(res.schedule) == res.ticks

    def test_faithful_and_geometric_agree_statistically(self):
        g = complete_graph(16)
        a = [
            uniform_idla(g, seed=stable_seed("uf", r)).ticks for r in range(80)
        ]
        b = [
            uniform_idla(g, seed=stable_seed("uf2", r), faithful_r=True).ticks
            for r in range(80)
        ]
        assert abs(np.mean(a) - np.mean(b)) < 0.2 * np.mean(a)

    def test_max_ticks_guard(self):
        with pytest.raises(RuntimeError):
            uniform_idla(cycle_graph(32), 0, seed=19, max_ticks=3)


class TestContinuous:
    def test_ctu_clock_positive_and_ordered(self, c8):
        res = ctu_idla(c8, 0, seed=20)
        assert res.dispersion_time > 0
        assert res.settle_clock.max() == res.dispersion_time

    def test_ctu_rate_scales_clock(self):
        g = complete_graph(24)
        t1 = np.mean(
            [ctu_idla(g, seed=stable_seed("r1", r)).dispersion_time for r in range(40)]
        )
        t2 = np.mean(
            [
                ctu_idla(g, rate=2.0, seed=stable_seed("r2", r)).dispersion_time
                for r in range(40)
            ]
        )
        assert 1.5 < t1 / t2 < 2.5

    def test_ctu_rejects_bad_rate(self, c8):
        with pytest.raises(ValueError):
            ctu_idla(c8, rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_continuous_drivers_reject_non_finite_rate(self, c8, rate):
        # nan made every clock nan and inf every duration 0, silently
        for driver in (ctu_idla, continuous_sequential_idla):
            with pytest.raises(ValueError, match="finite"):
                driver(c8, seed=1, rate=rate)

    def test_continuous_sequential_duration_close_to_steps(self):
        g = grid_graph(5, 5)
        res = continuous_sequential_idla(g, 0, seed=21)
        # Gamma(k,1) concentrates near k: max duration within 3x of max steps
        assert 0.3 * res.steps.max() < res.dispersion_time < 3 * res.steps.max()

    def test_continuous_sequential_has_durations(self, c8):
        res = continuous_sequential_idla(c8, 0, seed=22)
        assert res.durations.shape == (8,)
        assert res.durations[0] == 0.0


class TestStoppingRules:
    def test_delayed_rule_increases_steps(self):
        g = complete_graph(24)
        normal = np.mean(
            [
                sequential_idla(g, seed=stable_seed("d0", r)).total_steps
                for r in range(20)
            ]
        )
        delayed = np.mean(
            [
                sequential_idla(
                    g, seed=stable_seed("d1", r), rule=DelayedRule(delay=10)
                ).total_steps
                for r in range(20)
            ]
        )
        assert delayed > normal + 9 * 23  # every particle walks >= 10 steps

    def test_delayed_rule_still_disperses(self, c8):
        res = sequential_idla(c8, 0, seed=23, rule=DelayedRule(delay=5))
        assert res.is_complete_dispersion()
        assert np.all(res.steps[1:] >= 5)

    def test_hair_rule_settles_tip_early(self):
        n = 32
        g = clique_with_hair(n)
        rule = HairRule.for_clique_with_hair(n)
        res = sequential_idla(g, 0, seed=24, rule=rule)
        assert res.is_complete_dispersion()

    def test_hair_rule_parallel(self):
        n = 24
        g = clique_with_hair(n)
        rule = HairRule.for_clique_with_hair(n)
        res = parallel_idla(g, 0, seed=25, rule=rule)
        assert res.is_complete_dispersion()

    def test_rule_describe(self):
        assert "hair" in HairRule(1, 10.0).describe()
        assert "delayed" in DelayedRule(5).describe()
