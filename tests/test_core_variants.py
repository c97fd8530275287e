"""Tests for the §6.2 variants: particle count ≠ n, random/explicit origins,
and aggregate shape statistics."""

import numpy as np
import pytest

from repro.core import (
    aggregate_after,
    euclidean_shape_stats,
    grid_coordinates,
    parallel_idla,
    resolve_origins,
    sequential_idla,
)
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.utils.rng import as_generator, stable_seed


class TestResolveOrigins:
    def test_scalar(self):
        g = cycle_graph(6)
        out = resolve_origins(g, 2, 4, as_generator(0))
        assert out.tolist() == [2, 2, 2, 2]

    def test_uniform(self):
        g = cycle_graph(6)
        out = resolve_origins(g, "uniform", 500, as_generator(1))
        assert out.min() >= 0 and out.max() < 6
        assert np.unique(out).size == 6  # all vertices drawn

    def test_array(self):
        g = cycle_graph(6)
        out = resolve_origins(g, [0, 3, 5], 3, as_generator(0))
        assert out.tolist() == [0, 3, 5]

    def test_bad_string(self):
        with pytest.raises(ValueError):
            resolve_origins(cycle_graph(6), "random", 3, as_generator(0))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            resolve_origins(cycle_graph(6), [0, 1], 3, as_generator(0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_origins(cycle_graph(6), [0, 9, 1], 3, as_generator(0))

    @pytest.mark.parametrize("batched", [False, "auto"])
    @pytest.mark.parametrize(
        "process", ["sequential", "parallel", "uniform", "ctu", "c-sequential"]
    )
    @pytest.mark.parametrize(
        "origin",
        [[0, 1, 2, 3, 4, 5.5], np.array([True, False] * 3), [0, 1, 2, 3, 4, True]],
        ids=["fraction", "bool-array", "bool-entry"],
    )
    def test_non_integral_entries_raise(self, origin, process, batched):
        """A fraction or a boolean is no vertex id: every process raises
        under either dispatch instead of truncating it.  Integral floats
        are still accepted."""
        g = cycle_graph(6)
        with pytest.raises(ValueError, match="origin"):
            estimate_dispersion(
                g, process, origin=origin, reps=2, seed=0, batched=batched
            )
        ok = estimate_dispersion(
            g, process, origin=[0.0, 1, 2, 3, 4, 5], reps=2, seed=0,
            batched=batched,
        )
        assert ok.samples.shape == (2,)


class TestFewerParticles:
    @pytest.mark.parametrize(
        "driver", [sequential_idla, parallel_idla], ids=lambda d: d.__name__
    )
    def test_m_less_than_n(self, driver):
        g = cycle_graph(12)
        res = driver(g, 0, seed=1, num_particles=5)
        assert res.m == 5
        assert res.steps.shape == (5,)
        assert res.is_complete_dispersion()
        assert np.unique(res.settled_at).size == 5

    def test_m_one_settles_origin(self):
        res = sequential_idla(cycle_graph(8), 3, seed=2, num_particles=1)
        assert res.dispersion_time == 0
        assert res.settled_at.tolist() == [3]

    def test_sequential_rejects_m_greater_n(self):
        with pytest.raises(ValueError):
            sequential_idla(cycle_graph(8), 0, num_particles=9)

    def test_fewer_particles_faster(self):
        g = grid_graph(6, 6)
        full = np.mean(
            [
                parallel_idla(g, 0, seed=stable_seed("fp", r)).dispersion_time
                for r in range(25)
            ]
        )
        half = np.mean(
            [
                parallel_idla(
                    g, 0, seed=stable_seed("fp2", r), num_particles=18
                ).dispersion_time
                for r in range(25)
            ]
        )
        assert half < full


class TestMoreParticles:
    def test_m_greater_than_n_fills_graph(self):
        g = cycle_graph(12)
        res = parallel_idla(g, 0, seed=3, num_particles=30)
        assert res.m == 30
        assert res.is_complete_dispersion()
        settled = res.settled_at[res.settled_at >= 0]
        assert np.unique(settled).size == 12
        assert (res.settled_at < 0).sum() == 18

    def test_more_particles_faster(self):
        g = cycle_graph(24)
        eq = np.mean(
            [
                parallel_idla(g, 0, seed=stable_seed("mp", r)).dispersion_time
                for r in range(25)
            ]
        )
        quad = np.mean(
            [
                parallel_idla(
                    g, 0, seed=stable_seed("mp2", r), num_particles=96
                ).dispersion_time
                for r in range(25)
            ]
        )
        assert quad < eq

    def test_surplus_particles_counted_in_total(self):
        res = parallel_idla(cycle_graph(6), 0, seed=4, num_particles=12)
        # the six wanderers each performed dispersion_time steps at least
        assert res.total_steps >= res.dispersion_time * 6


class TestRandomOrigins:
    @pytest.mark.parametrize(
        "driver", [sequential_idla, parallel_idla], ids=lambda d: d.__name__
    )
    def test_uniform_origins_disperse(self, driver):
        g = grid_graph(5, 5)
        res = driver(g, "uniform", seed=5)
        assert res.is_complete_dispersion()

    def test_explicit_origins_vacant_start_settles(self):
        g = path_graph(6)
        res = sequential_idla(g, [2, 2, 5, 0, 1, 3], seed=6)
        assert res.steps[0] == 0  # vacant start
        assert res.steps[2] == 0  # 5 still vacant when particle 2 starts
        assert res.is_complete_dispersion()

    def test_parallel_round0_settlement(self):
        g = path_graph(4)
        # two particles share a start: only one settles at round 0
        res = parallel_idla(g, [1, 1, 2, 3], seed=7, record=True)
        assert res.is_complete_dispersion()
        assert (res.steps == 0).sum() == 3  # starts 1, 2, 3 settle instantly

    def test_uniform_origins_faster_than_single_on_path(self):
        # spreading the sources drastically reduces congestion on the path
        g = path_graph(32)
        single = np.mean(
            [
                sequential_idla(g, 0, seed=stable_seed("ro", r)).dispersion_time
                for r in range(20)
            ]
        )
        spread = np.mean(
            [
                sequential_idla(
                    g, "uniform", seed=stable_seed("ro2", r)
                ).dispersion_time
                for r in range(20)
            ]
        )
        assert spread < single


class TestAggregateShape:
    def test_aggregate_after_prefix(self):
        g = cycle_graph(10)
        res = sequential_idla(g, 0, seed=8)
        a3 = aggregate_after(res, 3)
        a10 = aggregate_after(res, 10)
        assert a3.size == 3 and a10.size == 10
        assert set(a3.tolist()) <= set(a10.tolist())
        assert 0 in a3.tolist()

    def test_aggregate_after_validation(self):
        res = sequential_idla(cycle_graph(6), 0, seed=9)
        with pytest.raises(ValueError):
            aggregate_after(res, 7)

    def test_grid_coordinates_layout(self):
        c = grid_coordinates(2, 3)
        assert c.shape == (6, 2)
        assert c[0].tolist() == [0, 0]
        assert c[5].tolist() == [1, 2]

    def test_shape_stats_full_disc(self):
        # a perfect L2 ball of radius 2 in a 7x7 grid
        coords = grid_coordinates(7, 7)
        center = 3 * 7 + 3
        d = np.linalg.norm(coords - coords[center], axis=1)
        agg = np.flatnonzero(d <= 2.0)
        st = euclidean_shape_stats(agg, center, coords)
        assert st.in_radius > 2.0  # nearest unoccupied strictly outside
        assert st.out_radius == 2.0
        assert st.sphericity > 1.0 - 1e-9

    def test_shape_stats_idla_near_disc(self):
        side = 31
        g = grid_graph(side, side)
        center = (side // 2) * side + side // 2
        res = sequential_idla(g, center, seed=10, num_particles=200)
        st = euclidean_shape_stats(
            aggregate_after(res, 200), center, grid_coordinates(side, side)
        )
        assert st.size == 200
        assert 0.55 < st.sphericity <= 1.0
        assert 0.7 < st.out_radius / st.target_radius < 1.5

    def test_shape_stats_validation(self):
        coords = grid_coordinates(3, 3)
        with pytest.raises(ValueError):
            euclidean_shape_stats([], 0, coords)
        with pytest.raises(ValueError):
            euclidean_shape_stats([1, 2], 0, coords)  # origin not inside
        with pytest.raises(ValueError):
            euclidean_shape_stats([99], 0, coords)
