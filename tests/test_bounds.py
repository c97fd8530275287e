"""Tests for the theorem-bound calculators."""

import math

import numpy as np
import pytest

from repro.bounds import (
    KAPPA_CC,
    PI2_OVER_6,
    expected_max_geometric_sum,
    general_envelope,
    instance_envelope,
    kappa_cc,
    lemma_c2_bound,
    lemma_c2_polynomial_bound,
    lemma_c5_hit_probability,
    multi_walk_set_hitting_time,
    proposition_3_9_bound,
    proposition_3_9_spectral_bound,
    regular_envelope,
    set_hitting_profile,
    theorem_3_1_expectation_bound,
    theorem_3_1_threshold,
    theorem_3_3_bound,
    theorem_3_5_bound,
    theorem_3_6_bound,
    theorem_3_7_tree_bound,
    theorem_c4_bound,
    trivial_lower_bound,
)
from repro.graphs import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from repro.markov import max_hitting_time, mixing_time, stationary_set_hitting_time


class TestConstants:
    def test_kappa_cc_value(self):
        assert abs(KAPPA_CC - 1.2552) < 1e-3

    def test_kappa_cc_literal_is_the_series_value(self):
        # the module stores kappa_cc()'s repr rather than summing on import
        assert KAPPA_CC == kappa_cc()

    def test_kappa_cc_converges(self):
        assert abs(kappa_cc(100_000) - kappa_cc(200_000)) < 1e-9

    def test_kappa_cc_matches_exact_finite_n(self):
        # E[max Geom(i/n)]/n -> kappa_cc; at n = 3000 within ~2e-3
        n = 3000
        assert abs(expected_max_geometric_sum(n) / n - KAPPA_CC) < 3e-3

    def test_pi2_over_6(self):
        assert abs(PI2_OVER_6 - math.pi**2 / 6) < 1e-15

    def test_parallel_slower_constant(self):
        # the ~30% gap quoted in §1.1
        assert 1.25 < PI2_OVER_6 / KAPPA_CC < 1.35

    def test_expected_max_geometric_validation(self):
        with pytest.raises(ValueError):
            expected_max_geometric_sum(0)


class TestTheorem31:
    def test_threshold_formula(self):
        g = cycle_graph(16)
        expected = 6.0 * max_hitting_time(g) * math.log2(16)
        assert np.isclose(theorem_3_1_threshold(g), expected)

    def test_expectation_bound_slightly_larger(self, small_graph):
        thr = theorem_3_1_threshold(small_graph)
        exp_b = theorem_3_1_expectation_bound(small_graph)
        assert thr < exp_b < 1.1 * thr


class TestSetProfileAndUpperBounds:
    def test_profile_sizes(self):
        prof = set_hitting_profile(cycle_graph(16), method="exact")
        assert prof.sizes == (1, 1, 2, 4)  # ceil(2^{j-2}) for j=1..4
        assert len(prof.values) == 4
        assert prof.t_mix == mixing_time(cycle_graph(16), lazy=True)

    def test_profile_values_decreasing(self):
        # larger sets are easier to hit
        prof = set_hitting_profile(cycle_graph(16), method="exact")
        assert all(a >= b - 1e-9 for a, b in zip(prof.values, prof.values[1:]))

    def test_profile_exact_matches_exhaustive(self):
        from repro.markov import max_set_hitting_time

        g = cycle_graph(8)
        prof = set_hitting_profile(g, method="exact")
        for s, v in zip(prof.sizes, prof.values):
            exact, _ = max_set_hitting_time(g, s, lazy=True, method="exhaustive")
            assert np.isclose(v, exact)

    def test_thm_3_3_k_monotone(self):
        g = cycle_graph(16)
        prof = set_hitting_profile(g, method="exact")
        b1 = theorem_3_3_bound(g, 1, profile=prof)
        b2 = theorem_3_3_bound(g, 2, profile=prof)
        assert b2 < b1

    def test_thm_3_3_k_validation(self):
        g = cycle_graph(16)
        prof = set_hitting_profile(g, method="exact")
        with pytest.raises(ValueError):
            theorem_3_3_bound(g, 99, profile=prof)

    def test_thm_3_5_le_thm_3_3_scale(self):
        # paper remark: the 3.5 bound is at most the 3.3 bound up to consts
        g = hypercube_graph(4)
        prof = set_hitting_profile(g, method="heuristic", seed=0)
        assert theorem_3_5_bound(g, profile=prof) <= 2 * theorem_3_3_bound(
            g, 1, profile=prof
        )

    def test_lemma_c2_profile_upper_bounds_exact(self):
        # the analytic surrogate dominates the exact max for regular graphs
        g = cycle_graph(12)
        exact_prof = set_hitting_profile(g, method="exact")
        c2_prof = set_hitting_profile(g, method="lemma-c2")
        for a, b in zip(c2_prof.values, exact_prof.values):
            assert a >= b - 1e-9


class TestLowerBounds:
    def test_thm_3_6_complete(self):
        # 2m/Delta = n for K_n
        assert theorem_3_6_bound(complete_graph(10)) == 10.0

    def test_thm_3_6_star(self):
        # 2(n-1)/(n-1) = 2 — stars genuinely have tiny |E|/Delta
        assert theorem_3_6_bound(star_graph(10)) == 2.0

    def test_thm_3_7_values(self):
        assert theorem_3_7_tree_bound(path_graph(10)) == 17.0
        assert theorem_3_7_tree_bound(complete_binary_tree(3)) == 27.0

    def test_thm_3_7_rejects_non_tree(self):
        with pytest.raises(ValueError):
            theorem_3_7_tree_bound(cycle_graph(5))

    def test_prop_3_9_is_mixing_time(self):
        g = cycle_graph(16)
        assert proposition_3_9_bound(g) == mixing_time(g, lazy=True)

    def test_prop_3_9_spectral_chain(self):
        out = proposition_3_9_spectral_bound(cycle_graph(16))
        assert out["relaxation_term"] > 0
        assert out["inv_conductance_lower"] <= out["inv_conductance_upper"]

    def test_trivial_lower(self):
        assert trivial_lower_bound(path_graph(9)) == 8.0


class TestAppendixC:
    def test_lemma_c2_dominates_exact_max(self):
        g = cycle_graph(10)
        for size in (1, 2, 3):
            exact = stationary_set_hitting_time(g, list(range(size)), lazy=True)
            assert lemma_c2_bound(g, size) >= exact

    def test_lemma_c2_rejects_irregular(self):
        with pytest.raises(ValueError, match="almost-regular"):
            lemma_c2_bound(star_graph(30), 2)

    def test_lemma_c2_polynomial_form(self):
        g = hypercube_graph(4)
        v = lemma_c2_polynomial_bound(g, 4, C=2.0, eps=1.0)
        assert v > 0
        with pytest.raises(ValueError):
            lemma_c2_polynomial_bound(g, 4, C=-1.0, eps=1.0)

    def test_lemma_c5_probability_range(self):
        g = cycle_graph(12)
        p = lemma_c5_hit_probability(g, 2, tau=10)
        assert 0.0 <= p <= 10 * 2 / 12  # capped by tau|S|/n

    def test_lemma_c5_rejects_irregular(self):
        with pytest.raises(ValueError):
            lemma_c5_hit_probability(path_graph(8), 2, 5)

    def test_multi_walk_speedup(self):
        g = cycle_graph(16)
        t1 = multi_walk_set_hitting_time(g, [0], 1, reps=60, seed=0)
        t4 = multi_walk_set_hitting_time(g, [0], 4, reps=60, seed=1)
        assert t4 < t1

    def test_theorem_c4_positive(self):
        g = complete_graph(8)
        b = theorem_c4_bound(g, k=3, reps=8, seed=2)
        assert b > 0


class TestWorstCase:
    def test_envelopes_monotone(self):
        assert general_envelope(64) > general_envelope(32)
        assert regular_envelope(64) > regular_envelope(32)

    def test_general_dominates_regular_eventually(self):
        assert general_envelope(128) > regular_envelope(128)

    def test_instance_envelope_matches_thm31(self):
        g = cycle_graph(12)
        assert np.isclose(instance_envelope(g), theorem_3_1_threshold(g))

    def test_tiny_n(self):
        assert general_envelope(1) == 0.0
