"""Tests for the experiment harness (stats, runner, fitting, sweeps, io)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    bootstrap_ci,
    empirical_quantile,
    estimate_dispersion,
    fit_constant,
    fit_power_law,
    format_value,
    load_json,
    render_table,
    run_process,
    save_json,
    summarize,
    sweep_dispersion,
    to_jsonable,
)
from repro.graphs import complete_graph, cycle_graph
from repro.theory import growth_laws


class TestStats:
    def test_summarize_basics(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s.mean == 4.0 and s.median == 4.0
        assert s.min == 2.0 and s.max == 6.0
        assert s.ci95_low < 4.0 < s.ci95_high

    def test_summarize_single_sample(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.sem == 0.0

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    @staticmethod
    def _same_order_stats(x):
        s = summarize(x)
        got = (s.median, s.q05, s.q95)
        want = (np.median(x), np.quantile(x, 0.05), np.quantile(x, 0.95))
        for g, w in zip(got, want):
            assert type(g) is float
            assert np.float64(g).tobytes() == np.float64(w).tobytes(), (x, got, want)

    @pytest.mark.parametrize(
        "seed, kind", list(enumerate(["uniform", "ties", "integers", "scaled"]))
    )
    def test_summarize_order_stats_match_numpy_bit_for_bit(self, seed, kind):
        """One sort yields numpy's median and linear 0.05/0.95 quantiles
        exactly: every size 1-12, then random sizes up to 200."""
        rng = np.random.default_rng(seed)
        sizes = [*range(1, 13), *rng.integers(1, 201, size=150).tolist()]
        for n in sizes:
            if kind == "uniform":
                x = rng.random(n) * 1e3
            elif kind == "ties":
                x = rng.integers(0, 4, size=n).astype(np.float64) * 0.1
            elif kind == "integers":
                x = rng.integers(0, 10**6, size=n).astype(np.float64)
            else:
                x = rng.standard_exponential(n) * 10.0 ** rng.integers(-150, 150)
            self._same_order_stats(x)

    def test_summarize_nan_matches_numpy(self):
        x = np.array([3.0, np.nan, 1.0, 2.0])
        self._same_order_stats(x)
        s = summarize(x)
        assert np.isnan(s.median) and np.isnan(s.q05) and np.isnan(s.q95)

    def test_bootstrap_ci_contains_mean_for_tight_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(10, 1, size=200)
        lo, hi = bootstrap_ci(x, seed=1)
        assert lo < 10.2 and hi > 9.8

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], level=1.5)

    def test_quantile(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2.5
        with pytest.raises(ValueError):
            empirical_quantile([1], 2.0)

    def test_format(self):
        s = summarize([1.0, 2.0, 3.0])
        assert "median" in s.format()


class TestRunner:
    def test_run_process_dispatch(self):
        g = complete_graph(12)
        for proc in ("sequential", "parallel", "uniform", "ctu", "c-sequential"):
            res = run_process(proc, g, seed=0)
            assert res.is_complete_dispersion()

    def test_run_process_unknown(self):
        with pytest.raises(KeyError, match="available"):
            run_process("quantum", complete_graph(4))

    def test_estimate_shapes(self):
        est = estimate_dispersion(complete_graph(16), "parallel", reps=5, seed=1)
        assert est.samples.shape == (5,)
        assert est.dispersion.n == 5
        assert est.n == 16

    def test_estimate_deterministic(self):
        a = estimate_dispersion(cycle_graph(12), "sequential", reps=3, seed=9)
        b = estimate_dispersion(cycle_graph(12), "sequential", reps=3, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_estimate_kwargs_forwarded(self):
        est = estimate_dispersion(
            cycle_graph(10), "sequential", reps=3, seed=2, lazy=True
        )
        assert est.dispersion.mean > 0

    def test_estimate_reps_validation(self):
        with pytest.raises(ValueError):
            estimate_dispersion(cycle_graph(8), reps=0)

    def test_parallel_jobs_match_serial(self):
        # the shared-memory shard path preserves repetition order, so the
        # equality is exact and elementwise, not merely as multisets
        g = complete_graph(12)
        a = estimate_dispersion(g, "sequential", reps=4, seed=3, n_jobs=1)
        b = estimate_dispersion(g, "sequential", reps=4, seed=3, n_jobs=2)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.total_samples, b.total_samples)


class TestFitting:
    def test_power_law_exact(self):
        f = fit_power_law([10, 20, 40], [100, 400, 1600])
        assert abs(f.exponent - 2.0) < 1e-9
        assert f.r_squared > 0.999

    def test_power_law_noisy(self):
        rng = np.random.default_rng(1)
        ns = np.array([16, 32, 64, 128, 256])
        ys = 3.0 * ns**1.5 * np.exp(rng.normal(0, 0.05, ns.size))
        f = fit_power_law(ns, ys)
        assert abs(f.exponent - 1.5) < 0.15

    def test_power_law_predict(self):
        f = fit_power_law([10, 100], [10, 100])
        assert np.allclose(f.predict([1000]), [1000])

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])

    def test_constant_fit_recovers_constant(self):
        law = growth_laws()["n log n"]
        ns = [32, 64, 128, 256]
        ys = [2.5 * law(n) for n in ns]
        f = fit_constant(ns, ys, law)
        assert abs(f.constant - 2.5) < 1e-9
        assert abs(f.trend) < 1e-9
        assert f.is_flat

    def test_constant_fit_detects_wrong_law(self):
        # quadratic data against linear law: trend ~ 1
        law = growth_laws()["n"]
        ns = [32, 64, 128, 256]
        ys = [n**2 for n in ns]
        f = fit_constant(ns, ys, law)
        assert f.trend > 0.8
        assert not f.is_flat


class TestSweep:
    def test_sweep_points_and_rows(self):
        res = sweep_dispersion("complete", [16, 32], reps=2, seed=4)
        assert len(res.points) == 4
        assert res.sizes() == [16, 32]
        rows = res.rows()
        assert rows[0]["family"] == "complete"
        assert {r["process"] for r in rows} == {"sequential", "parallel"}

    def test_sweep_means_and_fit(self):
        res = sweep_dispersion("complete", [32, 64, 128], reps=3, seed=5)
        ns, ys = res.means("parallel")
        assert ns.tolist() == [32, 64, 128]
        fit = res.power_law("parallel")
        assert 0.5 < fit.exponent < 1.6  # Theta(n)

    def test_sweep_unknown_process_query(self):
        res = sweep_dispersion("complete", [16], reps=1, seed=6)
        with pytest.raises(KeyError):
            res.means("ctu")

    def test_sweep_snaps_sizes(self):
        res = sweep_dispersion("hypercube", [50], reps=1, seed=7)
        assert res.sizes() == [64]

    def test_sweep_dedupes_snapped_sizes(self):
        # 50, 60 and 64 all snap to the 64-vertex hypercube; measuring the
        # point three times with identical streams would silently
        # triple-weight it in power_law / constant_fit
        res = sweep_dispersion("hypercube", [50, 60, 64], reps=1, seed=7)
        assert res.sizes() == [64]
        assert len(res.points) == 2  # one per process, not one per request

    def test_sweep_seeds_from_snapped_size(self):
        # regression: graphs used to be seeded from the *requested* size,
        # so two requests realising the same size built different random
        # graphs yet shared one estimate stream; both seeds now derive
        # from the snapped size, making the sweep label-independent
        a = sweep_dispersion("expander", [7], reps=2, seed=11)
        b = sweep_dispersion("expander", [8], reps=2, seed=11)
        assert len(a.points) == len(b.points)
        for pa, pb in zip(a.points, b.points):
            assert pa.n == pb.n == 8
            assert np.array_equal(pa.estimate.samples, pb.estimate.samples)

    def test_sweep_fixed_origin(self):
        res = sweep_dispersion("cycle", [12], reps=1, seed=8, origin=3)
        assert res.points[0].estimate.origin == 3


class TestTables:
    def test_render_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.0], [33, 4.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_rejects_ragged(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_format_value(self):
        assert format_value(1.0) == "1"
        assert format_value(123456.0) == "1.235e+05"
        assert format_value("x") == "x"
        assert format_value(float("nan")) == "nan"


class TestIO:
    def test_roundtrip(self, tmp_path):
        est = estimate_dispersion(complete_graph(8), reps=2, seed=10)
        p = tmp_path / "out" / "est.json"
        save_json(p, est)
        data = load_json(p)
        assert data["n"] == 8
        assert len(data["samples"]) == 2

    def test_to_jsonable_numpy(self):
        out = to_jsonable({"a": np.int64(3), "b": np.array([1.5]), "c": (1, 2)})
        json.dumps(out)
        assert out == {"a": 3, "b": [1.5], "c": [1, 2]}

    def test_to_jsonable_numpy_bool(self):
        out = to_jsonable({"yes": np.bool_(True), "no": np.bool_(False)})
        assert out == {"yes": True, "no": False}
        assert isinstance(out["yes"], bool) and isinstance(out["no"], bool)

    def test_to_jsonable_nonfinite_floats_become_null(self):
        out = to_jsonable(
            {
                "nan": float("nan"),
                "inf": np.float64("inf"),
                "arr": np.array([1.5, np.nan, -np.inf]),
            }
        )
        assert out == {"nan": None, "inf": None, "arr": [1.5, None, None]}
        json.dumps(out, allow_nan=False)  # strict standard JSON

    def test_nonfinite_roundtrip(self, tmp_path):
        p = tmp_path / "x.json"
        save_json(p, {"sem": np.float64("nan"), "mean": 2.0})
        assert load_json(p) == {"sem": None, "mean": 2.0}
        # the raw file must not contain the non-standard NaN token
        assert "NaN" not in p.read_text()

    def test_to_jsonable_rejects_exotic(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
