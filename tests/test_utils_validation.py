"""Tests for repro.utils.validation and repro.utils.timing."""

import numpy as np
import pytest

from repro.core import ctu_idla, parallel_idla, sequential_idla, uniform_idla
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_index,
    check_limit,
    check_nonnegative,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", bad)


class TestCheckLimit:
    @pytest.mark.parametrize(
        "value,budget",
        [
            (None, float("inf")),
            (50, 50.0),
            (np.int64(50), 50.0),
            (2.5, 2.5),
            (np.float32(2.5), 2.5),
            (float("inf"), float("inf")),
            (-1, -1.0),
        ],
    )
    def test_accepts_real_caps_and_none(self, value, budget):
        assert check_limit("cap", value) == budget

    @pytest.mark.parametrize(
        "bad", ["50", "1e9", b"50", True, False, np.bool_(True), 1j, [50]],
        ids=repr,
    )
    def test_rejects_strings_booleans_and_non_reals(self, bad):
        with pytest.raises(TypeError, match="cap must be a real number or None"):
            check_limit("cap", bad)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="cap must not be NaN"):
            check_limit("cap", float("nan"))


class TestCheckNonnegative:
    def test_accepts_zero(self):
        check_nonnegative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative("x", -1e-9)


class TestCheckFraction:
    def test_open_interval(self):
        check_fraction("p", 0.5)
        with pytest.raises(ValueError):
            check_fraction("p", 0.0)
        with pytest.raises(ValueError):
            check_fraction("p", 1.0)

    def test_inclusive(self):
        check_fraction("p", 0.0, inclusive=True)
        check_fraction("p", 1.0, inclusive=True)
        with pytest.raises(ValueError):
            check_fraction("p", 1.0001, inclusive=True)


class TestCheckIndex:
    def test_valid(self):
        assert check_index("v", 3, 10) == 3
        assert check_index("v", np.int64(0), 5) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_index("v", 10, 10)
        with pytest.raises(ValueError):
            check_index("v", -1, 10)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            check_index("v", 1.5, 10)


class TestSerialDriversRejectFractionalParticles:
    """``num_particles=3.5`` used to run m=3 on the serial oracles while
    the batched drivers raised; every driver now rejects it alike."""

    @pytest.mark.parametrize(
        "driver", [sequential_idla, parallel_idla, uniform_idla, ctu_idla]
    )
    def test_rejects_non_integral(self, driver):
        with pytest.raises(ValueError, match="num_particles must be an integer"):
            driver(cycle_graph(8), seed=0, num_particles=3.5)
        with pytest.raises(ValueError, match="num_particles must be an integer"):
            driver(cycle_graph(8), seed=0, num_particles=True)

    @pytest.mark.parametrize(
        "driver", [sequential_idla, parallel_idla, uniform_idla, ctu_idla]
    )
    def test_accepts_integral_float(self, driver):
        res = driver(cycle_graph(8), seed=0, num_particles=3.0)
        assert res.steps.shape == (3,)

    @pytest.mark.parametrize("batched", [False, True, "auto"])
    def test_every_dispatch_mode_raises(self, batched):
        with pytest.raises(ValueError, match="num_particles must be an integer"):
            estimate_dispersion(
                cycle_graph(8), "sequential", reps=4, batched=batched,
                num_particles=3.5,
            )


class TestCheckProbabilityVector:
    def test_valid(self):
        out = check_probability_vector("pi", [0.25, 0.75])
        assert out.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_probability_vector("pi", [-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            check_probability_vector("pi", [0.3, 0.3])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_probability_vector("pi", [[0.5, 0.5]])


class TestStopwatch:
    def test_measures_nonnegative(self):
        with Stopwatch() as sw:
            sum(range(100))
        assert sw.elapsed >= 0.0

    def test_running_state(self):
        sw = Stopwatch()
        assert not sw.running()
        with sw:
            assert sw.running()
        assert not sw.running()
