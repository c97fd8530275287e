"""Adaptive replication: anytime statistics, Precision targets, determinism.

The contract under test: a ``precision=``-driven estimate that consumed
``N`` repetitions — whatever round split the stopping rule produced — is
bit-identical to a fixed ``reps=N`` run, across serial, batched and
``n_jobs=2`` dispatch, including ``record=True``.  Rounds only move the
``SeedSequence.spawn`` boundary, which the child streams cannot see.
"""

import numpy as np
import pytest

import repro.core as core_mod
from repro.core.anytime import (
    AdaptiveInfo,
    AnytimeKS,
    Precision,
    TauAccumulator,
    anytime_halfwidth,
    ks_statistic,
)
from repro.experiments import estimate_dispersion, sweep_dispersion
from repro.experiments.fanout import plan_shards
from repro.graphs import cycle_graph

# Seed chosen so the first few tau samples are pairwise distinct for both
# processes: a zero-variance early round would (correctly) stop the
# confidence sequence at width 0 and defeat the "unreachable target" trick.
PARENT_SEED = 20260809
GRAPH = cycle_graph(24)

# (initial, growth) pairs chosen to force distinct round splits for the
# same 16-rep total: 16 = 1+1+2+4+8 = 2+4+6+4 = 5+5+6 = 16.
ROUND_SPLITS = [(1, 2.0), (2, 3.0), (5, 2.0), (16, 2.0)]

DISPATCH = [
    {"batched": False},
    {"batched": "auto"},
    {"batched": True},
    {"n_jobs": 2},
]


def _unreachable(initial, growth, total):
    """Precision no sample size can meet: consumes exactly ``total`` reps."""
    return Precision(
        ci_rel=1e-12, initial=initial, growth=growth, max_reps=total
    )


# ----------------------------------------------------------------------
# the determinism contract (satellite: adaptive determinism)


@pytest.mark.parametrize("process", ["parallel", "uniform"])
@pytest.mark.parametrize("initial,growth", ROUND_SPLITS)
@pytest.mark.parametrize("mode", DISPATCH, ids=lambda m: str(sorted(m.items())))
def test_topup_bit_identical_to_fixed_reps(process, initial, growth, mode):
    total = 16
    adaptive = estimate_dispersion(
        GRAPH,
        process,
        precision=_unreachable(initial, growth, total),
        seed=PARENT_SEED,
        **mode,
    )
    info = adaptive.adaptive
    assert info is not None
    assert info.reps == total == sum(info.rounds)
    if initial < total:
        assert len(info.rounds) > 1  # the split really exercised a top-up
    fixed = estimate_dispersion(
        GRAPH, process, reps=total, seed=PARENT_SEED, batched=False
    )
    assert np.array_equal(adaptive.samples, fixed.samples)
    assert np.array_equal(adaptive.total_samples, fixed.total_samples)


@pytest.mark.parametrize("mode", DISPATCH, ids=lambda m: str(sorted(m.items())))
def test_topup_recording_bit_identical(mode):
    total = 12
    adaptive = estimate_dispersion(
        GRAPH,
        "parallel",
        precision=_unreachable(4, 2.0, total),
        seed=PARENT_SEED,
        record=True,
        **mode,
    )
    fixed = estimate_dispersion(
        GRAPH, "parallel", reps=total, seed=PARENT_SEED, batched=False, record=True
    )
    assert len(adaptive.adaptive.rounds) > 1
    assert np.array_equal(adaptive.samples, fixed.samples)
    assert adaptive.trajectories == fixed.trajectories


def test_different_round_splits_agree_with_each_other():
    runs = [
        estimate_dispersion(
            GRAPH,
            "parallel",
            precision=_unreachable(initial, growth, 16),
            seed=PARENT_SEED,
        )
        for initial, growth in ROUND_SPLITS
    ]
    splits = {r.adaptive.rounds for r in runs}
    assert len(splits) > 1  # genuinely different round boundaries
    for r in runs[1:]:
        assert np.array_equal(runs[0].samples, r.samples)


# ----------------------------------------------------------------------
# stopping behaviour and provenance


def test_stops_on_target_with_provenance():
    est = estimate_dispersion(
        GRAPH,
        "parallel",
        precision=Precision(ci_rel=0.2, initial=8, max_reps=2048),
        seed=PARENT_SEED,
    )
    info = est.adaptive
    assert info.stopped_by == "target"
    assert info.met
    assert info.halfwidth <= info.target_halfwidth
    assert info.reps == sum(info.rounds) == len(est.samples)
    assert info.ci_low < info.mean < info.ci_high
    assert info.mean == pytest.approx(est.dispersion.mean)
    assert "adaptive:" in est.format()


def test_stops_on_max_reps_when_target_unreachable():
    est = estimate_dispersion(
        GRAPH,
        "parallel",
        precision=_unreachable(4, 2.0, 16),
        seed=PARENT_SEED,
    )
    assert est.adaptive.stopped_by == "max_reps"
    assert not est.adaptive.met
    assert est.adaptive.reps == 16


def test_stops_on_wall_clock_budget():
    est = estimate_dispersion(
        GRAPH,
        "parallel",
        precision=Precision(ci_rel=1e-12, initial=4, max_seconds=0.0),
        seed=PARENT_SEED,
    )
    # max_seconds=0 trips right after the first round, deterministically
    assert est.adaptive.stopped_by == "max_seconds"
    assert est.adaptive.rounds == (4,)


def test_ci_abs_binds_too():
    est = estimate_dispersion(
        GRAPH,
        "parallel",
        precision=Precision(ci_abs=1e9, initial=4),
        seed=PARENT_SEED,
    )
    assert est.adaptive.stopped_by == "target"
    assert est.adaptive.rounds == (4,)


def test_fixed_reps_estimate_has_no_adaptive_info():
    est = estimate_dispersion(GRAPH, "parallel", reps=4, seed=PARENT_SEED)
    assert est.adaptive is None


def test_reps_and_precision_are_mutually_exclusive():
    with pytest.raises(TypeError, match="not both"):
        estimate_dispersion(
            GRAPH, "parallel", reps=8, precision=Precision(ci_rel=0.1)
        )


def test_sweep_accepts_precision():
    res = sweep_dispersion(
        "complete",
        [16],
        processes=("parallel",),
        precision=Precision(ci_rel=0.5, initial=2, max_reps=64),
        seed=3,
    )
    (point,) = res.points
    assert point.estimate.adaptive is not None
    assert point.estimate.dispersion.n == point.estimate.adaptive.reps


# ----------------------------------------------------------------------
# Precision validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"ci_rel": -0.1},
        {"ci_abs": 0.0},
        {"ci_rel": 0.1, "level": 1.0},
        {"ci_rel": 0.1, "initial": 0},
        {"ci_rel": 0.1, "initial": 32, "max_reps": 16},
        {"ci_rel": 0.1, "max_seconds": -1.0},
        {"ci_rel": 0.1, "growth": 1.0},
        # non-finite targets used to be accepted and run to max_reps
        {"ci_rel": float("nan")},
        {"ci_abs": float("nan")},
        {"ci_rel": float("inf")},
        {"ci_rel": 0.1, "growth": float("nan")},
        {"ci_rel": 0.1, "growth": float("inf")},
        {"ci_rel": 0.1, "max_seconds": float("nan")},
        # non-integral counts used to fail later with a bare TypeError
        {"ci_rel": 0.1, "initial": 2.5},
        {"ci_rel": 0.1, "max_reps": 100.5},
        {"ci_rel": 0.1, "initial": True},
    ],
)
def test_precision_validation(kwargs):
    with pytest.raises(ValueError):
        Precision(**kwargs)


def test_precision_counts_are_plain_ints():
    p = Precision(ci_rel=0.1, initial=np.int64(4), max_reps=8.0)
    assert (p.initial, p.max_reps) == (4, 8)
    assert type(p.initial) is int and type(p.max_reps) is int


def test_precision_target_halfwidth_takes_the_tighter_bound():
    p = Precision(ci_rel=0.1, ci_abs=5.0)
    assert p.target_halfwidth(10.0) == pytest.approx(1.0)  # rel binds
    assert p.target_halfwidth(1000.0) == pytest.approx(5.0)  # abs binds


# ----------------------------------------------------------------------
# TauAccumulator and the confidence sequence


def test_accumulator_matches_numpy_moments():
    rng = np.random.default_rng(7)
    chunks = [rng.exponential(100.0, size=s) for s in (1, 7, 64, 128)]
    acc = TauAccumulator()
    for c in chunks:
        acc.add(c)
    x = np.concatenate(chunks)
    assert acc.count == x.size
    assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
    assert acc.variance == pytest.approx(x.var(ddof=1), rel=1e-12)
    assert acc.min == x.min() and acc.max == x.max()
    # under the cap the reservoir is the full sample, insertion-ordered
    assert np.array_equal(acc.reservoir, x)
    assert acc.quantile(0.5) == pytest.approx(np.median(x))


def test_accumulator_is_chunking_invariant():
    x = np.random.default_rng(11).normal(50.0, 3.0, size=200)
    one = TauAccumulator()
    one.add(x)
    many = TauAccumulator()
    for i in range(0, 200, 13):
        many.add(x[i : i + 13])
    assert many.count == one.count
    assert many.mean == pytest.approx(one.mean, rel=1e-12)
    assert many.variance == pytest.approx(one.variance, rel=1e-12)


def test_reservoir_stays_bounded():
    acc = TauAccumulator(reservoir=32)
    acc.add(np.arange(1000, dtype=np.float64))
    res = acc.reservoir
    assert res.size == 32
    assert set(res) <= set(range(1000))


def test_anytime_halfwidth_properties():
    assert anytime_halfwidth(0, 0.0) == np.inf
    assert anytime_halfwidth(1, 0.0) == np.inf
    # wider than the fixed-n CLT interval (the price of optional stopping)
    for t in (8, 64, 512, 4096):
        hw = anytime_halfwidth(t, 1.0)
        assert hw > 1.96 / np.sqrt(t)
    # shrinks in t, scales with sigma
    assert anytime_halfwidth(1024, 1.0) < anytime_halfwidth(128, 1.0)
    assert anytime_halfwidth(64, 4.0) == pytest.approx(
        2.0 * anytime_halfwidth(64, 1.0)
    )
    with pytest.raises(ValueError):
        anytime_halfwidth(8, 1.0, level=0.0)
    with pytest.raises(ValueError):
        anytime_halfwidth(8, -1.0)


def test_adaptive_info_format_mentions_everything():
    info = AdaptiveInfo(
        target=Precision(ci_rel=0.1),
        reps=48,
        rounds=(16, 32),
        mean=100.0,
        halfwidth=9.0,
        target_halfwidth=10.0,
        met=True,
        stopped_by="target",
        elapsed_s=0.5,
    )
    s = info.format()
    assert "48 reps" in s and "2 round(s)" in s and "target" in s


# ----------------------------------------------------------------------
# validated driver-kwargs surface (satellite: api_redesign)


def test_unknown_kwarg_raises_typeerror_naming_options():
    with pytest.raises(TypeError) as exc:
        estimate_dispersion(GRAPH, "parallel", reps=2, seed=0, bogus=1)
    msg = str(exc.value)
    assert "bogus" in msg and "'parallel'" in msg
    # the accepted surface is spelled out, derived from the registry
    for opt in ("lazy", "tie_break", "tail_threshold"):
        assert opt in msg


def test_unknown_kwarg_rejected_for_every_dispatch_mode():
    for mode in ({"batched": False}, {"batched": True}, {"n_jobs": 2}):
        with pytest.raises(TypeError, match="bogus"):
            estimate_dispersion(GRAPH, "parallel", reps=4, seed=0, bogus=1, **mode)


def test_valid_kwargs_still_flow_through():
    est = estimate_dispersion(
        GRAPH, "parallel", reps=2, seed=0, lazy=True, tail_threshold=0
    )
    assert est.dispersion.n == 2


# ----------------------------------------------------------------------
# cost-weighted shard planning


def test_plan_shards_max_shard_caps_sizes():
    shards = plan_shards(10, 2, max_shard=3)
    assert shards == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert all(stop - start <= 3 for start, stop in shards)
    # contiguity and coverage are preserved
    assert shards[0][0] == 0 and shards[-1][1] == 10
    assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))


def test_plan_shards_max_shard_noop_when_loose():
    assert plan_shards(10, 4, max_shard=100) == plan_shards(10, 4)


def test_plan_shards_max_shard_validation():
    with pytest.raises(ValueError, match="max_shard"):
        plan_shards(4, 2, max_shard=0)


def test_plan_shards_max_shard_one_rep_shards():
    shards = plan_shards(5, 2, max_shard=1)
    assert shards == [(i, i + 1) for i in range(5)]


# ----------------------------------------------------------------------
# the anytime-valid two-sample KS gate
# ----------------------------------------------------------------------
class TestAnytimeKS:
    def test_ks_statistic_matches_definition(self):
        x = [1.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0]
        assert ks_statistic(x, y) == 0.0
        assert ks_statistic([0.0] * 4, [1.0] * 4) == 1.0
        with pytest.raises(ValueError, match="non-empty"):
            ks_statistic([], [1.0])

    def test_truthful_backend_survives_many_checkpoints(self):
        rng = np.random.default_rng(1)
        gate = AnytimeKS(alpha=0.05)
        for _ in range(50):
            v = gate.update(rng.exponential(5.0, 40), rng.exponential(5.0, 40))
            assert not v.reject, (v.statistic, v.threshold)
        assert v.checks == 50 and v.margin > 0

    def test_shifted_distribution_is_eventually_rejected(self):
        rng = np.random.default_rng(2)
        gate = AnytimeKS(alpha=0.05)
        for _ in range(60):
            v = gate.update(rng.exponential(5.0, 200), rng.exponential(9.0, 200))
            if v.reject:
                break
        assert v.reject and v.margin < 0

    def test_rejection_is_sticky(self):
        gate = AnytimeKS(alpha=0.2)
        first = None
        for _ in range(40):
            first = gate.update(np.zeros(50), np.ones(50))
            if first.reject:
                break
        assert first is not None and first.reject
        again = gate.update(np.zeros(5), np.zeros(5))
        assert again is first  # the rejecting verdict is frozen

    def test_lanes_may_progress_unevenly(self):
        rng = np.random.default_rng(3)
        gate = AnytimeKS()
        gate.update(rng.normal(size=30), rng.normal(size=5))
        v = gate.update([], rng.normal(size=25))
        assert v.n_x == 30 and v.n_y == 30

    def test_first_checkpoint_requires_both_lanes(self):
        gate = AnytimeKS()
        with pytest.raises(ValueError, match="both lanes"):
            gate.update([1.0, 2.0], [])

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            AnytimeKS(alpha=0.0)

    def test_module_reference_is_exported(self):
        # docs and third-party gates import these from the package root
        assert core_mod.AnytimeKS is AnytimeKS
