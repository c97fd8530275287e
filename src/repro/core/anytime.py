"""Streaming τ statistics and anytime confidence sequences.

Fixed-``reps`` Monte Carlo wastes repetitions on cheap graphs and
under-samples expensive ones: the CLT interval of
:mod:`repro.experiments.stats` is only valid at the *pre-committed*
sample size, so a runner cannot peek at it after every round and stop
when it looks tight — that optional stopping inflates the error rate far
above ``1 - level``.  This module provides the two pieces the adaptive
runner needs to stop *legitimately*:

* :class:`TauAccumulator` — ingests τ samples incrementally
  (count / mean / M2 by Welford–Chan merging, plus a bounded
  deterministic reservoir for quantiles and bootstrap), so rounds of
  repetitions stream in without ever re-reducing the full history;
* :func:`anytime_halfwidth` — a *confidence sequence*: a half-width
  that is simultaneously valid at every sample size, so "check after
  each round, stop when narrow enough" preserves the coverage level.

:class:`Precision` is the typed stopping target the request surface of
:func:`repro.experiments.runner.estimate_dispersion` accepts, and
:class:`AdaptiveInfo` the provenance record the resulting estimate
carries (rounds consumed, achieved width, what stopped the run).

:class:`AnytimeKS` applies the same anytime idea to whole
distributions: a two-sample KS gate that may be checked after every
batch of τ samples without inflating its false-rejection rate.

The confidence sequence is the Robbins normal-mixture boundary in its
asymptotic (estimated-variance) form — see Howard, Ramdas, McAuliffe &
Sekhon, "Time-uniform, nonparametric, nonasymptotic confidence
sequences", and Waudby-Smith et al.'s asymptotic confidence sequences:

    hw(t) = σ̂_t · sqrt( (t·ρ² + 1) / (t²·ρ²) · 2·log( sqrt(t·ρ² + 1) / α ) )

Any *fixed* ρ > 0 gives a valid sequence; ρ only tunes where on the
``t`` axis the boundary is tightest.  We pick ρ² so the boundary is
near-optimal around a nominal sample size ``t_opt`` (the standard
``ρ² = (-2·log α + log(-2·log α + 1)) / t_opt`` choice); stopping
decisions therefore stay valid no matter how many rounds peek at the
width, which is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_integer

__all__ = [
    "Precision",
    "TauAccumulator",
    "AdaptiveInfo",
    "anytime_halfwidth",
    "AnytimeKS",
    "KSVerdict",
    "ks_statistic",
]

#: Nominal sample size the default boundary is tuned to be tightest
#: near.  Purely a tightness knob — validity holds for every t at any
#: fixed value — chosen in the middle of the rep counts the Table-1
#: experiments actually use.
_DEFAULT_T_OPT = 256

#: Default capacity of the accumulator's quantile/bootstrap reservoir.
_DEFAULT_RESERVOIR = 4096


def _rho2(alpha: float, t_opt: int) -> float:
    """Mixture variance ρ² making the boundary tightest near ``t_opt``."""
    a = -2.0 * math.log(alpha)
    return (a + math.log1p(a)) / t_opt


def anytime_halfwidth(
    count: int,
    variance: float,
    *,
    level: float = 0.95,
    t_opt: int = _DEFAULT_T_OPT,
) -> float:
    """Half-width of the anytime confidence sequence after ``count`` samples.

    Unlike ``1.96·SEM``, the returned width is simultaneously valid at
    *every* ``count`` (asymptotically, with estimated ``variance``), so a
    loop may evaluate it after each round and stop the moment it is
    small enough without inflating the miscoverage beyond ``1 - level``.
    It is accordingly wider than the fixed-``n`` CLT interval — that gap
    is the statistical price of optional stopping.

    Returns ``inf`` until two samples exist (no variance estimate yet).

    Examples
    --------
    >>> anytime_halfwidth(1, 0.0) == float("inf")
    True
    >>> hw256 = anytime_halfwidth(256, 1.0)
    >>> hw1024 = anytime_halfwidth(1024, 1.0)
    >>> 0 < hw1024 < hw256
    True
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    if t_opt < 1:
        raise ValueError(f"t_opt must be >= 1, got {t_opt}")
    if count < 2 or not math.isfinite(variance):
        return math.inf
    if variance < 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    alpha = 1.0 - level
    rho2 = _rho2(alpha, t_opt)
    t = float(count)
    trho = t * rho2
    radius = (trho + 1.0) / (t * t * rho2) * 2.0 * math.log(
        math.sqrt(trho + 1.0) / alpha
    )
    return math.sqrt(variance * radius)


@dataclass(frozen=True)
class Precision:
    """Typed stopping target for adaptive replication.

    At least one of ``ci_rel`` / ``ci_abs`` must be set; when both are,
    the *smaller* resulting half-width binds.  The adaptive runner keeps
    adding rounds of repetitions until the anytime half-width around the
    running mean drops to the target, or a budget trips.

    Parameters
    ----------
    ci_rel:
        Target half-width as a fraction of the running mean
        (``0.02`` = ±2% on ``E[τ]``).
    ci_abs:
        Target half-width in absolute τ units.
    level:
        Confidence level of the anytime sequence (default 0.95).
    initial:
        Repetitions in the first round (default 16).
    max_reps:
        Hard repetition budget (default 4096); the run stops there even
        if the target is still out of reach.
    max_seconds:
        Optional wall-clock budget, checked between rounds.
    growth:
        Cap on per-round growth: round ``k+1`` may at most multiply the
        consumed repetition count by this factor (default 2.0).  The
        width-based predictor usually asks for less; the cap bounds the
        overshoot when an early variance estimate is wildly off.
    """

    ci_rel: float | None = None
    ci_abs: float | None = None
    level: float = 0.95
    initial: int = 16
    max_reps: int = 4096
    max_seconds: float | None = None
    growth: float = 2.0

    def __post_init__(self):
        if self.ci_rel is None and self.ci_abs is None:
            raise ValueError("Precision needs at least one of ci_rel= or ci_abs=")
        for name in ("ci_rel", "ci_abs"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0,1), got {self.level}")
        # frozen: store the validated counts as plain ints
        object.__setattr__(self, "initial", check_integer("initial", self.initial))
        object.__setattr__(self, "max_reps", check_integer("max_reps", self.max_reps))
        if self.initial < 1:
            raise ValueError(f"initial must be >= 1, got {self.initial}")
        if self.max_reps < self.initial:
            raise ValueError(
                f"max_reps ({self.max_reps}) must be >= initial ({self.initial})"
            )
        if self.max_seconds is not None and not self.max_seconds >= 0.0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")
        if not (math.isfinite(self.growth) and self.growth > 1.0):
            raise ValueError(f"growth must be finite and > 1, got {self.growth}")

    def target_halfwidth(self, mean: float) -> float:
        """Binding target half-width given the current running mean."""
        candidates = []
        if self.ci_rel is not None:
            candidates.append(self.ci_rel * abs(mean))
        if self.ci_abs is not None:
            candidates.append(self.ci_abs)
        return min(candidates)


class TauAccumulator:
    """Streaming moments + bounded reservoir over arriving τ samples.

    Rounds of samples merge in O(round size): the running mean and M2
    update by Chan's parallel variance formula (a batched Welford), so
    the stopping check never re-reduces the full history.  A bounded
    reservoir (Vitter's algorithm R, driven by an internal fixed-seed
    generator so it is deterministic in the *insertion order* — which is
    repetition order in every dispatch mode) keeps a uniform subsample
    for quantiles and bootstrap at any point of the stream.

    Examples
    --------
    >>> acc = TauAccumulator()
    >>> acc.add([1.0, 2.0, 3.0]); acc.add([4.0])
    >>> acc.count, acc.mean
    (4, 2.5)
    >>> round(acc.variance, 10) == round(np.var([1, 2, 3, 4], ddof=1), 10)
    True
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max", "_cap", "_res", "_rng")

    def __init__(self, *, reservoir: int = _DEFAULT_RESERVOIR):
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._cap = reservoir
        self._res: list[float] = []
        self._rng = np.random.default_rng(0xA17)

    def add(self, samples) -> None:
        """Merge a round of samples (any 1-D array-like, may be empty)."""
        x = np.asarray(samples, dtype=np.float64).reshape(-1)
        if x.size == 0:
            return
        nb = int(x.size)
        mb = float(x.mean())
        m2b = float(((x - mb) ** 2).sum())
        na = self._count
        total = na + nb
        delta = mb - self._mean
        self._mean += delta * nb / total
        self._m2 += m2b + delta * delta * na * nb / total
        self._count = total
        self._min = min(self._min, float(x.min()))
        self._max = max(self._max, float(x.max()))
        res, cap = self._res, self._cap
        for k in range(nb):
            seen = na + k  # global index of this sample in the stream
            if len(res) < cap:
                res.append(float(x[k]))
            else:
                j = int(self._rng.integers(0, seen + 1))
                if j < cap:
                    res[j] = float(x[k])

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 until two samples exist)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def reservoir(self) -> np.ndarray:
        """The retained uniform subsample (all samples while under cap)."""
        return np.asarray(self._res, dtype=np.float64)

    def halfwidth(self, level: float = 0.95, *, t_opt: int = _DEFAULT_T_OPT) -> float:
        """Current anytime confidence-sequence half-width around the mean."""
        return anytime_halfwidth(self._count, self.variance, level=level, t_opt=t_opt)

    def quantile(self, q: float) -> float:
        """Empirical quantile over the reservoir subsample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {q}")
        if not self._res:
            raise ValueError("no samples accumulated yet")
        return float(np.quantile(self.reservoir, q))


@dataclass(frozen=True)
class AdaptiveInfo:
    """Provenance of one adaptive (``precision=``-driven) estimate.

    ``rounds`` lists the repetition count of every round in execution
    order (``sum(rounds) == reps``); ``halfwidth`` is the anytime
    confidence-sequence half-width at stop and ``target_halfwidth`` the
    width the :class:`Precision` target resolved to against the final
    mean.  ``stopped_by`` is ``"target"``, ``"max_reps"`` or
    ``"max_seconds"``; ``met`` is ``halfwidth <= target_halfwidth``.
    """

    target: Precision
    reps: int
    rounds: tuple[int, ...]
    mean: float
    halfwidth: float
    target_halfwidth: float
    met: bool
    stopped_by: str
    elapsed_s: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.halfwidth

    def format(self) -> str:
        return (
            f"{self.reps} reps in {len(self.rounds)} round(s) "
            f"-> ±{self.halfwidth:.3g} (target ±{self.target_halfwidth:.3g}, "
            f"{'met' if self.met else 'not met'}, stopped by {self.stopped_by})"
        )


# ----------------------------------------------------------------------
# anytime-valid two-sample KS gate
# ----------------------------------------------------------------------
# A distribution-level equivalence check for τ samples: a driver that
# cannot replay the serial oracle's bitstream (or an exact Markov oracle
# compared against simulation) is gated on its samples being
# statistically indistinguishable from the reference instead.  The test
# is a two-sample Kolmogorov–Smirnov statistic against a time-uniform
# Dvoretzky–Kiefer–Wolfowitz envelope, with the error budget union-
# bounded over checkpoints (check ``k`` spends ``alpha / (k (k+1))``,
# which sums to ``alpha``): under equal distributions both empirical CDFs
# stay inside their envelopes, so the caller may check after every batch
# and stop whenever it likes.  Conservative, but assumption-free and safe
# under optional stopping.  Feeding it visibly different distributions
# doubles as a power check.


def ks_statistic(x, y) -> float:
    """Two-sample KS statistic ``sup_t |F_x(t) - F_y(t)|``.

    Both samples may contain ties/duplicates (tau samples are integers
    for the discrete processes); the statistic is evaluated over the
    pooled support, which is exact for step CDFs.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise ValueError("ks_statistic needs non-empty samples on both sides")
    support = np.concatenate([x, y])
    fx = np.searchsorted(x, support, side="right") / x.size
    fy = np.searchsorted(y, support, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


@dataclass(frozen=True)
class KSVerdict:
    """Outcome of one anytime-KS checkpoint."""

    statistic: float  #: two-sample KS distance at this checkpoint
    threshold: float  #: time-uniform rejection envelope at this checkpoint
    n_x: int  #: backend-lane sample count so far
    n_y: int  #: oracle-lane sample count so far
    checks: int  #: checkpoints consumed so far (1-based)
    reject: bool  #: True → the distributions are provably different

    @property
    def margin(self) -> float:
        """``threshold - statistic``; negative exactly when rejecting."""
        return self.threshold - self.statistic


class AnytimeKS:
    """Streaming anytime-valid two-sample KS gate.

    Parameters
    ----------
    alpha:
        Total false-rejection budget over the *entire* (unbounded)
        sequence of checkpoints.  A truthful backend survives all
        checks with probability at least ``1 - alpha``.
    """

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self._x: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._checks = 0
        self._rejected: KSVerdict | None = None

    @property
    def n_x(self) -> int:
        return sum(a.size for a in self._x)

    @property
    def n_y(self) -> int:
        return sum(a.size for a in self._y)

    def _envelope(self, n: int, alpha_k: float) -> float:
        # Two-sided DKW with half the checkpoint budget per lane:
        # sup |F_hat - F| <= sqrt(ln(4 / alpha_k) / (2 n)).
        return math.sqrt(math.log(4.0 / alpha_k) / (2.0 * n))

    def update(self, backend_taus, oracle_taus) -> KSVerdict:
        """Absorb one batch per lane and run a checkpoint.

        Either batch may be empty (the lanes need not stay in lock
        step), but both lanes must be non-empty overall before the
        first checkpoint.  A rejection is sticky: once the gate
        rejects, every later verdict repeats the rejection.
        """
        if self._rejected is not None:
            return self._rejected
        bx = np.asarray(backend_taus, dtype=np.float64).ravel()
        by = np.asarray(oracle_taus, dtype=np.float64).ravel()
        if bx.size:
            self._x.append(bx)
        if by.size:
            self._y.append(by)
        n_x, n_y = self.n_x, self.n_y
        if n_x == 0 or n_y == 0:
            raise ValueError(
                "AnytimeKS.update: both lanes need at least one sample "
                "before the first checkpoint"
            )
        self._checks += 1
        k = self._checks
        alpha_k = self.alpha / (k * (k + 1))
        stat = ks_statistic(np.concatenate(self._x), np.concatenate(self._y))
        thr = self._envelope(n_x, alpha_k) + self._envelope(n_y, alpha_k)
        verdict = KSVerdict(
            statistic=stat,
            threshold=thr,
            n_x=n_x,
            n_y=n_y,
            checks=k,
            reject=stat > thr,
        )
        if verdict.reject:
            self._rejected = verdict
        return verdict
