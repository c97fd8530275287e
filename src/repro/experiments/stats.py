"""Summary statistics for Monte-Carlo samples.

Dispersion times are heavy-tailed on several families (Proposition 2.1
proves non-concentration), so alongside the mean ± CI we always report
median and extreme quantiles, and provide a bootstrap CI that does not
assume normality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["SummaryStats", "summarize", "bootstrap_ci", "empirical_quantile"]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    sem: float
    ci95_low: float
    ci95_high: float
    median: float
    q05: float
    q95: float
    min: float
    max: float

    @property
    def halfwidth(self) -> float:
        """Fixed-``n`` 95% half-width (1.96·SEM) — half of ci95_high−ci95_low.

        Only valid at a pre-committed sample size; estimates stopped by a
        :class:`repro.core.anytime.Precision` target report the (wider)
        anytime half-width on ``estimate.adaptive`` instead.
        """
        return 1.96 * self.sem

    def format(self, unit: str = "") -> str:
        """Compact human-readable rendering."""
        u = f" {unit}" if unit else ""
        return (
            f"{self.mean:.4g} ± {self.halfwidth:.2g}{u} "
            f"(median {self.median:.4g}, n={self.n})"
        )


def summarize(samples) -> SummaryStats:
    """Compute :class:`SummaryStats`; the CI is mean ± 1.96·SEM.

    >>> s = summarize([1.0, 2.0, 3.0])
    >>> s.mean, s.median
    (2.0, 2.0)
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    mean = float(x.mean())
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    sem = std / np.sqrt(x.size) if x.size > 1 else 0.0
    s = np.sort(x)
    if np.isnan(s[-1]):  # NaNs sort last; numpy's median/quantile give NaN
        median = q05 = q95 = float("nan")
    else:
        h = s.size // 2
        median = float(s[h]) if s.size % 2 else (float(s[h - 1]) + float(s[h])) / 2
        q05 = _sorted_quantile(s, 0.05)
        q95 = _sorted_quantile(s, 0.95)
    return SummaryStats(
        n=int(x.size),
        mean=mean,
        std=std,
        sem=float(sem),
        ci95_low=mean - 1.96 * sem,
        ci95_high=mean + 1.96 * sem,
        median=median,
        q05=q05,
        q95=q95,
        min=float(x.min()),
        max=float(x.max()),
    )


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """``np.quantile(s, q)`` (method ``"linear"``) read off the sorted,
    NaN-free ``s``, operation for operation: the virtual index
    ``(n - 1) q``, both neighbours the last element past ``n - 2`` (and
    the weight then taken against index ``-1``), and ``_lerp``'s two
    branches split at ``t >= 0.5``.  Bit-identical to numpy's, pinned in
    ``tests/test_experiments.py``; one shared sort replaces numpy's
    per-call partitions.
    """
    n = s.size
    v = (n - 1) * q
    if v >= n - 1:
        i, a, b = -1, float(s[-1]), float(s[-1])
    else:
        i = math.floor(v)
        a, b = float(s[i]), float(s[i + 1])
    t = v - i
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def bootstrap_ci(
    samples, stat=np.mean, *, level: float = 0.95, resamples: int = 2000, seed=None
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for an arbitrary statistic."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    rng = as_generator(seed)
    idx = rng.integers(0, x.size, size=(resamples, x.size))
    if stat is np.mean:
        # vectorised fast path for the default statistic: one reduction
        # over the resample axis instead of a Python-level loop over
        # `resamples` rows.  Bit-identical to np.apply_along_axis — both
        # reduce each contiguous row with NumPy's pairwise summation
        # (pinned by tests/test_streaming_buffers.py).
        boots = x[idx].mean(axis=1)
    else:
        boots = np.apply_along_axis(stat, 1, x[idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(boots, alpha)), float(np.quantile(boots, 1.0 - alpha))


def empirical_quantile(samples, q: float) -> float:
    """Plain empirical quantile (wrapper kept for API symmetry)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))
