"""Continuous-time walk helpers (Poissonisation).

The paper's continuous-time processes (§4.3) attach i.i.d. ``Exp(1)``
holding times to discrete jumps.  Two utilities support that reduction:

* :func:`poissonise_steps` — total elapsed time of a ``k``-step walk is
  ``Gamma(k, 1)``; sampling it directly avoids simulating every clock ring.
* :func:`exponential_race` — given ``k`` rate-1 clocks, the time until the
  next ring is ``Exp(k)`` and the ringer is uniform — the Gillespie step
  behind CTU-IDLA, whose driver draws the ringers as a jump chain and
  the times per level (:func:`repro.core.continuous.level_clocks`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_finite

__all__ = ["poissonise_steps", "exponential_race"]


def poissonise_steps(step_counts, seed=None, *, rate: float = 1.0) -> np.ndarray:
    """Continuous durations for walks with the given discrete step counts.

    For each count ``k``, draws ``Gamma(k, 1/rate)`` — the sum of ``k``
    independent ``Exp(rate)`` holding times.  Zero counts map to duration 0.

    >>> d = poissonise_steps([0, 5], seed=1)
    >>> float(d[0]), bool(d[1] > 0)
    (0.0, True)
    """
    rng = as_generator(seed)
    counts = np.asarray(step_counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("step counts must be >= 0")
    check_positive_finite("rate", rate)
    out = np.zeros(counts.shape, dtype=np.float64)
    pos = counts > 0
    out[pos] = rng.gamma(shape=counts[pos].astype(np.float64), scale=1.0 / rate)
    return out


def exponential_race(k: int, rng, *, rate: float = 1.0) -> tuple[float, int]:
    """One Gillespie step for ``k`` rate-``rate`` exponential clocks.

    Returns ``(dt, winner)``: the waiting time ``Exp(k · rate)`` and the
    index ``winner ∈ [0, k)`` of the clock that rang (uniform, independent
    of ``dt`` by the superposition property).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = as_generator(rng)
    dt = rng.exponential(1.0 / (k * rate))
    winner = int(rng.integers(k))
    return dt, winner
