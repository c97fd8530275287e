"""Small argument-validation helpers with consistent error messages.

Hot loops never call these; they guard public API boundaries only, per the
"make it work reliably, then optimise the bottleneck" workflow.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_finite",
    "check_nonnegative",
    "check_fraction",
    "check_index",
    "check_integer",
    "check_limit",
    "check_probability_vector",
    "check_record",
]


def check_integer(name: str, value) -> int:
    """Validate an integral scalar kwarg and return it as plain ``int``.

    Accepts Python ``int``, NumPy integers and integral floats
    (``2.0 -> 2``); rejects booleans (``True`` silently becoming ``1``
    is precisely the hazard) and non-integral values with a
    ``ValueError`` naming the offending argument — the guard against the
    ``int(...)`` coercions on public kwargs that used to truncate
    ``2.9 -> 2`` silently.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_record(value):
    """Validate a driver's ``record`` kwarg and return it as a ``bool``.

    Accepts ``False`` and ``True`` (NumPy booleans too); anything else —
    the retired ``"arrays"`` mode, or ``0.5`` — raises ``ValueError``
    instead of silently recording as ``True``.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(
        f"record must be True or False, got {value!r} "
        "(record=True returns TrajectoryArrays)"
    )


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_positive_finite(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and ``> 0``.

    For rates: ``nan`` would make every clock ``nan`` and ``inf`` every
    duration zero, and neither fails any ``> 0`` comparison loudly.
    """
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def check_limit(name: str, value) -> float:
    """A step/tick/round cap as a float (``None``: no cap, ``inf``).

    NaN raises ``ValueError``: ``t > nan`` is always false, so a NaN cap
    would silently disable the limit.  Infinite and negative caps are
    accepted (never exceeded / exceeded at the first step).  A string, a
    boolean or any other non-real value raises ``TypeError``: ``float``
    would parse ``"50"`` and read ``True`` as a cap of 1.
    """
    if value is None:
        return float("inf")
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(
            f"{name} must be a real number or None, got {type(value).__name__}"
        )
    budget = float(value)
    if math.isnan(budget):
        raise ValueError(f"{name} must not be NaN, got {value!r}")
    return budget


def check_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_fraction(name: str, value, *, inclusive: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` lies in (0, 1) (or [0, 1])."""
    if inclusive:
        ok = 0.0 <= value <= 1.0
        rng = "[0, 1]"
    else:
        ok = 0.0 < value < 1.0
        rng = "(0, 1)"
    if not ok:
        raise ValueError(f"{name} must be in {rng}, got {value!r}")


def check_index(name: str, value, n: int) -> int:
    """Validate a vertex/particle index against size ``n`` and return it as int."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    idx = int(value)
    if idx != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= idx < n:
        raise ValueError(f"{name} must be in [0, {n}), got {idx}")
    return idx


def check_probability_vector(name: str, vec, *, atol: float = 1e-9) -> np.ndarray:
    """Validate that ``vec`` is a probability vector; return it as float array."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-9 * arr.size):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return arr
