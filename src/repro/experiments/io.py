"""JSON persistence for experiment outputs (NumPy-aware)."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from repro.core.results import TrajectoryArrays

__all__ = ["to_jsonable", "save_json", "load_json"]


def to_jsonable(obj):
    """Recursively convert dataclasses / NumPy values to JSON-safe types.

    The output is *strict* standard JSON: NumPy scalars (including
    ``np.bool_``) map to their Python equivalents, and non-finite floats
    (``nan``, ``±inf``) — which ``json.dumps`` would otherwise emit as the
    non-standard ``NaN`` / ``Infinity`` tokens — serialise as ``null``.
    That lossy mapping is the documented round-trip contract with
    :func:`load_json`: a reader sees ``None`` wherever a measurement was
    undefined.  Recorded trajectories
    (:class:`~repro.core.results.TrajectoryArrays`) serialise as one
    list of vertices per particle.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        # tolist() may surface non-finite floats; route through the
        # scalar branches below.
        return to_jsonable(obj.tolist())
    if isinstance(obj, TrajectoryArrays):
        return obj.to_lists()
    if isinstance(obj, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, str) or obj is None:
        return obj
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def save_json(path, obj) -> None:
    """Write ``obj`` (after :func:`to_jsonable`) to ``path``.

    ``allow_nan=False`` backstops the strict-JSON guarantee: if a
    non-finite float ever slipped past :func:`to_jsonable`, this raises
    instead of silently writing a file ``json.load`` peers would reject.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(
        json.dumps(to_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    )


def load_json(path):
    """Read a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())
