"""Origin-specification helper shared by the process drivers.

The classic processes start every particle at one fixed origin; §6.2 of
the paper suggests studying uniformly random origins (cf. the
uniform-starting-points IDLA of Duminil-Copin et al. cited in §1.3).
Drivers accept:

* an ``int`` — all particles start there (classic);
* ``"uniform"`` — i.i.d. uniform random start per particle;
* a sequence of ``m`` vertex ids — explicit per-particle starts (each an
  integer or an integral float; booleans and fractions are rejected).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph
from repro.utils.validation import check_index, check_integer

__all__ = ["resolve_origins"]


def resolve_origins(g: Graph, origin, num_particles: int, rng) -> np.ndarray:
    """Normalise an origin spec into an ``(m,)`` array of start vertices."""
    n = g.n
    if isinstance(origin, str):
        if origin != "uniform":
            raise ValueError(f"origin string must be 'uniform', got {origin!r}")
        return rng.integers(0, n, size=num_particles, dtype=np.int64)
    if np.isscalar(origin) or isinstance(origin, (int, np.integer)):
        v = check_index("origin", origin, n)
        return np.full(num_particles, v, dtype=np.int64)
    if isinstance(origin, np.ndarray) and origin.dtype.kind in "iu":
        arr = origin.astype(np.int64)
    else:  # entry by entry: 5.5 or True must not become a vertex id
        arr = np.array([check_integer("origin", v) for v in origin], dtype=np.int64)
    if arr.shape != (num_particles,):
        raise ValueError(
            f"origins array must have length {num_particles}, got {arr.shape}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("origins contain out-of-range vertices")
    return arr
