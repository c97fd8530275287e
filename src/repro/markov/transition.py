"""Transition matrices of the simple and lazy random walk.

The paper's ``P`` is the simple-random-walk matrix ``P[u, v] =
#edges(u,v) / deg(u)`` and the lazy walk is ``P~ = (I + P) / 2`` (§2).
Dense matrices are the default (the library targets ``n`` up to a few
thousand, where dense LAPACK beats sparse overheads for the repeated
solves we do); sparse CSR versions are provided for the larger sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.csr import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "transition_matrix",
    "lazy_transition_matrix",
    "sparse_transition_matrix",
    "laziness_matrix",
]


def transition_matrix(g: Graph) -> np.ndarray:
    """Dense simple-random-walk matrix ``P`` with rows summing to 1.

    Multi-edges and loop slots contribute proportionally to their slot
    count, matching the walk engine's sampling.
    """
    n = g.n
    P = np.zeros((n, n), dtype=np.float64)
    deg = g.degrees
    if np.any(deg == 0):
        raise ValueError("graph has isolated vertices; random walk undefined")
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    np.add.at(P, (rows, g.indices), 1.0)
    P /= deg[:, None]
    return P


def lazy_transition_matrix(g: Graph) -> np.ndarray:
    """Dense lazy-walk matrix ``P~ = (I + P) / 2``."""
    P = transition_matrix(g)
    P *= 0.5
    idx = np.arange(g.n)
    P[idx, idx] += 0.5
    return P


def laziness_matrix(P: np.ndarray, hold: float = 0.5) -> np.ndarray:
    """General laziness: ``(1 - hold) P + hold I``."""
    if not 0.0 <= hold < 1.0:
        raise ValueError(f"hold must be in [0, 1), got {hold}")
    out = (1.0 - hold) * P
    idx = np.arange(P.shape[0])
    out[idx, idx] += hold
    return out


def sparse_transition_matrix(g: Graph, *, lazy: bool = False) -> sp.csr_matrix:
    """CSR transition matrix; set ``lazy=True`` for ``(I + P)/2``."""
    # imported here: scipy costs ~0.2 s, and only this function needs it
    import scipy.sparse as sp

    n = g.n
    deg = g.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise ValueError("graph has isolated vertices; random walk undefined")
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    data = 1.0 / deg[rows]
    P = sp.csr_matrix((data, (rows, g.indices)), shape=(n, n))
    P.sum_duplicates()
    if lazy:
        P = 0.5 * P + 0.5 * sp.identity(n, format="csr")
    return P
