"""Sample pins: SHA-256 digests of fixed (graph, process, seed) cells.

The differential harness proves that every dispatch path agrees with the
serial oracle on one machine.  These pins fix what that oracle draws:
each cell's ``estimate_dispersion`` samples (dispersion times and total
steps, and the trajectories under ``record=True``) hash to a constant.
A change that moves a sample, or a CPU whose SIMD or libm path rounds a
transcendental differently, fails here.  CI reruns this module with
numpy's AVX-512 dispatch masked (``NPY_DISABLE_CPU_FEATURES``).

CTU's settle clocks and Uniform's wasted-tick counts are not part of an
estimate; they are pinned through the serial drivers, which every route
matches bit for bit (``tests/test_differential_drivers.py``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.continuous import ctu_idla
from repro.core.uniform import uniform_idla
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph, grid_graph, star_graph
from repro.utils.rng import spawn_seed_sequences

REPS = 6

GRAPHS = {
    "cycle-24": lambda: cycle_graph(24),
    "grid-5x5": lambda: grid_graph(5, 5),
    "star-12": lambda: star_graph(12),
}

#: (graph, process, seed, options) -> first 16 hex digits of the digest.
CELLS = {
    ("cycle-24", "sequential", 1, ()): "c0b178b6a90325bf",
    ("grid-5x5", "sequential", 2, (("lazy", True),)): "c7ca18dde1d02798",
    ("cycle-24", "sequential", 3, (("record", True),)): "91ee85e41042fc2c",
    ("star-12", "sequential", 4, (("num_particles", 7), ("origin", 3))): "a50281b4f62673d7",
    ("cycle-24", "parallel", 1, ()): "4548efe6efd1ac74",
    ("grid-5x5", "parallel", 2, (("lazy", True),)): "fb044097365f1c0b",
    ("cycle-24", "parallel", 3, (("record", True),)): "2da93c318e80824d",
    ("star-12", "parallel", 4, (("num_particles", 17),)): "e83fb4ba5bb4ced8",
    (
        "grid-5x5", "parallel", 5,
        (("lazy", True), ("num_particles", 30), ("record", True),
         ("tie_break", "random")),
    ): "34011a11e7265eac",
    ("cycle-24", "c-sequential", 1, ()): "795ca967ddb67cf8",
    ("grid-5x5", "c-sequential", 3, (("record", True), ("rate", 0.5))): "2f0efa36f36e05bc",
    ("cycle-24", "ctu", 1, ()): "c0417a1101c21b67",
    ("grid-5x5", "ctu", 3, (("record", True),)): "9a7ab409faa785ce",
    ("star-12", "ctu", 4, (("num_particles", 7), ("rate", 2.0))): "ae649ea66d2a3e3c",
    ("cycle-24", "uniform", 1, ()): "ff413fb787f095c2",
    ("grid-5x5", "uniform", 3, (("record", True),)): "6e7e350d74571baf",
    ("star-12", "uniform", 4, (("num_particles", 7), ("origin", 3))): "d9b43a7b2c403ea0",
}

#: Serial-driver cells pinning what an estimate does not carry: CTU's
#: settle clocks and Uniform's tick counts, including uniform origins.
EXTRAS = {
    ("cycle-24", "ctu", 5, ()): "6336b5c86e975550",
    ("grid-5x5", "ctu", 6, (("origin", "uniform"), ("num_particles", 9))): "d8ebe4deff87213c",
    ("cycle-24", "uniform", 5, ()): "7bbf09ca72e52fe4",
    ("grid-5x5", "uniform", 6, (("origin", "uniform"), ("num_particles", 9))): "bf753a502089c334",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def estimate_digest(graph, process, seed, options) -> str:
    est = estimate_dispersion(
        GRAPHS[graph](), process, reps=REPS, seed=seed, **dict(options)
    )
    arrays = [est.samples, est.total_samples]
    for traj in est.trajectories or ():
        arrays += [traj.offsets, traj.flat]
    return _digest(*arrays)


def extras_digest(graph, process, seed, options) -> str:
    driver = ctu_idla if process == "ctu" else uniform_idla
    arrays = []
    for child in spawn_seed_sequences(seed, REPS):
        res = driver(GRAPHS[graph](), seed=child, **dict(options))
        arrays += [np.float64(res.ticks), res.steps, res.settle_order]
        if process == "ctu":
            arrays.append(res.settle_clock)
    return _digest(*arrays)


@pytest.mark.parametrize("cell", list(CELLS), ids=lambda c: "-".join(map(str, c[:3])))
def test_estimate_samples_match_their_pin(cell):
    assert estimate_digest(*cell) == CELLS[cell]


@pytest.mark.parametrize("cell", list(EXTRAS), ids=lambda c: "-".join(map(str, c[:3])))
def test_clock_extras_match_their_pin(cell):
    assert extras_digest(*cell) == EXTRAS[cell]
