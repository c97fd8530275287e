"""Workload definitions and set-up for the dispersion benchmark.

A workload is a fixed list of cells ``(graph, process, reps, kwargs)``.
Every cell's seed is derived from the workload seed given on the command
line, so one seed always produces the same estimates.  Each cell is run
through the public ``estimate_dispersion`` under default dispatch; the
rationale for each workload is in ``README.md`` beside this file.

Nothing here imports numpy or the library at module level: ``setup``
times those imports itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Graph factories by label: ``(generator name in repro.graphs, args)``.
GRAPHS = {
    "grid-24x24": ("grid_graph", (24, 24)),
    "btree-h9": ("complete_binary_tree", (9,)),
    "hypercube-11": ("hypercube_graph", (11,)),
    "cycle-96": ("cycle_graph", (96,)),
    "grid-12x12": ("grid_graph", (12, 12)),
    "cycle-64": ("cycle_graph", (64,)),
    "grid-10x10": ("grid_graph", (10, 10)),
    "grid-16x16": ("grid_graph", (16, 16)),
    "btree-h8": ("complete_binary_tree", (8,)),
}

PROCESSES = ("sequential", "parallel", "uniform", "ctu", "c-sequential")


@dataclass(frozen=True)
class Cell:
    graph: str
    process: str
    reps: int
    kwargs: dict = field(default_factory=dict)


#: Workload name -> cells.  Order matters: a cell's seed depends on its
#: position, so reordering changes the inputs.
WORKLOADS = {
    "parallel-wide": [
        Cell("grid-24x24", "parallel", 32),
        Cell("btree-h9", "parallel", 32),
        Cell("hypercube-11", "parallel", 32),
    ],
    "sequential-batched": [
        Cell("cycle-96", "sequential", 64),
        Cell("grid-12x12", "sequential", 64),
    ],
    "default-reps": [
        Cell(graph, process, 16)
        for graph in ("cycle-64", "grid-10x10")
        for process in PROCESSES
    ],
    # each graph twice (two seeds): the mean over more repetitions is
    # steadier, while peak memory stays that of one recorded estimate
    "record-fanout": [
        Cell(graph, "parallel", 32, {"record": True, "n_jobs": 2})
        for graph in ("grid-16x16", "btree-h8", "grid-16x16", "btree-h8")
    ],
}

#: Repetitions the correctness gate replays through the serial oracle.
ORACLE_REPS = 2


def cell_seed(workload: str, seed: int, index: int) -> list[int]:
    """Seed of one cell: a fresh ``SeedSequence`` entropy list per call.

    A list (not a ``SeedSequence`` object) is passed on purpose: the
    runner spawns children from the parent it builds, so every pass over
    the workload starts from the same children.
    """
    return [seed, list(WORKLOADS).index(workload), index]


@dataclass
class Prepared:
    """A workload ready to run: built graphs plus set-up timings."""

    name: str
    seed: int
    cells: list[Cell]
    graphs: dict
    estimate: object
    kernels: object
    timings: dict


def setup(workload: str, seed: int) -> Prepared:
    """Imports, kernel resolution, graph construction and one warm-up.

    The warm-up runs each distinct ``(process, reps, kwargs)`` of the
    workload once on ``cycle-16``, so lazily imported modules (the
    fan-out pool, the trajectory store) and the dispatch path the cells
    take are loaded before timing starts.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed with the library import)

    import repro.graphs as graphs
    from repro.experiments import estimate_dispersion
    from repro.kernels import get_kernels

    t1 = time.perf_counter()
    kernels = get_kernels()
    t2 = time.perf_counter()
    cells = WORKLOADS[workload]
    built = {}
    for cell in cells:
        if cell.graph not in built:
            factory, args = GRAPHS[cell.graph]
            built[cell.graph] = getattr(graphs, factory)(*args)
    t3 = time.perf_counter()
    small = graphs.cycle_graph(16)
    seen = []
    for cell in cells:
        key = (cell.process, cell.reps, sorted(cell.kwargs.items()))
        if key not in seen:
            seen.append(key)
            estimate_dispersion(
                small, cell.process, reps=cell.reps, seed=[seed], **cell.kwargs
            )
    t4 = time.perf_counter()
    timings = {
        "import_s": t1 - t0,
        "kernels_s": t2 - t1,
        "graphs_s": t3 - t2,
        "warmup_s": t4 - t3,
        "setup_s": t4 - t0,
    }
    return Prepared(
        workload, seed, cells, built, estimate_dispersion, kernels, timings
    )
