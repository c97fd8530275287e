"""Names and signatures that code outside the library relies on.

``perfbench/tracing.py`` wraps library functions and methods by their
dotted name and reads some of their positional arguments to size its
spans, so those names and the order of those arguments are a contract:
renaming one silently turns a traced metric into "absent".  The first
half of this module pins every traced target; the second pins the
options the array-backend seam used to add (``backend=``, ``--backend``,
``REPRO_BACKEND``), which are gone for good rather than ignored.
"""

from __future__ import annotations

import importlib
import inspect
import io

import numpy as np
import pytest

from repro.cli import main
from repro.core.trajectory import ScheduleStore, TrajectoryStore
from repro.graphs import cycle_graph
from repro.graphs.csr import Graph, neighbor_kernel
from repro.graphs.implicit import ImplicitCycle
from repro.utils.rng import UniformStreams, as_generator
from repro.walks.engine import WalkEngine, neighbor_step

#: ``(module, dotted attribute, leading parameter names or None)``; a
#: tuple lists the parameters a tracer reads, in order (``self`` first
#: for methods).
TRACED = [
    ("repro.experiments.runner", "BATCHED_DRIVERS", None),
    ("repro.experiments.runner", "PROCESS_DRIVERS", None),
    (
        "repro.kernels",
        "CompiledKernels.csr_step",
        ("self", "indptr", "indices", "pos", "u", "out"),
    ),
    (
        "repro.kernels",
        "CompiledKernels.settle_round",
        ("self", "occupied", "rep_ids", "pos"),
    ),
    (
        "repro.kernels",
        "CompiledKernels.vacant_candidates",
        ("self", "occupied", "rep_off", "pos"),
    ),
    ("repro.kernels", "CompiledKernels.finish_sequential", ("self",)),
    ("repro.kernels", "CompiledKernels.finish_parallel_single", ("self",)),
    (
        "repro.walks.engine",
        "neighbor_step",
        ("kernel", "degrees", "positions", "u", "out"),
    ),
    ("repro.graphs.csr", "neighbor_kernel", ("g",)),
    ("repro.core.settlement", "chunked_vacancies", None),
    ("repro.core.settlement", "select_settlers", None),
    ("repro.core.settlement", "settle_vacant_starts", None),
    ("repro.core.batched", "_finish_parallel_rep", None),
    ("repro.core.batched", "_finish_sequential_rep", None),
    ("repro.utils.rng", "UniformStreams.fill", ("self", "rows")),
    ("repro.utils.rng", "UniformStreams.refill_tail", ("self", "r", "ptr")),
    ("repro.utils.rng", "UniformStream.take_block", ("self",)),
    (
        "repro.core.trajectory",
        "TrajectoryStore.append",
        ("self", "rep_ids", "pids", "verts"),
    ),
    ("repro.core.trajectory", "TrajectoryStore.finalize_arrays", ("self",)),
    ("repro.experiments.fanout", "fanout_estimate", None),
    ("repro.experiments.fanout", "SharedGraph.__init__", ("self",)),
    ("repro.experiments.fanout", "run_shard", None),
]


@pytest.mark.parametrize(
    "module, path, leading", TRACED, ids=[f"{m}.{p}" for m, p, _ in TRACED]
)
def test_traced_target_keeps_its_name_and_argument_order(module, path, leading):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if isinstance(owner, type):
        # a wrapped method must be the class's own, so it can be restored
        assert attr in vars(owner), path
    target = getattr(owner, attr)
    if leading is None:
        assert callable(target) or isinstance(target, dict)
        return
    params = list(inspect.signature(target).parameters)
    assert params[: len(leading)] == list(leading), params


def test_neighbor_step_writes_into_out():
    g = cycle_graph(12)
    pos = np.arange(12)
    u = np.full(12, 0.25)
    out = np.empty(12, dtype=pos.dtype)
    res = neighbor_step(neighbor_kernel(g), g.degrees, pos, u, out)
    assert res is out
    # floor(0.25 * deg) = 0: every walker takes its vertex's first slot
    assert np.array_equal(res, g.indices[g.indptr[:-1]])
    assert np.array_equal(res, neighbor_step(neighbor_kernel(g), g.degrees, pos, u))


# ----------------------------------------------------------------------
# the retired array-backend options
# ----------------------------------------------------------------------
CONSTRUCTORS = {
    "Graph": lambda **kw: Graph([0, 1, 2], [1, 0], **kw),
    "ImplicitCycle": lambda **kw: ImplicitCycle(8, **kw),
    "WalkEngine": lambda **kw: WalkEngine(cycle_graph(8), seed=0, **kw),
    "UniformStreams": lambda **kw: UniformStreams([as_generator(0)], **kw),
    "TrajectoryStore": lambda **kw: TrajectoryStore(
        np.zeros((1, 2), dtype=np.int64), **kw
    ),
    "ScheduleStore": lambda **kw: ScheduleStore(2, **kw),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructors_take_no_backend_keyword(name):
    build = CONSTRUCTORS[name]
    build()  # the plain call still works
    with pytest.raises(TypeError, match="backend"):
        build(backend="numpy")


def _run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_has_no_backend_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        _run_cli("run", "cycle", "16", "--reps", "2", "--backend", "numpy")
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_repro_backend_environment_variable_is_ignored(monkeypatch):
    reference = _run_cli("run", "cycle", "16", "--reps", "2", "--seed", "3")
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    assert _run_cli("run", "cycle", "16", "--reps", "2", "--seed", "3") == reference
    assert reference[0] == 0
