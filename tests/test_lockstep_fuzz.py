"""Random-graph differential fuzz of the lock-step drivers.

The five ``batched_*`` drivers, called directly, always run lock-step:
the Parallel-IDLA round and the Sequential-IDLA tick of
:mod:`repro.core.batched`, and the tick-scheduled drivers of
:mod:`repro.core.batched_continuous`, all stepping through
:func:`repro.walks.engine.make_stepper`.  Hypothesis draws small
connected CSR graphs (irregular degrees, pendant vertices) and small
implicit families, origins, particle counts (Parallel's above the
vertex count too), lazy walks, Parallel's scalar threshold (so lazy
rounds mix the wide and narrow draw), 1-6 repetitions, recording, the
scalar tail finisher on (``tail_threshold=None``) or off (``0``), and
for Parallel-IDLA a particle budget below the walker count, so the round
runs over several ``step_chunk`` slices.  Each draw runs under every
provider, the compiled one with its ``min_width`` gate at its default or
forced to 0 (every settlement round and probe compiled).  Every result
field must equal the serial oracle's, run on the CSR build of the graph.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import StateBudget
from repro.experiments.runner import BATCHED_DRIVERS, PROCESS_DRIVERS
from repro.graphs import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    torus_graph,
)
from repro.kernels import CompiledKernels
from repro.utils.rng import spawn_seed_sequences

from test_differential_drivers import (
    EXTRAS,
    KERNEL_PROVIDERS as PROVIDERS,
    assert_result_identical,
)
from test_route_fuzz import connected_graphs

#: Implicit families and their (small) constructor arguments.
FAMILIES = {
    "cycle": (cycle_graph, st.tuples(st.integers(3, 12))),
    "path": (path_graph, st.tuples(st.integers(2, 12))),
    "complete": (complete_graph, st.tuples(st.integers(2, 8))),
    "grid": (grid_graph, st.tuples(st.integers(2, 4), st.integers(2, 4))),
    "torus": (torus_graph, st.tuples(st.integers(3, 4), st.integers(3, 4))),
    "hypercube": (hypercube_graph, st.tuples(st.integers(1, 3))),
    "btree": (complete_binary_tree, st.tuples(st.integers(1, 3))),
}


@st.composite
def graphs(draw):
    """``(graph the driver runs on, graph the oracle runs on)``: one
    random CSR graph twice, or an implicit family and its CSR build."""
    if draw(st.booleans()):
        g = draw(connected_graphs())
        return g, g
    build, args = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    a = draw(args)
    return build(*a, implicit=True), build(*a)


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("process", sorted(BATCHED_DRIVERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lockstep_driver_matches_serial_on_random_graphs(process, provider, data):
    g, oracle_g = data.draw(graphs(), label="graph")
    n = g.n
    kwargs = {"record": data.draw(st.booleans(), label="record")}
    if process in ("parallel", "sequential"):
        kwargs["lazy"] = data.draw(st.booleans(), label="lazy")
    if process != "c-sequential":
        most = 2 * n if process == "parallel" else n
        kwargs["num_particles"] = data.draw(st.integers(1, most), label="m")
    if process == "parallel":
        kwargs["scalar_threshold"] = data.draw(st.sampled_from([0, 3, 16]))
    if process == "ctu":
        kwargs["rate"] = data.draw(st.floats(0.1, 10.0), label="rate")
    if process == "uniform":
        kwargs["faithful_r"] = data.draw(st.booleans(), label="faithful_r")
    origin = data.draw(
        st.one_of(st.integers(0, n - 1), st.just("uniform")), label="origin"
    )
    reps = data.draw(st.integers(1, 6), label="reps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

    drive = {}
    if process in ("parallel", "sequential"):
        drive["tail_threshold"] = data.draw(st.sampled_from([0, None]))
    m = kwargs.get("num_particles", n)
    if process == "parallel" and m > 1 and data.draw(st.booleans()):
        # fewer lanes than walkers: the round runs several slices
        drive["state_budget"] = StateBudget(particles=data.draw(st.integers(1, m - 1)))
    zero_width = data.draw(st.booleans(), label="min_width=0")

    extras = EXTRAS.get(process, ())
    if kwargs.get("faithful_r"):
        extras = (*extras, "schedule")
    oracle = [
        PROCESS_DRIVERS[process](oracle_g, origin, seed=s, **kwargs)
        for s in spawn_seed_sequences(seed, reps)
    ]
    with pytest.MonkeyPatch.context() as mp:
        if zero_width:
            mp.setattr(CompiledKernels, "min_width", 0)
        batch = BATCHED_DRIVERS[process](
            g, origin, seeds=spawn_seed_sequences(seed, reps), kernels=provider,
            **kwargs, **drive,
        )
    assert len(batch) == reps
    for s, b in zip(oracle, batch):
        assert_result_identical(s, b, extras)
