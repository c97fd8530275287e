"""Random-graph differential fuzz of the Sequential-IDLA route.

The per-repetition route runs a whole shard of Sequential-IDLA (and
c-sequential) repetitions in one compiled call that keeps several
repetitions in flight.  Hypothesis draws small connected graphs
(irregular degrees, pendant vertices), origins, particle counts, lazy
walks, recording with tiny event sinks and 1-9 repetitions, so the
loop's lanes are often only partly filled; every repetition must equal
the serial oracle bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels as kernels_mod
from repro.core.continuous import continuous_sequential_idla
from repro.core.route import run_reps
from repro.core.sequential import sequential_idla
from repro.graphs import Graph
from repro.kernels import available_kernels
from repro.utils.rng import spawn_seed_sequences

pytestmark = pytest.mark.skipif(
    not available_kernels().get("cffi"), reason="no compiled kernel provider"
)


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree (its leaves are pendant vertices), plus a
    few random chords that make the degrees irregular."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = {
        (draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)
    }
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), name=f"fuzz-{n}")


@st.composite
def requests(draw):
    """``(g, origin, num_particles, seeds)``: a graph, an origin spec (a
    vertex, ``"uniform"`` or one explicit vertex per particle), a
    particle count and 1-9 repetition seeds."""
    g = draw(connected_graphs())
    m = draw(st.integers(min_value=1, max_value=g.n))
    origin = draw(
        st.one_of(
            st.integers(min_value=0, max_value=g.n - 1),
            st.just("uniform"),
            st.lists(
                st.integers(min_value=0, max_value=g.n - 1), min_size=m, max_size=m
            ),
        )
    )
    reps = draw(st.integers(min_value=1, max_value=9))
    seeds = spawn_seed_sequences(draw(st.integers(0, 2**32 - 1)), reps)
    return g, origin, m, seeds


def _check(ref, got, extras=()):
    assert len(ref) == len(got)
    for s, b in zip(ref, got):
        assert s.dispersion_time == b.dispersion_time
        assert s.total_steps == b.total_steps
        assert np.array_equal(s.steps, b.steps)
        assert np.array_equal(s.settled_at, b.settled_at)
        assert np.array_equal(s.settle_order, b.settle_order)
        assert s.trajectories == b.trajectories  # None == None unrecorded
        for name in extras:
            assert np.array_equal(getattr(s, name), getattr(b, name)), name


#: Sink capacities: one event (every lane re-enters on "sink full"), a
#: few events, and the default.
SINKS = st.sampled_from([1, 3, None])


@settings(max_examples=60, deadline=None)
@given(request=requests(), lazy=st.booleans(), record=st.booleans(), sink=SINKS)
def test_sequential_route_matches_serial_on_random_graphs(request, lazy, record, sink):
    g, origin, m, seeds = request
    kwargs = {"lazy": lazy, "num_particles": m, "record": record}
    ref = [sequential_idla(g, origin, seed=s, **kwargs) for s in seeds]
    with pytest.MonkeyPatch.context() as mp:
        if sink is not None:
            mp.setattr(kernels_mod, "_SINK_EVENTS", sink)
        got = run_reps("sequential", g, seeds, origin, kernels="cffi", **kwargs)
    _check(ref, got)


@settings(max_examples=40, deadline=None)
@given(request=requests(), record=st.booleans(), sink=SINKS)
def test_c_sequential_route_matches_serial_on_random_graphs(request, record, sink):
    g, origin, m, seeds = request
    if not isinstance(origin, (int, str)):  # c-sequential runs n particles
        origin = origin[0]
    ref = [
        continuous_sequential_idla(g, origin, seed=s, record=record) for s in seeds
    ]
    with pytest.MonkeyPatch.context() as mp:
        if sink is not None:
            mp.setattr(kernels_mod, "_SINK_EVENTS", sink)
        got = run_reps(
            "c-sequential", g, seeds, origin, kernels="cffi", record=record
        )
    _check(ref, got, ("durations",))
