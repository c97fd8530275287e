"""Random-graph differential fuzz of the per-repetition route.

The route runs a whole shard of repetitions in one compiled call per
process: Sequential-IDLA (and c-sequential) keeps several repetitions in
flight, Parallel-, Uniform- and CTU-IDLA run them one after another, the
tick loops sharing one log lane whose logarithms numpy takes whenever
the loop returns.  Hypothesis draws small connected graphs (irregular
degrees, pendant vertices), origins, particle counts (Parallel's above
the vertex count too), lazy walks, tie-breaks, CTU rates, round and tick
caps, recording with tiny event sinks, tiny log lanes and 1-9
repetitions, so the sequential loop's lanes are often only partly
filled and one log lane often spans several repetitions; every
repetition must equal the serial oracle bit for bit, and a cap must
raise the serial oracle's error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels as kernels_mod
from repro.core.continuous import continuous_sequential_idla, ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.route import run_reps
from repro.core.sequential import sequential_idla
from repro.core.uniform import uniform_idla
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
def requests(draw, surplus=False):
    """``(g, origin, num_particles, seeds)``: a graph, an origin spec (a
    vertex, ``"uniform"`` or one explicit vertex per particle), a
    particle count (with ``surplus``, up to twice the vertices) and 1-9
    repetition seeds."""
    g = draw(connected_graphs())
    m = draw(st.integers(min_value=1, max_value=2 * g.n if surplus else g.n))
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


#: Log-lane capacities of the tick loops: one slot (a fold before nearly
#: every tick), a few, and the default.
LANES = st.sampled_from([1, 2, 3, None])


def _route(process, g, origin, seeds, sink, lane, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        if sink is not None:
            mp.setattr(kernels_mod, "_SINK_EVENTS", sink)
        if lane is not None:
            mp.setattr(kernels_mod, "_LANE", lane)
        return run_reps(process, g, seeds, origin, kernels="cffi", **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    request=requests(), record=st.booleans(), sink=SINKS, lane=LANES,
    data=st.data(),
)
def test_uniform_route_matches_serial_on_random_graphs(
    request, record, sink, lane, data
):
    """Without a cap the samples and tick counts must be the serial
    ones.  The loop counts ticks without their geometric skips, which
    numpy adds at each fold, so caps are drawn at the edges that trip in
    C (below a repetition's stepping ticks), only at a fold (between its
    stepping ticks and its ticks) or never; a trip must raise the serial
    oracle's error."""
    g, origin, m, seeds = request
    kwargs = {"num_particles": m, "record": record}
    free = [uniform_idla(g, origin, seed=s, **kwargs) for s in seeds]
    r = data.draw(st.integers(0, len(free) - 1))
    steps, ticks = free[r].total_steps, int(free[r].ticks)
    cap = data.draw(
        st.sampled_from(
            [None, steps - 1, steps, (steps + ticks) // 2, ticks - 1, ticks]
        )
    )
    if cap is not None:
        cap = max(cap, 0)
    try:
        ref = [
            uniform_idla(g, origin, seed=s, max_ticks=cap, **kwargs) for s in seeds
        ]
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as got:
            _route("uniform", g, origin, seeds, sink, lane, max_ticks=cap, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = _route("uniform", g, origin, seeds, sink, lane, max_ticks=cap, **kwargs)
    _check(ref, got, ("ticks",))


@settings(max_examples=60, deadline=None)
@given(
    request=requests(), record=st.booleans(), sink=SINKS, lane=LANES,
    rate=st.floats(min_value=0.05, max_value=20.0),
)
def test_ctu_route_matches_serial_on_random_graphs(request, record, sink, lane, rate):
    g, origin, m, seeds = request
    kwargs = {"num_particles": m, "record": record, "rate": rate}
    ref = [ctu_idla(g, origin, seed=s, **kwargs) for s in seeds]
    got = _route("ctu", g, origin, seeds, sink, lane, **kwargs)
    _check(ref, got, ("settle_clock", "ticks"))


@settings(max_examples=60, deadline=None)
@given(
    request=requests(surplus=True), lazy=st.booleans(),
    tie_break=st.sampled_from(["index", "random"]),
    threshold=st.sampled_from([0, 3, 16]), record=st.booleans(), sink=SINKS,
    data=st.data(),
)
def test_parallel_route_matches_serial_on_random_graphs(
    request, lazy, tie_break, threshold, record, sink, data
):
    """Without a cap the samples, settle orders and trajectories must be
    ``parallel_idla``'s.  A round cap is drawn just below a repetition's
    last round, at it, or not at all; a trip must raise the serial
    oracle's error."""
    g, origin, m, seeds = request
    kwargs = {
        "lazy": lazy, "tie_break": tie_break, "scalar_threshold": threshold,
        "num_particles": m, "record": record,
    }
    free = [parallel_idla(g, origin, seed=s, **kwargs) for s in seeds]
    r = data.draw(st.integers(0, len(free) - 1))
    last = int(free[r].dispersion_time)
    cap = data.draw(st.sampled_from([None, max(last - 1, 0), last]))
    try:
        ref = [
            parallel_idla(g, origin, seed=s, max_rounds=cap, **kwargs) for s in seeds
        ]
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as got:
            _route("parallel", g, origin, seeds, sink, None, max_rounds=cap, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = _route("parallel", g, origin, seeds, sink, None, max_rounds=cap, **kwargs)
    _check(ref, got)
