"""Random-graph differential fuzz of the per-repetition route.

The route runs a whole shard of repetitions in one compiled call per
process: Sequential-IDLA (and c-sequential) keeps several repetitions in
flight, Parallel-IDLA and the jump chain of Uniform- and CTU-IDLA run
them one after another, and the holding layer then draws each
repetition's clocks from its generator.  Hypothesis draws small
connected graphs (irregular degrees, pendant vertices), origins,
particle counts (Parallel's above the vertex count too), lazy walks,
tie-breaks, CTU rates, round and tick caps, recording with tiny event
sinks, the tick drivers' serial fetch block (where the holding draws
start) and 1-9 repetitions, so the sequential loop's lanes are often
only partly filled; every repetition must equal the serial oracle bit
for bit, and a cap must raise the serial oracle's error.  The repetitions' seeds are spawned
children or a lazy range of them (:class:`~repro.utils.rng.SpawnRange`,
as the runner hands them out), whose rows the route seeds in C
whenever no row draws in Python.  The lazy ranges themselves must
slice, pickle and hand out rounds of the very children ``spawn`` gives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.continuous as continuous_mod
import repro.core.uniform as uniform_mod
import repro.kernels as kernels_mod
from repro.core.continuous import continuous_sequential_idla, ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.route import run_reps
from repro.core.sequential import sequential_idla
from repro.core.uniform import uniform_idla
from repro.graphs import Graph
from repro.kernels import available_kernels
from repro.utils.rng import SeedChildren, SpawnRange, spawn_seed_sequences

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
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        seeds = spawn_seed_sequences(seed, reps)
    else:  # a lazy range, past the children of an earlier round
        children = SeedChildren(seed)
        children.take(draw(st.integers(0, 5)))
        seeds = children.take(reps)
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


#: Serial fetch blocks of the tick drivers: where the holding layer's
#: draws start (1: right after the chain; 3: an odd remainder; the
#: default).
BLOCKS = st.sampled_from([1, 3, 64, None])


def _route(process, g, origin, seeds, sink, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        if sink is not None:
            mp.setattr(kernels_mod, "_SINK_EVENTS", sink)
        return run_reps(process, g, seeds, origin, kernels="cffi", **kwargs)


def _serial_block(mp, module, block):
    if block is not None:
        mp.setattr(module, "_BLOCK", block)


@settings(max_examples=60, deadline=None)
@given(
    request=requests(), record=st.booleans(), sink=SINKS, block=BLOCKS,
    data=st.data(),
)
def test_uniform_route_matches_serial_on_random_graphs(
    request, record, sink, block, data
):
    """Without a cap the samples and tick counts must be the serial
    ones, at any serial fetch block.  The chain counts its useful ticks
    and the holding layer adds the wasted ones, so caps are drawn at the
    edges that trip in C (below a repetition's stepping ticks), only
    after the holding layer (between its stepping ticks and its ticks)
    or never; a trip must raise the serial oracle's error."""
    with pytest.MonkeyPatch.context() as mp:
        _serial_block(mp, uniform_mod, block)
        _uniform_case(request, record, sink, data)


def _uniform_case(request, record, sink, data):
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
            _route("uniform", g, origin, seeds, sink, max_ticks=cap, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = _route("uniform", g, origin, seeds, sink, max_ticks=cap, **kwargs)
    _check(ref, got, ("ticks",))


@settings(max_examples=60, deadline=None)
@given(
    request=requests(), record=st.booleans(), sink=SINKS, block=BLOCKS,
    rate=st.floats(min_value=0.05, max_value=20.0),
)
def test_ctu_route_matches_serial_on_random_graphs(request, record, sink, block, rate):
    g, origin, m, seeds = request
    kwargs = {"num_particles": m, "record": record, "rate": rate}
    with pytest.MonkeyPatch.context() as mp:
        _serial_block(mp, continuous_mod, block)
        ref = [ctu_idla(g, origin, seed=s, **kwargs) for s in seeds]
        got = _route("ctu", g, origin, seeds, sink, **kwargs)
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
            _route("parallel", g, origin, seeds, sink, max_rounds=cap, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = _route("parallel", g, origin, seeds, sink, max_rounds=cap, **kwargs)
    _check(ref, got)


def _same_children(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        assert a.pool_size == b.pool_size
        assert a.generate_state(4).tolist() == b.generate_state(4).tolist()


_ENTROPY = st.one_of(
    st.integers(0, 2**130), st.lists(st.integers(0, 2**70), min_size=1, max_size=5)
)


@settings(max_examples=60, deadline=None)
@given(
    entropy=_ENTROPY, key=st.lists(st.integers(0, 2**40), max_size=2),
    n=st.integers(0, 12), data=st.data(),
)
def test_spawn_range_slices_and_pickles_to_the_spawned_children(entropy, key, n, data):
    """A range of children ``0 .. n`` is ``spawn(n)`` child for child;
    a slice of it (any bounds, any step) is that slice of the list, and
    a pickled range comes back as the same children."""
    import pickle

    parent = np.random.SeedSequence(entropy, spawn_key=key)
    spawned = np.random.SeedSequence(entropy, spawn_key=key).spawn(n)
    lazy = SpawnRange(parent, 0, n)
    _same_children(list(lazy), spawned)
    bounds = st.one_of(st.none(), st.integers(-n - 2, n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, -1]))
    part = slice(data.draw(bounds), data.draw(bounds), step)
    _same_children(list(lazy[part]), spawned[part])
    if part.step in (None, 1):
        assert isinstance(lazy[part], SpawnRange)  # nothing materialised
    _same_children(list(pickle.loads(pickle.dumps(lazy[part]))), spawned[part])
    if n:
        i = data.draw(st.integers(-n, n - 1))
        _same_children([lazy[i]], [spawned[i]])
    assert parent.n_children_spawned == 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**70), st.lists(st.integers(0, 2**33), max_size=4)),
    rounds=st.lists(st.integers(0, 6), max_size=5),
)
def test_seed_children_rounds_are_one_spawn(seed, rounds):
    """Round after round, a runner-made parent hands out lazy ranges at
    its own offset, and a caller's ``SeedSequence`` is spawned from (its
    counter moves as before); either way the rounds' children are those
    of one ``spawn`` of the total."""
    want = np.random.SeedSequence(seed).spawn(sum(rounds))
    for own in (seed, np.random.SeedSequence(seed)):
        children = SeedChildren(own)
        got = [c for n in rounds for c in children.take(n)]
        _same_children(got, want)
        if isinstance(own, np.random.SeedSequence):
            assert own.n_children_spawned == sum(rounds)
