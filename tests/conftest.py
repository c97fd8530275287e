"""Shared fixtures: small canonical graphs reused across the suite, and
a reader check for recorded trajectories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.core.trajectory import TrajectoryArrays


@pytest.fixture
def p8():
    return path_graph(8)


@pytest.fixture
def c8():
    return cycle_graph(8)


@pytest.fixture
def k8():
    return complete_graph(8)


@pytest.fixture
def s8():
    return star_graph(8)


@pytest.fixture
def q3():
    return hypercube_graph(3)


@pytest.fixture
def btree3():
    return complete_binary_tree(3)  # 15 vertices


@pytest.fixture
def g44():
    return grid_graph(4, 4)


@pytest.fixture
def lolli12():
    return lollipop_graph(12)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


SMALL_GRAPH_FACTORIES = [
    lambda: path_graph(6),
    lambda: cycle_graph(7),
    lambda: complete_graph(6),
    lambda: star_graph(7),
    lambda: hypercube_graph(3),
    lambda: complete_binary_tree(2),
    lambda: grid_graph(3, 3),
    lambda: lollipop_graph(8),
]


@pytest.fixture(params=range(len(SMALL_GRAPH_FACTORIES)))
def small_graph(request):
    """Parametrised fixture covering one representative of each family."""
    return SMALL_GRAPH_FACTORIES[request.param]()


def _same_rows(got, want, view):
    """``got`` equals ``want`` as read through ``view``: ``"lists"`` reads
    ``to_lists()`` (plain Python ints), ``"arrays"`` the ``int32`` /
    ``int64`` buffers and the zero-copy row views."""
    assert isinstance(got, TrajectoryArrays) and isinstance(want, TrajectoryArrays)
    if view == "lists":
        rows = got.to_lists()
        assert rows == want.to_lists()
        assert all(type(v) is int for row in rows for v in row)
    else:
        assert got.flat.dtype == np.int32 and got.offsets.dtype == np.int64
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.flat, want.flat)
        for p in range(len(got)):
            assert np.shares_memory(got[p], got.flat)
            assert np.array_equal(got[p], want[p])


@pytest.fixture
def same_rows():
    """The :func:`_same_rows` check, for tests parametrised over the
    two readers ``view in ["lists", "arrays"]``."""
    return _same_rows
