"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    path_graph,
    petersen_graph,
    random_regular,
    random_tree,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20230724)


@pytest.fixture
def small_er(rng):
    """Connected sparse random graph, n = 40."""
    return erdos_renyi_connected(40, 0.09, rng)


@pytest.fixture
def small_regular(rng):
    """Random 3-regular graph, n = 40."""
    return random_regular(40, 3, rng)


@pytest.fixture
def small_grid():
    return grid_graph(6, 6)


@pytest.fixture
def small_cycle():
    return cycle_graph(24)


@pytest.fixture
def small_path():
    return path_graph(25)


@pytest.fixture
def small_tree(rng):
    return random_tree(30, rng)


@pytest.fixture
def petersen():
    return petersen_graph()


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k5():
    return complete_graph(5)


def _brute_force_records(graph, shifts, within=None):
    """Every shifted-flood record, from one full BFS per source.

    ``records[v]`` lists ``(value, source, dist)`` for every source whose
    token reaches ``v`` inside ``within`` with value ``>= -1`` (the
    value is ``dist`` successive ``- 1.0`` decrements of the shift, as
    the flood computes it), in decreasing ``(value, source)`` order.
    """
    allowed = None if within is None else set(within)
    sources = range(graph.n) if allowed is None else sorted(allowed)
    records = [[] for _ in range(graph.n)]
    for u in sources:
        for v, d in graph.bfs_distances([u], within=allowed).items():
            value = shifts[u]
            for _ in range(d):
                value -= 1.0
            if value >= -1.0:
                records[v].append((value, u, d))
    for recs in records:
        recs.sort(reverse=True)
    return records


@pytest.fixture
def brute_force_records():
    """The flood oracle :func:`_brute_force_records` (EN/MPX/sparse cover)."""
    return _brute_force_records


def _assert_same_graph(got, want):
    """``got`` equals ``want`` in every stored field: ``_edges``,
    ``_adj``, the edge set behind ``has_edge``, ``==``/``hash``, and the
    CSR arrays against the per-vertex :class:`CsrGraph` build of
    ``want`` (values and dtypes)."""
    from repro.graphs.csr import CsrGraph

    assert got.n == want.n
    assert got._edges == want._edges
    assert got._adj == want._adj
    assert got._frozen_edge_set == want._frozen_edge_set
    assert got == want and hash(got) == hash(want)
    mine, ref = got.csr(), CsrGraph(want)
    assert (mine.n, mine.nnz) == (ref.n, ref.nnz)
    for field in ("indptr", "indices", "degrees", "_gather_index", "_starts"):
        a, b = getattr(mine, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), field
    if ref._zero_degree is None:
        assert mine._zero_degree is None
    else:
        assert mine._zero_degree.tolist() == ref._zero_degree.tolist()


@pytest.fixture
def assert_same_graph():
    """The field-by-field graph comparison :func:`_assert_same_graph`."""
    return _assert_same_graph
