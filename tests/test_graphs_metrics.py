"""Tests for solution and decomposition metrics."""


import pytest

from repro.graphs import (
    cycle_graph,
    decomposition_stats,
    grid_graph,
    is_dominating_set,
    is_independent_set,
    is_matching,
    is_vertex_cover,
    path_graph,
    validate_partition,
)
from repro.graphs.metrics import cut_size


class TestSolutionChecks:
    def test_independent_set(self):
        g = cycle_graph(6)
        assert is_independent_set(g, {0, 2, 4})
        assert not is_independent_set(g, {0, 1})
        assert is_independent_set(g, set())

    def test_vertex_cover(self):
        g = cycle_graph(6)
        assert is_vertex_cover(g, {0, 2, 4})
        assert not is_vertex_cover(g, {0, 3})

    def test_dominating_set(self):
        g = path_graph(7)
        assert is_dominating_set(g, {1, 4, 6})
        assert not is_dominating_set(g, {0})
        assert is_dominating_set(g, {3}, k=3)

    def test_matching(self):
        g = cycle_graph(6)
        assert is_matching(g, [(0, 1), (2, 3)])
        assert not is_matching(g, [(0, 1), (1, 2)])
        assert not is_matching(g, [(0, 2)])  # not an edge

    def test_cut_size(self):
        g = cycle_graph(6)
        assert cut_size(g, {0, 2, 4}) == 6
        assert cut_size(g, {0, 1, 2}) == 2


class TestDecompositionValidation:
    def test_valid_partition(self):
        g = path_graph(5)
        validate_partition(g, [{0, 1}, {3, 4}], {2})

    def test_overlap_detected(self):
        g = path_graph(4)
        with pytest.raises(AssertionError, match="clusters"):
            validate_partition(g, [{0, 1}, {1, 2}], {3})

    def test_missing_vertex_detected(self):
        g = path_graph(4)
        with pytest.raises(AssertionError, match="covers"):
            validate_partition(g, [{0, 1}], {3})

    def test_adjacent_clusters_detected(self):
        g = path_graph(4)
        with pytest.raises(AssertionError, match="non-adjacent"):
            validate_partition(g, [{0, 1}, {2, 3}], set())

    def test_both_clustered_and_deleted(self):
        g = path_graph(3)
        with pytest.raises(AssertionError, match="deleted"):
            validate_partition(g, [{0, 1}], {1, 2})

    def test_stats(self):
        g = grid_graph(3, 3)
        stats = decomposition_stats(g, [{0, 1, 2}, {6, 7, 8}], {3, 4, 5})
        assert stats.num_clusters == 2
        assert stats.unclustered == 3
        assert stats.unclustered_fraction == pytest.approx(3 / 9)
        assert stats.max_weak_diameter == 2
        assert stats.max_cluster_size == 3
