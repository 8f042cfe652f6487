"""Tests for the hypergraph substrate (Definition 1.3)."""

import pytest

from repro.graphs import Hypergraph, cycle_graph, path_graph
from repro.ilp.problems import min_dominating_set_ilp


class TestConstruction:
    def test_basic(self):
        h = Hypergraph(4, [{0, 1, 2}, {2, 3}])
        assert h.n == 4
        assert h.m == 2
        assert h.rank() == 3
        assert h.edge(0) == frozenset({0, 1, 2})

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [set()])

    def test_duplicates_kept(self):
        h = Hypergraph(3, [{0, 1}, {0, 1}])
        assert h.m == 2

    def test_incidence(self):
        h = Hypergraph(4, [{0, 1, 2}, {2, 3}])
        assert h.incident_edges(2) == (0, 1)
        assert h.incident_edges(3) == (1,)


class TestPrimalGraph:
    def test_primal_of_graph_edges(self):
        g = cycle_graph(5)
        h = Hypergraph.from_graph_edges(g)
        assert h.primal_graph() == g

    def test_primal_clique_per_edge(self):
        h = Hypergraph(4, [{0, 1, 2}])
        p = h.primal_graph()
        assert p.has_edge(0, 1) and p.has_edge(1, 2) and p.has_edge(0, 2)
        assert p.degree(3) == 0

    def test_hypergraph_distances(self):
        # Dominating-set hypergraph of a path: hyperedge per closed
        # neighborhood; primal distance halves (k=1 keeps them equal-ish).
        g = path_graph(6)
        h = min_dominating_set_ilp(g).hypergraph()
        p = h.primal_graph()
        # 0 and 2 share the hyperedge N[1], so they are primal-adjacent.
        assert p.has_edge(0, 2)
        assert p.distance(0, 5) <= g.distance(0, 5)


class TestEdgeQueries:
    def test_edges_inside_touching(self):
        h = Hypergraph(5, [{0, 1}, {1, 2, 3}, {3, 4}])
        assert h.edges_inside({0, 1, 2}) == [0]
        assert h.edges_touching({1}) == [0, 1]

    def test_restrict_edges(self):
        h = Hypergraph(5, [{0, 1}, {1, 2, 3}, {3, 4}])
        sub = h.restrict_edges([0, 2])
        assert sub.m == 2
        assert sub.edge(0) == frozenset({0, 1})
        assert sub.edge(1) == frozenset({3, 4})

    def test_closed_neighborhood_hyperedges(self):
        g = cycle_graph(4)
        h = min_dominating_set_ilp(g).hypergraph()
        assert h.m == 4
        assert h.edge(0) == frozenset({3, 0, 1})


class TestHyperedgeLayerSpan:
    def test_members_span_at_most_two_layers(self):
        """The structural fact Algorithm 7 relies on: a hyperedge's
        members are mutually primal-adjacent, hence their BFS layers
        span at most two consecutive values."""
        h = Hypergraph(7, [{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 0}])
        p = h.primal_graph()
        for root in range(7):
            dist = p.bfs_distances([root])
            for edge in h.edges():
                levels = {dist[v] for v in edge}
                assert max(levels) - min(levels) <= 1
