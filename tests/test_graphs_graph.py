"""Unit and property tests for the Graph data structure."""


import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, cycle_graph, erdos_renyi, grid_graph, path_graph


def edges_strategy(max_n=12):
    return st.integers(3, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert g.diameter() == 0

    def test_dedup_and_symmetry(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.neighbors(0) == (1,)
        assert g.neighbors(1) == (0,)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_from_edges_infers_n(self):
        g = Graph.from_edges([(0, 5)])
        assert g.n == 6

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_union_disjoint(self):
        g = path_graph(3).union_disjoint(path_graph(2))
        assert g.n == 5
        assert g.m == 3
        assert g.has_edge(3, 4)
        assert not g.has_edge(2, 3)


class TestBfs:
    def test_distances_on_path(self):
        g = path_graph(5)
        dist = g.bfs_distances([0])
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_truncated_radius(self):
        g = path_graph(10)
        assert set(g.bfs_distances([0], radius=3)) == {0, 1, 2, 3}

    def test_multi_source(self):
        g = path_graph(7)
        dist = g.bfs_distances([0, 6])
        assert dist[3] == 3
        assert dist[1] == 1
        assert dist[5] == 1

    def test_ball_and_layers(self):
        g = cycle_graph(8)
        assert g.ball(0, 1) == {7, 0, 1}
        layers = g.bfs_layers([0], radius=2)
        assert layers[0] == {0}
        assert layers[1] == {1, 7}
        assert layers[2] == {2, 6}

    def test_distance_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.distance(0, 3) == float("inf")
        assert g.eccentricity(0) == float("inf")
        assert g.diameter() == float("inf")


class TestStructure:
    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[0, 1], [2, 3], [4]]

    def test_components_within(self):
        g = path_graph(5)
        comps = sorted(map(sorted, g.connected_components(within={0, 1, 3, 4})))
        assert comps == [[0, 1], [3, 4]]

    def test_induced_subgraph(self):
        g = cycle_graph(6)
        sub, mapping = g.induced_subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 2
        assert mapping[0] == 0

    def test_power_graph(self):
        g = path_graph(5)
        p2 = g.power(2)
        assert p2.has_edge(0, 2)
        assert not p2.has_edge(0, 3)
        assert p2.m == 4 + 3

    def test_weak_vs_strong_diameter(self):
        g = cycle_graph(8)
        subset = {0, 4}
        assert g.weak_diameter(subset) == 4
        assert g.strong_diameter(subset) == float("inf")

    def test_girth(self):
        assert cycle_graph(7).girth() == 7
        assert path_graph(5).girth() == float("inf")
        assert grid_graph(3, 3).girth() == 4

    def test_bipartite(self):
        assert grid_graph(3, 4).is_bipartite()
        assert cycle_graph(6).is_bipartite()
        assert not cycle_graph(5).is_bipartite()

    def test_regular(self):
        assert cycle_graph(5).is_regular()
        assert not path_graph(3).is_regular()


class TestNetworkxParity:
    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_distances_match_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        nxg = g.to_networkx()
        for source in range(0, n, max(1, n // 3)):
            ours = g.bfs_distances([source])
            theirs = nx.single_source_shortest_path_length(nxg, source)
            assert ours == dict(theirs)

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_components_match_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(
            sorted(c) for c in nx.connected_components(g.to_networkx())
        )
        assert ours == theirs

    @settings(max_examples=20, deadline=None)
    @given(edges_strategy(10))
    def test_girth_matches_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        nxg = g.to_networkx()
        try:
            expected = nx.girth(nxg)
        except Exception:  # pragma: no cover - very old networkx
            pytest.skip("nx.girth unavailable")
        assert g.girth() == expected

    def test_round_trip(self):
        g = grid_graph(4, 4)
        assert Graph.from_networkx(g.to_networkx()) == g


class TestFromNetworkxRelabelling:
    def test_noncontiguous_integer_labels_sort_numerically(self):
        """Regression: labels were sorted by repr, so ``10 < 2 < 30``
        and a path ``2-10-30`` imported with the wrong vertex in the
        middle.  Integer labels must relabel in numeric order."""
        nxg = nx.Graph()
        nxg.add_edges_from([(2, 10), (10, 30)])
        g = Graph.from_networkx(nxg)
        # numeric order: 2 -> 0, 10 -> 1, 30 -> 2; the center is vertex 1
        assert g.edges() == ((0, 1), (1, 2))
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_path_does_not_become_star(self):
        """A longer path with repr-disordered labels (100 < 20 < 3 by
        repr) keeps its path structure *and* its numeric vertex order."""
        labels = [3, 20, 100, 1000]
        nxg = nx.Graph()
        nxg.add_edges_from(itertools.pairwise(labels))
        g = Graph.from_networkx(nxg)
        assert g.edges() == ((0, 1), (1, 2), (2, 3))
        assert g.to_networkx().degree(0) == 1

    def test_contiguous_labels_map_to_themselves(self):
        nxg = nx.Graph()
        nxg.add_nodes_from([3, 1, 0, 2])
        nxg.add_edge(3, 0)
        g = Graph.from_networkx(nxg)
        assert g.has_edge(0, 3)

    def test_string_labels_fall_back_to_repr_order(self):
        nxg = nx.Graph()
        nxg.add_edges_from([("b", "a"), ("b", "c")])
        g = Graph.from_networkx(nxg)
        assert g.n == 3
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def _csr_eccentricities(graph):
    """Per-vertex eccentricities read off the CSR distance rows (``inf``
    for a vertex that cannot reach every other vertex)."""
    dist = graph.csr().distances_from(range(graph.n))
    ecc = dist.max(axis=1, initial=0).astype(np.float64)
    ecc[(dist < 0).any(axis=1)] = np.inf
    return ecc


def _csr_diameter(graph):
    return float(_csr_eccentricities(graph).max(initial=0))


class TestDiameterBackends:
    """Graph.diameter/eccentricity against the CSR distance kernel."""

    CASES = (
        Graph(0, []),
        Graph(1, []),
        Graph(2, []),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    )

    def test_diameter_matches_python(self):
        from repro.graphs import random_tree

        graphs = [
            *self.CASES,
            grid_graph(5, 6),
            random_tree(30, np.random.default_rng(1)),
        ]
        for graph in graphs:
            assert graph.diameter() == _csr_diameter(graph), graph

    def test_eccentricity_matches_python(self):
        for graph in self.CASES:
            ecc = _csr_eccentricities(graph)
            for v in range(graph.n):
                assert graph.eccentricity(v) == ecc[v], (graph, v)

    def test_strong_diameter_matches_kernel(self):
        graph = grid_graph(4, 4)
        subset = [0, 1, 2, 5, 6]
        sub, _ = graph.induced_subgraph(subset)
        assert graph.strong_diameter(subset) == _csr_diameter(sub)

    def test_csr_eccentricities_batch(self):
        """On a connected graph the all-source ball depths at an
        unbounded radius are the eccentricities."""
        graph = grid_graph(4, 5)
        _, depths = graph.csr().all_ball_sizes(None)
        assert depths.shape == (20,)
        assert [graph.eccentricity(v) for v in range(graph.n)] == depths.tolist()
        assert depths.tolist() == _csr_eccentricities(graph).tolist()
        disconnected = Graph(3, [(0, 1)])
        assert np.isinf(_csr_eccentricities(disconnected)).all()



def _comprehension_induced_subgraph(graph, vertices):
    """The per-vertex comprehension that ``induced_subgraph`` replaced,
    kept as its reference."""
    vs = sorted(set(vertices))
    mapping = {v: i for i, v in enumerate(vs)}
    sub_edges = [
        (mapping[u], mapping[w])
        for u in vs
        for w in graph.neighbors(u)
        if u < w and w in mapping
    ]
    return Graph(len(vs), sub_edges), mapping


class TestFromEdgeArrays:
    """``Graph.from_edge_arrays`` (generators, ``CsrGraph.power``,
    ``apply_churn``, ``induced_subgraph``) builds exactly the graph
    ``Graph(n, edges)`` builds, CSR arrays included."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_edge_lists(self, seed, assert_same_graph):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        us = rng.integers(0, n, size=m)
        vs = rng.integers(0, n, size=m)
        keep = us != vs
        us, vs = us[keep], vs[keep]
        # Every third edge again, reversed: duplicates in both orientations.
        us, vs = np.concatenate((us, vs[::3])), np.concatenate((vs, us[::3]))
        edges = list(zip(us.tolist(), vs.tolist(), strict=True))
        assert_same_graph(Graph.from_edge_arrays(n, us, vs), Graph(n, edges))

    @given(edges_strategy())
    @settings(max_examples=60, deadline=None)
    def test_property(self, case):
        n, edges = case
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        got = Graph.from_edge_arrays(n, us, vs)
        want = Graph(n, edges)
        assert (got._edges, got._adj) == (want._edges, want._adj)
        assert got.csr().indices.tolist() == [w for a in want._adj for w in a]

    @pytest.mark.parametrize(
        "n, edges",
        [
            (0, []),
            (1, []),
            (5, []),
            (6, [(0, 1)]),  # trailing isolated vertices
            (7, [(2, 1), (1, 2), (3, 0), (2, 1)]),
            (4, [(0, 1), (0, 2), (0, 3), (1, 2)]),  # already sorted
        ],
    )
    def test_edge_cases(self, n, edges, assert_same_graph):
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        assert_same_graph(Graph.from_edge_arrays(n, us, vs), Graph(n, edges))

    def test_integral_floats_accepted(self, assert_same_graph):
        got = Graph.from_edge_arrays(3, np.array([0.0, 2.0]), np.array([2.0, 1.0]))
        assert_same_graph(got, Graph(3, [(0, 2), (1, 2)]))

    @pytest.mark.parametrize(
        "n, us, vs, match",
        [
            (3, [0], [3], "out of range"),
            (3, [-1], [1], "out of range"),
            (3, [1], [1], "self-loop"),
            (3, [0.5], [1], "integers"),
            (3, ["0"], [1], "integers"),
            (3, [0, 1], [1], "equal length"),
            (-1, [], [], "non-negative"),
        ],
    )
    def test_rejects(self, n, us, vs, match):
        with pytest.raises(ValueError, match=match):
            Graph.from_edge_arrays(n, us, vs)

    def test_csr_is_filled(self):
        graph = Graph.from_edge_arrays(4, [0, 1], [1, 2])
        assert graph._csr is not None
        assert graph.csr() is graph._csr


class TestInducedSubgraphArrays:
    """The CSR-gather ``induced_subgraph`` equals the comprehension it
    replaced: same subgraph fields, same ``mapping``."""

    @staticmethod
    def _graphs(rng):
        n = int(rng.integers(2, 40))
        return [
            erdos_renyi(n, 0.15, rng),
            grid_graph(int(rng.integers(1, 6)), int(rng.integers(1, 6))),
            cycle_graph(int(rng.integers(3, 30))),
            Graph(n + 3, [(0, 1), (1, 2)]),  # isolated trailing vertices
        ]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_comprehension(self, seed, assert_same_graph):
        rng = np.random.default_rng(seed)
        for graph in self._graphs(rng):
            size = int(rng.integers(0, graph.n + 1))
            subsets = [
                [],
                [int(rng.integers(graph.n))],
                range(graph.n),
                rng.choice(graph.n, size=size, replace=False).tolist(),
                # unsorted, with repeats, as a numpy array
                rng.integers(0, graph.n, size=graph.n),
            ]
            for subset in subsets:
                sub, mapping = graph.induced_subgraph(subset)
                ref, ref_mapping = _comprehension_induced_subgraph(graph, subset)
                assert mapping == ref_mapping
                assert_same_graph(sub, ref)

    def test_empty_graph(self, assert_same_graph):
        sub, mapping = Graph(0).induced_subgraph([])
        assert mapping == {}
        assert_same_graph(sub, Graph(0))

    @pytest.mark.parametrize("subset", [[0, 9], [-1, 2], [0.5]])
    def test_rejects_bad_vertices(self, subset):
        with pytest.raises(ValueError):
            path_graph(9).induced_subgraph(subset)
