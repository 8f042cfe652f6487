"""Property tests for incremental LDD repair under churn.

The contract: after any churn batch, :func:`repair_decomposition`
produces a decomposition satisfying the *same* invariants a full
rebuild would — valid partition (disjoint clusters covering the
non-deleted vertices, mutually non-adjacent: the C1 ball property's
carrier) and the practical profile's weak-diameter budget — while
recarving only the dirty region.  When every cluster is dirtied the
repair degenerates to a bit-exact full rebuild.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ChurnBatch,
    LddParams,
    apply_churn,
    chang_li_ldd,
    dirty_cluster_indices,
    repair_decomposition,
    sample_churn,
)
from repro.graphs import (
    Graph,
    cycle_graph,
    grid_graph,
    random_geometric,
    random_regular,
)
from repro.graphs.metrics import validate_partition
from repro.util.rng import ensure_rng
from repro.util.validation import require


def diameter_budget(params: LddParams, ntilde: int) -> float:
    # Lemma 3.2 bound, as pinned by tests/test_core_ldd.py.
    return 2 * (params.t + 2) * params.interval_length + math.ceil(
        8 * math.log(ntilde) / params.phase3_lambda
    )


def fragmenting_params(n: int, eps: float = 0.2, r_scale: float = 1.0):
    return LddParams.practical(eps, n, r_scale=r_scale)


def churn_rounds(graph, params, seed, rounds=3, fraction=0.2):
    """Drive ``rounds`` of sampled churn + repair; yield each state."""
    dec = chang_li_ldd(graph, params, seed=seed)
    rng = ensure_rng(seed + 1)
    for r in range(rounds):
        k = max(1, round(fraction * len(dec.clusters)))
        batch = sample_churn(
            graph, dec, rng, clusters=k, additions=2 * k, removals=k
        )
        graph = apply_churn(graph, batch)
        result = repair_decomposition(
            graph, dec, batch.edges, params, seed=seed + 2 + r
        )
        dec = result.decomposition
        yield graph, dec, result


FAMILIES = [
    pytest.param(lambda: cycle_graph(300), 1.0, id="cycle"),
    pytest.param(lambda: grid_graph(18, 18), 0.1, id="grid"),
    pytest.param(
        lambda: random_geometric(300, 0.07, ensure_rng(9)),
        0.15,
        id="geometric",
    ),
]


class TestRepairInvariants:
    @pytest.mark.parametrize("build, r_scale", FAMILIES)
    def test_valid_partition_across_churn(self, build, r_scale):
        graph = build()
        params = fragmenting_params(graph.n, r_scale=r_scale)
        base = chang_li_ldd(graph, params, seed=4)
        assert len(base.clusters) >= 3, "family must fragment for the test"
        for g, dec, _ in churn_rounds(graph, params, seed=4):
            validate_partition(g, dec.clusters, dec.deleted)

    @pytest.mark.parametrize("build, r_scale", FAMILIES)
    def test_weak_diameter_budget_across_churn(self, build, r_scale):
        graph = build()
        params = fragmenting_params(graph.n, r_scale=r_scale)
        budget = diameter_budget(params, graph.n)
        for g, dec, _ in churn_rounds(graph, params, seed=11, rounds=2):
            for cluster in dec.clusters:
                assert g.weak_diameter(cluster) <= budget

    def test_repair_is_local(self):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        for g, dec, result in churn_rounds(
            graph, params, seed=7, fraction=0.1
        ):
            assert not result.full_rebuild
            assert 0 < result.recarved_vertices < g.n
            # Clean clusters survive untouched.
            dirty = set(result.dirty_clusters)
            assert dirty, "sampled churn must dirty something"

    def test_deterministic(self):
        graph = grid_graph(15, 15)
        params = fragmenting_params(graph.n, r_scale=0.1)
        runs = []
        for _ in range(2):
            states = list(churn_rounds(graph, params, seed=3, rounds=2))
            runs.append(
                [
                    (dec.clusters, dec.deleted)
                    for _, dec, _ in states
                ]
            )
        assert runs[0] == runs[1]


class TestAllDirtyEqualsRebuild:
    def test_all_clusters_dirty_is_bitwise_rebuild(self):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=11)
        assert len(dec.clusters) >= 3
        # One incident edge per cluster dirties every cluster.
        dirty = []
        for cluster in dec.clusters:
            v = min(cluster)
            dirty.append((v, int(graph.neighbors(v)[0])))
        result = repair_decomposition(
            graph, dec, dirty, params, seed=13, validate=True
        )
        rebuilt = chang_li_ldd(graph, params, seed=13)
        assert result.full_rebuild
        assert result.recarved_vertices == graph.n
        assert result.decomposition.clusters == rebuilt.clusters
        assert result.decomposition.deleted == rebuilt.deleted


class TestChurnPlumbing:
    def test_empty_churn_is_noop(self):
        graph = cycle_graph(120)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=2)
        result = repair_decomposition(graph, dec, [], params, seed=5)
        assert result.decomposition is dec
        assert result.recarved_vertices == 0
        assert result.dirty_clusters == ()

    def test_apply_churn_edits_edge_set(self):
        graph = cycle_graph(10)
        batch = ChurnBatch(added=((0, 5),), removed=((0, 1),))
        out = apply_churn(graph, batch)
        edges = set(out.edges())
        assert (0, 5) in edges and (0, 1) not in edges
        assert out.n == graph.n

    def test_apply_churn_rejects_missing_removal(self):
        graph = cycle_graph(10)
        with pytest.raises(Exception):
            apply_churn(graph, ChurnBatch(added=(), removed=((0, 5),)))

    @pytest.mark.parametrize(
        "edges, match",
        [
            ([(0, 300)], "vertex churn is not supported"),
            ([(-1, 4)], "vertex churn is not supported"),
            ([(7, 7)], "distinct vertices"),
            ([(0, 1.5)], "integers"),
        ],
    )
    def test_repair_rejects_bad_churn_edges(self, edges, match):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=1)
        with pytest.raises(ValueError, match=match):
            repair_decomposition(graph, dec, edges, params, seed=2)

    def test_dirty_cluster_indices(self):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=1)
        v = min(dec.clusters[0])
        u = int(graph.neighbors(v)[0])
        dirty = dirty_cluster_indices(dec, [(v, u)])
        assert 0 in dirty
        assert all(0 <= i < len(dec.clusters) for i in dirty)

    def test_sample_churn_respects_cluster_budget(self):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=1)
        rng = ensure_rng(6)
        batch = sample_churn(
            graph, dec, rng, clusters=2, additions=4, removals=2
        )
        assert len(batch) > 0
        assert len(dirty_cluster_indices(dec, batch.edges)) <= 2

    def test_sample_churn_deterministic(self):
        graph = cycle_graph(300)
        params = fragmenting_params(graph.n)
        dec = chang_li_ldd(graph, params, seed=1)
        batches = [
            sample_churn(
                graph, dec, ensure_rng(6), clusters=2, additions=4, removals=2
            )
            for _ in range(2)
        ]
        assert batches[0] == batches[1]

    def test_churn_on_geometric_with_deleted_readmission(self):
        # Geometric graphs exercise the deleted-readmission path: track
        # that readmitted counts stay within the deleted pool.
        graph = random_geometric(300, 0.07, ensure_rng(9))
        params = fragmenting_params(graph.n, r_scale=0.15)
        dec = chang_li_ldd(graph, params, seed=4)
        rng = ensure_rng(10)
        k = max(1, len(dec.clusters) // 3)
        batch = sample_churn(
            graph, dec, rng, clusters=k, additions=2 * k, removals=k
        )
        g2 = apply_churn(graph, batch)
        result = repair_decomposition(
            g2, dec, batch.edges, params, seed=5, validate=True
        )
        assert 0 <= result.readmitted_deleted <= len(dec.deleted)


def set_apply_churn(graph, batch):
    """The set-based ``apply_churn`` that the key-array version replaced,
    kept as its reference."""

    def normalized(edges):
        out = []
        for u, v in edges:
            require(u != v, "churn edges must join distinct vertices")
            out.append((u, v) if u < v else (v, u))
        return out

    edges = set(graph.edges())
    for edge in normalized(batch.removed):
        require(edge in edges, "removed edge is not in the graph")
        edges.discard(edge)
    for edge in normalized(batch.added):
        require(
            0 <= edge[0] < graph.n and 0 <= edge[1] < graph.n,
            "added edge endpoint out of range",
        )
        edges.add(edge)
    return Graph(graph.n, sorted(edges))


def random_batch(graph, rng):
    """Removals: distinct existing edges, some reversed.  Additions:
    random pairs, including existing edges, repeats within the batch,
    both orientations and edges removed by the same batch."""
    edges = graph.edges()
    removed = []
    if edges:
        size = int(rng.integers(0, min(12, len(edges)) + 1))
        picks = rng.choice(len(edges), size=size, replace=False)
        for p in picks.tolist():
            u, v = edges[p]
            removed.append((v, u) if rng.random() < 0.5 else (u, v))
    added = []
    for _ in range(int(rng.integers(0, 16))):
        u, v = (int(x) for x in rng.choice(graph.n, size=2, replace=False))
        added.append((u, v))
    if added:
        added.append(added[0])
        added.append(added[-1][::-1])
    if removed:
        added.append(removed[0])
    if edges:
        added.append(edges[int(rng.integers(len(edges)))])
    return ChurnBatch(added=tuple(added), removed=tuple(removed))


CHURN_GRAPHS = [
    pytest.param(lambda: grid_graph(9, 13), id="grid"),
    pytest.param(lambda: grid_graph(1, 2), id="grid-1x2"),
    pytest.param(lambda: cycle_graph(57), id="cycle"),
    pytest.param(lambda: random_regular(60, 3, ensure_rng(2)), id="regular"),
    # Built by Graph(n, edges): its CSR comes from the per-vertex path.
    pytest.param(lambda: Graph(12, [(0, 5), (3, 4), (4, 9)]), id="sparse"),
]


class TestApplyChurnArrays:
    """The key-array ``apply_churn`` builds the same graph as the set
    code, field by field, over chains of random batches."""

    @pytest.mark.parametrize("build", CHURN_GRAPHS)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_reference(self, build, seed, assert_same_graph):
        rng = np.random.default_rng(seed)
        graph = build()
        for _ in range(4):
            batch = random_batch(graph, rng)
            got = apply_churn(graph, batch)
            assert_same_graph(got, set_apply_churn(graph, batch))
            for u, v in batch.added:
                assert got.has_edge(u, v) and got.has_edge(v, u)
            graph = got

    def test_empty_batch(self, assert_same_graph):
        graph = grid_graph(4, 5)
        assert_same_graph(apply_churn(graph, ChurnBatch((), ())), graph)
        assert_same_graph(apply_churn(Graph(0), ChurnBatch((), ())), Graph(0))

    def test_add_existing_edge_is_noop(self, assert_same_graph):
        graph = cycle_graph(8)
        out = apply_churn(graph, ChurnBatch(added=((1, 0), (2, 3)), removed=()))
        assert_same_graph(out, graph)

    def test_remove_and_readd(self, assert_same_graph):
        graph = cycle_graph(8)
        out = apply_churn(graph, ChurnBatch(added=((3, 2),), removed=((2, 3),)))
        assert_same_graph(out, graph)

    def test_remove_everything(self, assert_same_graph):
        graph = cycle_graph(5)
        out = apply_churn(graph, ChurnBatch(added=(), removed=graph.edges()))
        assert_same_graph(out, Graph(5))

    @pytest.mark.parametrize(
        "added, removed, match",
        [
            (((0, 10),), (), "added edge endpoint out of range"),
            (((-1, 3),), (), "added edge endpoint out of range"),
            (((4, 4),), (), "distinct vertices"),
            ((), ((4, 4),), "distinct vertices"),
            ((), ((0, 5),), "removed edge is not in the graph"),
            ((), ((0, 1), (1, 0)), "removed edge is not in the graph"),
            ((), ((0, 1), (0, 1)), "removed edge is not in the graph"),
            ((), ((9, 10),), "removed edge is not in the graph"),
            ((), ((-1, 0),), "removed edge is not in the graph"),
            # The set code checks every removal before any addition.
            (((0, 10),), ((0, 5),), "removed edge is not in the graph"),
        ],
    )
    def test_rejects_like_the_set_code(self, added, removed, match):
        graph = cycle_graph(10)
        batch = ChurnBatch(added=added, removed=removed)
        with pytest.raises(ValueError, match=match):
            set_apply_churn(graph, batch)
        with pytest.raises(ValueError, match=match):
            apply_churn(graph, batch)

    @pytest.mark.parametrize(
        "added, removed",
        [(((0, 2.5),), ()), ((), ((0, 1.5),)), (((0.5, 2),), ())],
    )
    def test_rejects_non_integer_endpoints(self, added, removed):
        # The set code let Graph() truncate (0, 2.5) to (0, 2).
        with pytest.raises(ValueError, match="integers"):
            apply_churn(cycle_graph(10), ChurnBatch(added=added, removed=removed))

    def test_traced_as_its_own_span(self):
        with obs.collect() as col:
            apply_churn(cycle_graph(10), ChurnBatch(added=((0, 5),), removed=()))
        assert "repair.apply_churn" in col.span_table()
