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

import pytest

from repro.core import (
    ChurnBatch,
    LddParams,
    apply_churn,
    chang_li_ldd,
    dirty_cluster_indices,
    repair_decomposition,
    sample_churn,
)
from repro.graphs import cycle_graph, grid_graph, random_geometric
from repro.graphs.metrics import validate_partition
from repro.util.rng import ensure_rng


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
