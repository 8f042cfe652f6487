"""Tests for MPX decomposition and the Lemma C.2/C.3 sparse cover."""

import math

import numpy as np
import pytest

from repro.analysis import empirical_dominates_geometric
from repro.decomp import (
    expected_cut_fraction_bound,
    geometric_domination_pvalue,
    mpx_decomposition,
    solve_covering_by_sparse_cover,
    sparse_cover,
    verify_edge_coverage,
)
from repro.graphs import (
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    path_graph,
)
from repro.ilp import (
    Constraint,
    CoveringInstance,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
    solve_covering_exact,
)


class TestMpx:
    def test_partition_covers_everything(self):
        g = grid_graph(6, 6)
        d = mpx_decomposition(g, 0.3, seed=0)
        assert sum(len(c) for c in d.clusters) == g.n
        assert not (set().union(*d.clusters) ^ set(range(g.n)))

    def test_cut_edges_consistent_with_owner(self):
        g = grid_graph(5, 5)
        d = mpx_decomposition(g, 0.3, seed=1)
        for u, v in g.edges():
            crossing = d.owner[u] != d.owner[v]
            assert ((u, v) in d.cut_edges) == crossing

    def test_expected_cut_fraction(self):
        """Mean cut fraction across seeds stays near the O(λ) bound."""
        g = cycle_graph(60)
        lam = 0.2
        fractions = [
            mpx_decomposition(g, lam, seed=s).cut_fraction(g)
            for s in range(30)
        ]
        mean = sum(fractions) / len(fractions)
        assert mean <= 2.5 * expected_cut_fraction_bound(lam)

    def test_cluster_diameter(self):
        g = grid_graph(7, 7)
        lam = 0.4
        ntilde = 49
        bound = 8 * math.log(ntilde) / lam
        d = mpx_decomposition(g, lam, ntilde=ntilde, seed=2)
        for cluster in d.clusters:
            assert g.weak_diameter(cluster) <= bound


class TestSparseCover:
    def _mds_hypergraph(self, g):
        return min_dominating_set_ilp(g).hypergraph()

    def test_every_hyperedge_covered(self):
        """Lemma C.2's coverage guarantee, across seeds and graphs."""
        for seed in range(6):
            g = erdos_renyi_connected(30, 0.1, np.random.default_rng(seed))
            h = self._mds_hypergraph(g)
            cover = sparse_cover(h, 0.3, seed=seed)
            assert verify_edge_coverage(h, cover) == []

    def test_multiplicity_geometric_domination(self):
        """Lemma C.2: X_v ⪯ Geometric(e^{-λ}) (+ ñ^{-2} slack)."""
        lam = 0.25
        g = grid_graph(7, 7)
        h = self._mds_hypergraph(g)
        samples = []
        for seed in range(25):
            cover = sparse_cover(h, lam, seed=seed)
            samples.extend(cover.multiplicity(g.n))
        assert empirical_dominates_geometric(
            samples, math.exp(-lam), slack=0.05
        )
        assert geometric_domination_pvalue(samples, lam) <= 1.3

    def test_cluster_weak_diameter(self):
        lam = 0.4
        ntilde = 36
        g = grid_graph(6, 6)
        h = self._mds_hypergraph(g)
        cover = sparse_cover(h, lam, ntilde=ntilde, seed=3)
        bound = 8 * math.log(ntilde) / lam
        primal = h.primal_graph()
        for cluster in cover.clusters:
            assert primal.weak_diameter(cluster) <= bound

    def test_within_restriction(self):
        g = path_graph(10)
        h = self._mds_hypergraph(g)
        within = set(range(5))
        cover = sparse_cover(h, 0.3, seed=4, within=within)
        for cluster in cover.clusters:
            assert cluster <= within


class TestCoveringBySparseCover:
    def test_mds_feasible_and_near_optimal(self):
        g = grid_graph(5, 5)
        inst = min_dominating_set_ilp(g)
        opt = solve_covering_exact(inst).weight
        for seed in range(5):
            chosen, cover = solve_covering_by_sparse_cover(
                inst, math.log(1 + 0.2 / 5), seed=seed
            )
            assert inst.is_feasible(chosen)
            # Lemma C.3 weight bound: sum X_v Q*(v) w_v; with tiny λ the
            # multiplicities are ~1 so the solution is near optimal.
            assert inst.weight(chosen) <= 1.6 * opt

    def test_weight_bound_lemma_c3(self):
        """W(sol) <= Σ_v X_v · Q*(v) · w_v, verified per run."""
        g = erdos_renyi_connected(24, 0.12, np.random.default_rng(9))
        inst = min_vertex_cover_ilp(g)
        qstar = solve_covering_exact(inst).chosen
        for seed in range(5):
            chosen, cover = solve_covering_by_sparse_cover(
                inst, 0.15, seed=seed
            )
            mult = cover.multiplicity(inst.n)
            bound = sum(mult[v] * inst.weights[v] for v in qstar)
            assert inst.weight(chosen) <= bound + 1e-9

    def test_set_cover_instance(self):
        inst = set_cover_ilp(
            5,
            elements=[[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
        )
        chosen, _ = solve_covering_by_sparse_cover(inst, 0.2, seed=1)
        assert inst.is_feasible(chosen)

    def test_fixed_ones_reduce_work(self):
        g = path_graph(8)
        inst = min_dominating_set_ilp(g)
        fixed = {1, 4}
        chosen, _ = solve_covering_by_sparse_cover(
            inst,
            0.2,
            seed=2,
            fixed_ones=fixed,
            edge_indices=np.flatnonzero(inst.load(fixed) < inst.bounds).tolist(),
        )
        assert inst.is_feasible(chosen | fixed)
        assert not (chosen & fixed)

    def test_empty_row_does_not_shift_constraint_indices(self):
        # The hypergraph skips the empty row, so its hyperedge j is
        # constraint j + 1; the solver must index constraints.
        inst = CoveringInstance(
            [1, 5, 1, 5],
            [
                Constraint({}, 0.0),
                Constraint({0: 1, 1: 1}, 1),
                Constraint({2: 1, 3: 1}, 1),
            ],
        )
        chosen, _ = solve_covering_by_sparse_cover(inst, 0.5, seed=1)
        assert inst.is_feasible(chosen)


class TestFloodReference:
    """MPX and the sparse cover against their references: MPX's owner
    is the brute-force argmax of ``T_u − dist(u, v)``, and the sparse
    cover's CSR within-1 membership equals the keep-all heap flood's
    ``within_one_sources``, which equals the brute-force within-1 set."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
    def test_mpx_matches_brute_force_argmax(self, seed, lam, brute_force_records):
        from repro.decomp import sample_shifts

        rng = np.random.default_rng(seed)
        graphs = [
            erdos_renyi_connected(28, 0.1, rng),
            grid_graph(5, 6),
            cycle_graph(24),
        ]
        for g in graphs:
            shifts = sample_shifts(g.n, lam, max(g.n, 2), seed=seed)
            d = mpx_decomposition(g, lam, shifts=shifts)
            oracle = brute_force_records(g, shifts)
            assert d.owner == {v: oracle[v][0][1] for v in range(g.n)}
            assert d.centers == sorted({recs[0][1] for recs in oracle})

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.7])
    def test_sparse_cover_matches_keep_all_flood(self, seed, lam, brute_force_records):
        from repro.decomp import sample_shifts, shifted_flood, within_one_sources

        rng = np.random.default_rng(100 + seed)
        # The path's primal diameter (20) runs past the CSR membership's
        # hop cap ⌊max − min shift⌋ + 2 at λ ≥ 0.2.
        for g in (erdos_renyi_connected(26, 0.12, rng), path_graph(40)):
            hg = min_dominating_set_ilp(g).hypergraph()
            primal = hg.primal_graph()
            n = primal.n
            shifts = sample_shifts(n, lam, max(n, 2), seed=seed)
            for within in [None, set(range(0, n, 2)), set(range(n // 2))]:
                records = shifted_flood(primal, shifts, keep=None, within=within)
                oracle = brute_force_records(primal, shifts, within)
                members, brute = {}, {}
                for v in sorted(within) if within is not None else range(n):
                    for rec in within_one_sources(records[v]):
                        members.setdefault(rec.source, set()).add(v)
                    top = oracle[v][0][0]
                    for value, source, _ in oracle[v]:
                        if value >= top - 1.0:
                            brute.setdefault(source, set()).add(v)
                assert members == brute, (seed, lam, within)
                cover = sparse_cover(hg, lam, shifts=shifts, within=within)
                assert cover.centers == sorted(members), (seed, lam, within)
                assert cover.clusters == [members[c] for c in sorted(members)]
