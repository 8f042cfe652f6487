"""Tests for the three Grow-and-Carve subroutines."""

import numpy as np

from repro.core.carve import (
    CarveOutcome,
    RoundOutcome,
    carve_round,
    grow_and_carve,
    grow_and_carve_covering,
    grow_and_carve_packing,
)
from repro.graphs import cycle_graph, erdos_renyi_connected, path_graph
from repro.ilp import (
    max_independent_set_ilp,
    min_dominating_set_ilp,
)
from repro.local.gather import PhaseCharge, RoundLedger


class TestGrowAndCarve:
    def test_deletes_a_single_layer(self):
        g = path_graph(20)
        remaining = set(range(20))
        outcome = grow_and_carve(g, [0], (3, 6), remaining)
        # Layers from 0 on a path are singletons; deleted layer is the
        # first minimal one (index 3), removed ball is N^2.
        assert outcome.deleted == {3}
        assert outcome.removed == {0, 1, 2}
        assert outcome.cut_position == 3

    def test_chooses_sparsest_layer(self):
        # Star-with-path: layer sizes from center: 1, k, 1, 1 ...
        g = path_graph(6).union_disjoint(path_graph(0))
        edges = [*g.edges(), (0, 6), (0, 7), (0, 8)]
        from repro.graphs import Graph

        g2 = Graph(9, edges)
        remaining = set(range(9))
        outcome = grow_and_carve(g2, [0], (1, 2), remaining)
        # layer 1 = {1, 6, 7, 8} (size 4), layer 2 = {2} (size 1).
        assert outcome.deleted == {2}

    def test_weighted_layer_choice(self):
        g = path_graph(6)
        remaining = set(range(6))
        weights = [1, 1, 100, 1, 1, 1]
        outcome = grow_and_carve(g, [0], (2, 3), remaining, weights=weights)
        assert outcome.deleted == {3}  # layer 2 weighs 100

    def test_component_exhausted_before_interval(self):
        g = path_graph(4)
        remaining = set(range(4))
        outcome = grow_and_carve(g, [0], (10, 12), remaining)
        assert outcome.removed == {0, 1, 2, 3}
        assert outcome.deleted == set()

    def test_respects_remaining(self):
        g = path_graph(10)
        remaining = {0, 1, 2, 3}
        outcome = grow_and_carve(g, [0], (2, 3), remaining)
        assert outcome.removed | outcome.deleted <= remaining


class TestGrowAndCarvePacking:
    def test_deletes_middle_layer_of_window(self):
        g = path_graph(30)
        inst = max_independent_set_ilp(g)
        remaining = set(range(30))
        outcome = grow_and_carve_packing(
            inst, g, [0], (4, 9), remaining
        )
        # Windows start at j ≡ 4 (mod 3): j = 4 or 7; middle layer j+1.
        assert outcome.cut_position in (4, 7)
        assert outcome.deleted == {outcome.cut_position + 1}
        assert outcome.removed == set(range(outcome.cut_position + 1))

    def test_zone_isolated_after_deletion(self):
        """Removed ∪ deleted separates the zone from the rest."""
        rng = np.random.default_rng(5)
        g = erdos_renyi_connected(40, 0.07, rng)
        inst = max_independent_set_ilp(g)
        remaining = set(range(40))
        outcome = grow_and_carve_packing(inst, g, [0], (4, 9), remaining)
        rest = remaining - outcome.removed - outcome.deleted
        for u in outcome.removed:
            for w in g.neighbors(u):
                assert w not in rest or w in outcome.deleted

    def test_early_exhaustion(self):
        g = cycle_graph(6)
        inst = max_independent_set_ilp(g)
        outcome = grow_and_carve_packing(
            inst, g, [0], (7, 12), set(range(6))
        )
        assert outcome.removed == set(range(6))
        assert outcome.deleted == set()


class TestGrowAndCarveCovering:
    def test_fixes_pair_and_removes_inner(self):
        g = path_graph(30)
        inst = min_dominating_set_ilp(g)
        remaining = set(range(30))
        outcome = grow_and_carve_covering(
            inst, g, [0], (3, 8), remaining, fixed_ones=set()
        )
        j = outcome.cut_position
        assert j % 2 == 1
        assert 3 <= j <= 7
        assert outcome.removed == set(range(j + 1))
        assert outcome.deleted == set()
        # Fixed variables lie in the pair S_j ∪ S_{j+1} = {j, j+1}.
        assert outcome.fixed_ones <= {j, j + 1}

    def test_crossing_constraints_satisfied(self):
        """Every constraint crossing the removal boundary is satisfied
        by the fixed assignment — the Algorithm 7 invariant.  Layers
        must be measured in the hypergraph's *primal* graph (constraint
        supports are cliques there, not in the base graph)."""
        rng = np.random.default_rng(8)
        for trial in range(5):
            g = erdos_renyi_connected(35, 0.08, rng)
            inst = min_dominating_set_ilp(g)
            primal = inst.hypergraph().primal_graph()
            remaining = set(range(g.n))
            outcome = grow_and_carve_covering(
                inst, primal, [trial], (3, 8), remaining, fixed_ones=set()
            )
            if not outcome.removed or outcome.removed == remaining:
                continue
            rest = remaining - outcome.removed
            load = inst.load(outcome.fixed_ones)
            for j, row in enumerate(inst.supports()):
                support = set(row)
                if support & outcome.removed and support & rest:
                    assert load[j] >= inst.bounds[j] - 1e-9

    def test_whole_component_removed_when_small(self):
        g = cycle_graph(5)
        inst = min_dominating_set_ilp(g)
        outcome = grow_and_carve_covering(
            inst, g, [0], (4, 9), set(range(5)), fixed_ones=set()
        )
        assert outcome.removed == set(range(5))
        assert outcome.fixed_ones == set()


class TestCarveRound:
    """The merge rule every driver's iteration goes through."""

    def test_merge_rule(self):
        g = path_graph(10)
        remaining = set(range(9))
        deleted = {9}
        outcomes = {
            0: CarveOutcome({0, 1, 2}, {3}, {1}, cut_position=3, depth=3),
            5: CarveOutcome({3, 4, 5, 6}, {7}, {4, 5}, cut_position=2, depth=5),
        }
        calls = []

        def carve(seeds, interval, snapshot):
            calls.append((seeds, interval, snapshot))
            return outcomes[min(seeds)]

        ledger = RoundLedger()
        out = carve_round(
            g, [{0}, {5, 9}, {9}], (2, 6), remaining, deleted, ledger, "r", carve
        )
        # Seeds are cut to the residual; a center left empty is skipped.
        assert [c[0] for c in calls] == [{0}, {5}]
        assert out.executed == 2
        # One residual mask, taken before the merge, shared by both carves.
        assert calls[0][2] is calls[1][2]
        assert calls[0][2].tolist() == [v < 9 for v in range(10)]
        # Deleted wins: 3 is carve 0's deletion and carve 5's removal.
        assert out.deleted == {3, 7}
        assert out.removed == {0, 1, 2, 4, 5, 6}
        assert out.fixed_ones == {1, 4, 5}
        # Residual and deletions are updated in place.
        assert deleted == {3, 7, 9}
        assert remaining == {8}
        # Charged once: 2b nominal, twice the deepest gather effective.
        assert ledger.charges == [PhaseCharge("r", 12, 10)]

    def test_round_without_centers_is_still_charged(self):
        def carve(seeds, interval, snapshot):
            raise AssertionError("no center to carve")

        remaining = {0, 1, 2}
        ledger = RoundLedger()
        out = carve_round(
            path_graph(3), [], (1, 3), remaining, set(), ledger, "idle", carve
        )
        assert out == RoundOutcome(set(), set(), set(), executed=0)
        assert remaining == {0, 1, 2}
        assert ledger.charges == [PhaseCharge("idle", 6, 0)]
