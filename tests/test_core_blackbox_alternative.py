"""Tests for the Section 1.6 blackbox and Section 4 alternative approach."""

import math

import numpy as np
import pytest

from repro.core import alternative_packing, blackbox_ldd
from repro.core.blackbox import _HALF_LAMBDA
from repro.graphs import (
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
)
from repro.graphs.metrics import validate_partition
from repro.ilp import (
    SolveCache,
    max_independent_set_ilp,
    solve_packing_exact,
)


class TestBlackbox:
    @pytest.mark.parametrize("seed", range(3))
    def test_valid_partition(self, seed):
        g = grid_graph(7, 7)
        d = blackbox_ldd(g, eps=0.3, seed=seed)
        validate_partition(g, d.clusters, d.deleted)

    def test_unclustered_fraction(self):
        g = cycle_graph(90)
        eps = 0.3
        fractions = []
        for seed in range(10):
            d = blackbox_ldd(g, eps=eps, seed=seed)
            fractions.append(len(d.deleted) / g.n)
        assert max(fractions) <= eps + 0.05

    def test_round_factor_smaller_than_direct(self):
        """Section 1.6's point: log(1/ε) instead of log³(1/ε) — at equal
        ε the blackbox's nominal rounds undercut the direct algorithm's."""
        from repro.core import low_diameter_decomposition

        g = cycle_graph(60)
        eps = 0.15
        bb = blackbox_ldd(g, eps=eps, seed=1)
        direct = low_diameter_decomposition(g, eps=eps, seed=1)
        assert bb.ledger.nominal_rounds < direct.ledger.nominal_rounds

    def test_half_decomposition_deletes_under_half(self):
        """The inner Elkin–Neiman run is a half-decomposition: its
        per-vertex deletion probability 1 − e^{−λ} stays below 1/2."""
        assert 0 < 1 - math.exp(-_HALF_LAMBDA) < 0.5


class TestAlternativePacking:
    @pytest.mark.parametrize("seed", range(2))
    def test_feasible_and_near_optimal(self, seed):
        cache = SolveCache()
        g = erdos_renyi_connected(36, 0.09, np.random.default_rng(seed))
        inst = max_independent_set_ilp(g)
        result = alternative_packing(
            inst, eps=0.3, seed=seed, ensemble_cap=12, cache=cache
        )
        opt = solve_packing_exact(inst, cache=cache).weight
        assert inst.is_feasible(result.chosen)
        # The alternative analysis gives (1 - O(eps)); empirically at
        # this scale the solutions are close to optimal.
        assert result.weight >= (1 - 2 * 0.3) * opt - 1e-9

    def test_ensemble_diagnostics(self):
        g = cycle_graph(40)
        inst = max_independent_set_ilp(g)
        result = alternative_packing(
            inst, eps=0.3, seed=5, ensemble_cap=8
        )
        assert result.ensemble_size <= 8
        assert len(result.ensemble_weights) == result.ensemble_size
        # Every ensemble member is a feasible packing of the cycle:
        # weights lie in [0, n/2].
        assert all(0 <= w <= 20 for w in result.ensemble_weights)
