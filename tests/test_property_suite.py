"""Cross-cutting hypothesis property tests on core invariants.

These complement the per-module tests with randomized structural
checks: power-graph distance semantics, restriction composition,
carve-zone isolation, and the subdivision independence formula — the
invariants the paper's proofs quietly rely on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.carve import grow_and_carve, grow_and_carve_packing
from repro.graphs import erdos_renyi_connected, subdivide
from repro.ilp import (
    max_independent_set_ilp,
    solve_packing_exact,
)

seeds = st.integers(0, 10_000_000)


def random_connected(rng, lo=6, hi=18, p=0.25):
    n = int(rng.integers(lo, hi))
    return erdos_renyi_connected(n, p, rng)


class TestPowerGraphSemantics:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(2, 4))
    def test_power_distance_is_ceil_division(self, seed, k):
        """dist_{G^k}(u, v) = ceil(dist_G(u, v) / k) on connected graphs."""
        rng = np.random.default_rng(seed)
        g = random_connected(rng)
        p = g.power(k)
        base = {
            (u, v): g.distance(u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        }
        for (u, v), d in base.items():
            expected = math.ceil(d / k)
            assert p.distance(u, v) == expected

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_power_one_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(rng)
        assert g.power(1) == g


class TestRestrictionComposition:
    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_packing_restriction_composes(self, seed):
        """Restricting to S then T equals restricting to S ∩ T, up to
        constraints that become empty (Observation 2.1 semantics)."""
        rng = np.random.default_rng(seed)
        g = random_connected(rng)
        inst = max_independent_set_ilp(g)
        s = {int(v) for v in rng.choice(g.n, size=max(2, g.n // 2), replace=False)}
        t = {int(v) for v in rng.choice(g.n, size=max(2, g.n // 2), replace=False)}
        double = inst.restrict(s).restrict(t)
        direct = inst.restrict(s & t)
        assert double.weights == direct.weights
        assert solve_packing_exact(double).weight == pytest.approx(
            solve_packing_exact(direct).weight
        )

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_local_optimum_monotone_in_subset(self, seed):
        """W(P_local_S) is monotone under subset inclusion."""
        rng = np.random.default_rng(seed)
        g = random_connected(rng)
        inst = max_independent_set_ilp(g)
        small = {int(v) for v in rng.choice(g.n, size=g.n // 3 + 1, replace=False)}
        big = small | {
            int(v) for v in rng.choice(g.n, size=g.n // 3 + 1, replace=False)
        }
        assert (
            solve_packing_exact(inst, subset=small).weight
            <= solve_packing_exact(inst, subset=big).weight + 1e-9
        )


class TestCarveIsolation:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_ldd_carve_separates(self, seed):
        """After Algorithm 1's carve, no edge joins the removed zone to
        the surviving residual (deleted vertices absorb the boundary)."""
        rng = np.random.default_rng(seed)
        g = random_connected(rng, lo=10, hi=24, p=0.18)
        remaining = set(range(g.n))
        center = int(rng.integers(0, g.n))
        outcome = grow_and_carve(g, [center], (2, 4), remaining)
        survivors = remaining - outcome.removed - outcome.deleted
        for u in outcome.removed:
            for w in g.neighbors(u):
                assert w not in survivors or w in outcome.deleted or w in outcome.removed

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_packing_carve_separates(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, lo=12, hi=26, p=0.15)
        inst = max_independent_set_ilp(g)
        remaining = set(range(g.n))
        center = int(rng.integers(0, g.n))
        outcome = grow_and_carve_packing(inst, g, [center], (4, 9), remaining)
        survivors = remaining - outcome.removed - outcome.deleted
        for row in inst.supports():
            support = set(row)
            touches_zone = bool(support & outcome.removed)
            touches_rest = bool(support & survivors)
            if touches_zone and touches_rest:
                # Only possible through a deleted (zeroed) vertex.
                assert support & outcome.deleted


class TestSubdivisionFormula:
    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(1, 2))
    def test_alpha_grows_by_xm(self, seed, x):
        """alpha(G_x) = alpha(G) + x·m (proof of Theorem B.3)."""
        rng = np.random.default_rng(seed)
        g = random_connected(rng, lo=5, hi=10, p=0.35)
        alpha = solve_packing_exact(max_independent_set_ilp(g)).weight
        s = subdivide(g, x)
        alpha_x = solve_packing_exact(
            max_independent_set_ilp(s.graph)
        ).weight
        assert alpha_x == alpha + x * g.m

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_subdivided_girth_stretches(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, lo=5, hi=9, p=0.4)
        base_girth = g.girth()
        if base_girth == float("inf"):
            return
        s = subdivide(g, 1)
        assert s.graph.girth() == base_girth * 3
