"""Exact-solver validation: brute force, MILP cross-checks, structure routing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ilp.exact as exact_module
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    petersen_graph,
)
from repro.ilp import (
    Constraint,
    CoveringInstance,
    PackingInstance,
    SolveCache,
    max_independent_set_ilp,
    max_matching_ilp,
    max_weight_independent_set,
    milp_solve,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
    solve_covering_exact,
    solve_mwis,
    solve_packing_exact,
)


def brute_force_packing(inst):
    best = 0.0
    for r in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), r):
            chosen = set(combo)
            if inst.is_feasible(chosen):
                best = max(best, inst.weight(chosen))
    return best


def brute_force_covering(inst):
    best = float("inf")
    for r in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), r):
            chosen = set(combo)
            if inst.is_feasible(chosen):
                best = min(best, inst.weight(chosen))
    return best


class TestMwisKnownValues:
    def test_cycle(self):
        assert solve_mwis(cycle_graph(7)).weight == 3
        assert solve_mwis(cycle_graph(8)).weight == 4

    def test_petersen(self):
        assert solve_mwis(petersen_graph()).weight == 4

    def test_weighted(self):
        g = Graph(3, [(0, 1), (1, 2)])
        s = solve_mwis(g, [1.0, 5.0, 1.0])
        assert s.weight == 5.0
        assert s.chosen == frozenset({1})

    def test_empty_graph(self):
        s = solve_mwis(Graph(4, []))
        assert s.weight == 4
        assert s.chosen == frozenset({0, 1, 2, 3})

    def test_solution_is_independent(self):
        g = erdos_renyi_connected(20, 0.2, np.random.default_rng(1))
        s = solve_mwis(g)
        for u in s.chosen:
            for w in g.neighbors(u):
                assert w not in s.chosen


class TestBitsetSolverProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_mwis_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        g = erdos_renyi_connected(n, 0.4, rng)
        weights = [float(w) for w in rng.integers(1, 9, size=n)]
        adjacency = [0] * n
        for u, v in g.edges():
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        weight, mask = max_weight_independent_set(adjacency, weights)
        best = 0.0
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                if all(
                    not g.has_edge(a, b)
                    for a, b in itertools.combinations(combo, 2)
                ):
                    best = max(best, sum(weights[v] for v in combo))
        assert weight == pytest.approx(best)


class TestDispatcherCrossChecks:
    @pytest.mark.parametrize("seed", range(6))
    def test_mis_vs_milp(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_connected(int(rng.integers(6, 16)), 0.3, rng)
        inst = max_independent_set_ilp(
            g, weights=[float(w) for w in rng.integers(1, 6, size=g.n)]
        )
        assert solve_packing_exact(inst).weight == pytest.approx(
            milp_solve(inst)[0]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matching_vs_milp(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = erdos_renyi_connected(int(rng.integers(6, 14)), 0.3, rng)
        enc = max_matching_ilp(g)
        assert solve_packing_exact(enc.instance).weight == pytest.approx(
            milp_solve(enc.instance)[0]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_mvc_vs_milp(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = erdos_renyi_connected(int(rng.integers(6, 16)), 0.3, rng)
        inst = min_vertex_cover_ilp(
            g, weights=[float(w) for w in rng.integers(1, 6, size=g.n)]
        )
        assert solve_covering_exact(inst).weight == pytest.approx(
            milp_solve(inst)[0]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_mds_vs_milp(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = erdos_renyi_connected(int(rng.integers(6, 14)), 0.25, rng)
        inst = min_dominating_set_ilp(g)
        assert solve_covering_exact(inst).weight == pytest.approx(
            milp_solve(inst)[0]
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_general_packing_bnb(self, seed):
        """Random non-conflict-form packing: B&B vs brute force."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        weights = [float(w) for w in rng.integers(1, 8, size=n)]
        constraints = []
        for _ in range(m):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            coeffs = {int(v): float(rng.integers(1, 4)) for v in support}
            constraints.append(Constraint(coeffs, float(rng.integers(1, 7))))
        inst = PackingInstance(weights, constraints)
        assert solve_packing_exact(inst).weight == pytest.approx(
            brute_force_packing(inst)
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_general_covering_bnb(self, seed):
        """Random satisfiable covering: B&B vs brute force."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        weights = [float(w) for w in rng.integers(1, 8, size=n)]
        constraints = []
        for _ in range(m):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            coeffs = {int(v): float(rng.integers(1, 4)) for v in support}
            cap = sum(coeffs.values())
            constraints.append(
                Constraint(coeffs, float(rng.uniform(0.5, cap)))
            )
        inst = CoveringInstance(weights, constraints)
        assert solve_covering_exact(inst).weight == pytest.approx(
            brute_force_covering(inst)
        )


class TestSetCoverBnb:
    def test_known_instance(self):
        # Elements 0..3; sets: {0,1}, {2,3}, {0,1,2,3}(heavy)
        inst = set_cover_ilp(
            3,
            elements=[[0, 2], [0, 2], [1, 2], [1, 2]],
            weights=[1.0, 1.0, 3.0],
        )
        sol = solve_covering_exact(inst)
        assert sol.weight == 2.0
        assert sol.chosen == frozenset({0, 1})

    def test_unsatisfiable_raises(self):
        inst = CoveringInstance([1.0], [Constraint({0: 1.0}, 2.0)])
        with pytest.raises(ValueError, match="unsatisfiable"):
            solve_covering_exact(inst)

    def test_zero_weight_vars_are_free(self):
        inst = set_cover_ilp(2, elements=[[0, 1]], weights=[0.0, 5.0])
        sol = solve_covering_exact(inst)
        assert sol.weight == 0.0
        assert 0 in sol.chosen


class TestMilpCutoverEquivalence:
    def test_same_answer_either_route(self):
        """Force the pure-Python route and compare with the MILP route."""
        rng = np.random.default_rng(42)
        g = erdos_renyi_connected(30, 0.12, rng)
        inst = max_independent_set_ilp(g)
        old = exact_module.MILP_CUTOVER_PACKING
        try:
            exact_module.MILP_CUTOVER_PACKING = None
            ours = solve_packing_exact(inst).weight
            exact_module.MILP_CUTOVER_PACKING = 5
            milp = solve_packing_exact(inst).weight
        finally:
            exact_module.MILP_CUTOVER_PACKING = old
        assert ours == pytest.approx(milp)


class TestSolveCache:
    def test_hits(self):
        g = cycle_graph(8)
        inst = max_independent_set_ilp(g)
        cache = SolveCache()
        a = solve_packing_exact(inst, subset={0, 1, 2}, cache=cache)
        b = solve_packing_exact(inst, subset={0, 1, 2}, cache=cache)
        assert a == b
        assert cache.hits == 1
        assert cache.misses == 1

    @pytest.mark.parametrize("kind", ["packing", "covering"])
    def test_warm_hit_builds_no_restriction(self, kind, monkeypatch):
        g = cycle_graph(8)
        if kind == "packing":
            inst = max_independent_set_ilp(g)
            solve = solve_packing_exact
            kwargs = {}
        else:
            inst = min_dominating_set_ilp(g)
            solve = solve_covering_exact
            kwargs = {"fixed_ones": {7}}
        cls = type(inst)
        calls = []
        real_restrict = cls.restrict

        def counting_restrict(self, *args, **kw):
            calls.append(args)
            return real_restrict(self, *args, **kw)

        monkeypatch.setattr(cls, "restrict", counting_restrict)
        cache = SolveCache()
        cold = solve(inst, subset={0, 1, 2, 3}, cache=cache, **kwargs)
        assert len(calls) == 1
        warm = solve(inst, subset={0, 1, 2, 3}, cache=cache, **kwargs)
        assert warm == cold
        assert cache.hits == 1
        assert len(calls) == 1  # the hit made no restriction

    def test_distinct_subsets_not_confused(self):
        g = cycle_graph(8)
        inst = max_independent_set_ilp(g)
        cache = SolveCache()
        a = solve_packing_exact(inst, subset={0, 1, 2}, cache=cache)
        b = solve_packing_exact(inst, subset={4, 5}, cache=cache)
        assert cache.misses == 2
        assert a.chosen != b.chosen


class TestCacheKeyIdentity:
    """``SolveCache`` keys are content digests: equal content gives the
    same key in every process, and any content change gives a new one."""

    _KEY_SCRIPT = (
        "from repro.graphs import grid_graph\n"
        "from repro.ilp import max_independent_set_ilp\n"
        "inst = max_independent_set_ilp(grid_graph(3, 4), "
        "weights=[0.5 + v for v in range(12)])\n"
        "print(inst.fingerprint())\n"
    )

    def test_same_key_under_two_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        keys = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", self._KEY_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            keys.add(out.stdout.strip())
        local = max_independent_set_ilp(
            grid_graph(3, 4), weights=[0.5 + v for v in range(12)]
        ).fingerprint()
        assert keys == {local}

    def test_one_coefficient_changes_the_key(self):
        rows = [Constraint({0: 1.0, 1: 1.0}, 1.0), Constraint({1: 1.0, 2: 1.0}, 1.0)]
        base = PackingInstance([1.0, 2.0, 3.0], rows)
        same = PackingInstance([1.0, 2.0, 3.0], list(rows))
        changed = PackingInstance(
            [1.0, 2.0, 3.0], [rows[0], Constraint({1: 1.0, 2: 2.0}, 1.0)]
        )
        assert same.fingerprint() == base.fingerprint()
        assert changed.fingerprint() != base.fingerprint()

    def test_cache_separates_instances_by_content(self):
        loose = PackingInstance([1.0, 1.0], [Constraint({0: 1.0, 1: 1.0}, 2.0)])
        tight = PackingInstance([1.0, 1.0], [Constraint({0: 1.0, 1: 2.0}, 2.0)])
        cache = SolveCache()
        assert solve_packing_exact(loose, cache=cache).weight == 2.0
        assert solve_packing_exact(tight, cache=cache).weight == 1.0
        assert cache.misses == 2
