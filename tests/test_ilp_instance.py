"""Tests for ILP instances and the Section 2 restriction semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import erdos_renyi_connected
from repro.ilp import (
    Constraint,
    CoveringInstance,
    PackingInstance,
    max_independent_set_ilp,
    min_dominating_set_ilp,
    solve_covering_exact,
    solve_packing_exact,
)


class TestConstraint:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Constraint({0: 0.0}, 1.0)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Constraint({0: 1.0}, -1.0)

    def test_non_integer_index_rejected(self):
        """A float index would be truncated by the CSR build (1.5 read
        as column 1), aliasing another instance's cache key."""
        with pytest.raises(ValueError, match="not an integer"):
            Constraint({1.5: 1.0, 0: 1.0}, 1.0)
        with pytest.raises(ValueError, match="not an integer"):
            Constraint({np.float64(2.0): 1.0}, 1.0)

    def test_numpy_integer_index_accepted(self):
        inst = PackingInstance(
            [1.0, 2.0, 3.0], [Constraint({np.int64(2): 1.0, np.int32(0): 1.0}, 1.0)]
        )
        plain = PackingInstance([1.0, 2.0, 3.0], [Constraint({0: 1.0, 2: 1.0}, 1.0)])
        assert inst.fingerprint() == plain.fingerprint()
        assert inst.matrix.indices.tolist() == [0, 2]


class TestArrays:
    def test_rows_in_input_order_with_sorted_columns(self):
        inst = CoveringInstance(
            [1, 1, 1, 1],
            [Constraint({3: 2.5, 1: 1.0}, 2.0), Constraint({2: 1.0, 0: 0.5}, 1)],
        )
        assert inst.matrix.indptr.tolist() == [0, 2, 4]
        assert inst.matrix.indices.tolist() == [1, 3, 0, 2]
        assert inst.matrix.data.tolist() == [1.0, 2.5, 0.5, 1.0]
        assert inst.bounds.tolist() == [2.0, 1.0]
        assert inst.columns.toarray().tolist() == inst.matrix.toarray().tolist()
        assert [dict(c.coefficients) for c in inst.constraints] == [
            {1: 1.0, 3: 2.5},
            {0: 0.5, 2: 1.0},
        ]

    def test_load_sums_each_row_in_column_order(self):
        inst = PackingInstance(
            [1, 1, 1], [Constraint({2: 0.1, 0: 0.2, 1: 0.3}, 1.0)]
        )
        assert inst.load({0, 1, 2})[0] == (0.2 + 0.3) + 0.1

    def test_completion_sums_fixed_in_column_order(self):
        inst = CoveringInstance(
            [1, 1, 1, 1], [Constraint({2: 0.1, 0: 0.2, 1: 0.3, 3: 1.0}, 1.5)]
        )
        sub = inst.restrict({3}, fixed_ones={0, 1, 2})
        assert sub.bounds.tolist() == [1.5 - ((0.2 + 0.3) + 0.1)]
        assert sub.matrix.indices.tolist() == [3]

    def test_restrict_matches_row_by_row_reference(self):
        """The mask restrictions against the Section 2 definitions
        applied one row at a time."""
        rng = np.random.default_rng(3)
        n = 30
        rows = []
        for _ in range(40):
            cols = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
            rows.append({int(v): float(rng.uniform(0.5, 2.0)) for v in cols})
        bounds = rng.uniform(0.5, 3.0, len(rows)).tolist()
        weights = rng.uniform(0.0, 2.0, n).tolist()
        given = [Constraint(r, b) for r, b in zip(rows, bounds, strict=True)]
        pack = PackingInstance(weights, given)
        cover = CoveringInstance(weights, given)

        def got_rows(inst):
            return [(dict(c.coefficients), c.bound) for c in inst.constraints]

        for trial in range(20):
            keep = {int(v) for v in rng.choice(n, size=18, replace=False)}
            fixed = {int(v) for v in rng.choice(n, size=4, replace=False)} - keep
            expect_pack = [
                ({v: c for v, c in sorted(r.items()) if v in keep}, b)
                for r, b in zip(rows, bounds, strict=True)
                if set(r) & keep
            ]
            got = pack.restrict(keep)
            assert got_rows(got) == expect_pack
            assert got.weights == tuple(
                w if v in keep else 0.0 for v, w in enumerate(weights)
            )
            expect_cover = []
            for r, b in zip(rows, bounds, strict=True):
                items = sorted(r.items())
                bound = max(0.0, b - sum(c for v, c in items if v in fixed))
                rest = {v: c for v, c in items if v not in fixed}
                if bound > 1e-9 and set(rest) <= keep:
                    expect_cover.append((rest, bound))
            got = cover.restrict(keep, fixed_ones=fixed)
            assert got_rows(got) == expect_cover
            edges = sorted({int(j) for j in rng.choice(len(rows), size=10)})
            got = cover.restrict_to_edges(edges, fixed_ones=fixed)
            expect_edges = []
            for j in edges:
                items = sorted(rows[j].items())
                bound = max(0.0, bounds[j] - sum(c for v, c in items if v in fixed))
                rest = {v: c for v, c in items if v not in fixed}
                if bound > 1e-9:
                    expect_edges.append((rest, bound))
            assert got_rows(got) == expect_edges
            assert got.weights == cover.weights


class TestPackingInstance:
    def test_feasibility(self):
        inst = PackingInstance(
            [1, 1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        assert inst.is_feasible({0, 2})
        assert not inst.is_feasible({0, 1})
        assert inst.load({0, 1}).tolist() == [2.0]

    def test_weights(self):
        inst = PackingInstance([2, 3, 5], [])
        assert inst.weight({0, 2}) == 7
        assert inst.weight_on({0, 1, 2}, {1}) == 3

    def test_hypergraph(self):
        inst = PackingInstance(
            [1, 1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        h = inst.hypergraph()
        assert h.n == 3
        assert h.m == 1
        assert h.edge(0) == frozenset({0, 1})

    def test_restriction_never_infeasible(self):
        """Observation 2.1: the local packing instance keeps all
        constraints but can always be satisfied (outside vars = 0)."""
        inst = PackingInstance(
            [1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        sub = inst.restrict({0})
        assert sub.is_feasible({0})
        assert sub.weights[1] == 0.0


class TestCoveringInstance:
    def test_feasibility(self):
        inst = CoveringInstance(
            [1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        assert inst.is_feasible({0})
        assert not inst.is_feasible(set())

    def test_restriction_drops_crossing_constraints(self):
        """Observation 2.2: only constraints inside S are kept."""
        inst = CoveringInstance(
            [1, 1, 1],
            [
                Constraint({0: 1.0, 1: 1.0}, 1.0),
                Constraint({1: 1.0, 2: 1.0}, 1.0),
            ],
        )
        sub = inst.restrict({0, 1})
        assert sub.m == 1
        assert sub.matrix.indices.tolist() == [0, 1]

    def test_restriction_with_fixed_ones(self):
        inst = CoveringInstance(
            [1, 1, 1],
            [Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 2.0)],
        )
        sub = inst.restrict({1, 2}, fixed_ones={0})
        assert sub.m == 1
        assert sub.bounds.tolist() == [1.0]
        satisfied = inst.restrict({1, 2}, fixed_ones={0, 1})
        assert satisfied.m == 0  # bound reached, constraint dropped

    def test_restrict_to_edges(self):
        inst = CoveringInstance(
            [1, 1, 1],
            [
                Constraint({0: 1.0}, 1.0),
                Constraint({1: 1.0, 2: 1.0}, 1.0),
            ],
        )
        sub = inst.restrict_to_edges([1])
        assert sub.m == 1
        assert sub.matrix.indices.tolist() == [1, 2]

    def test_is_satisfiable(self):
        sat = CoveringInstance([1], [Constraint({0: 1.0}, 1.0)])
        assert sat.is_satisfiable()
        unsat = CoveringInstance([1], [Constraint({0: 1.0}, 2.0)])
        assert not unsat.is_satisfiable()


class TestObservationInequalities:
    """Property tests of Observations 2.1 and 2.2 on random instances."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_observation_2_1(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_connected(12, 0.25, rng)
        inst = max_independent_set_ilp(g)
        optimum = solve_packing_exact(inst)
        subset = {int(v) for v in rng.choice(12, size=6, replace=False)}
        closed = set(subset)
        for v in subset:
            closed.update(g.neighbors(v))
        w_star_s = inst.weight_on(optimum.chosen, subset)
        local = solve_packing_exact(inst, subset=subset)
        w_star_n1s = inst.weight_on(optimum.chosen, closed)
        # W(P*, S) <= W(P_local_S, S) <= W(P*, N^1(S))
        assert w_star_s <= local.weight + 1e-9
        assert local.weight <= w_star_n1s + 1e-9

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_observation_2_2(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_connected(12, 0.25, rng)
        inst = min_dominating_set_ilp(g)
        optimum = solve_covering_exact(inst)
        subset = {int(v) for v in rng.choice(12, size=8, replace=False)}
        local = solve_covering_exact(inst, subset=subset)
        w_star_s = inst.weight_on(optimum.chosen, subset)
        # W(Q_local_S, S) <= W(Q*, S) <= W(Q*, V)
        assert local.weight <= w_star_s + 1e-9
        assert w_star_s <= optimum.weight + 1e-9


_PINNED_FINGERPRINTS = {
    "mis-grid": "ebb2a1544727256dc78ac2e979a2f3dfd446cf2d2b3b8fc3b7365ca8eb4283ee",
    "mds-grid": "6ec60976e32ba5195c6edf4deb8e67ee0cdc176d66f3c6d3dfa03de702dcdd69",
    "mds-regular": "4910d5efb94dbcdf50c647cca54be6c97ac2b9bb83035c7d36e0b05043dbb209",
    "knapsack": "df91ab449af2a679a6999a5a4acdd9466d11bb405d2a247ea5f98f413f4b1ab8",
    "general-covering": (
        "c064a5ce50e17f23c071e901835cee24b5b3420eeb6f11e4e655a006dfee586e"
    ),
}

_PINNED_SOLUTIONS = {
    ("pack", "mis-grid", "all"): (
        "51b59dff933cb090e90cd497ed3918642023975b65c3834531bff819be1c9787"
    ),
    ("pack", "mis-grid", "subset"): (
        "1f9f80ecd7e2a6443c112e13ca9817dc21c7ec9a4a6a6331107e5912d296b575"
    ),
    ("pack", "knapsack", "all"): (
        "c9ce1a79e9f73c431f11b78d0b39c3e4ea5cdfdc24a25a40548104ae5ac589b6"
    ),
    ("cover", "mds-grid", "all"): (
        "b29485acdb62fe2c4908e43bc23bcd6d2e346b11b75617faff344da489ef3a39"
    ),
    ("cover", "mds-grid", "subset"): (
        "290d3464e986e66c32a310ca694c4ddaeebeae1045eafb15509f9b504bb9abbc"
    ),
    ("cover", "mds-grid", "fixed"): (
        "f72e739a8b8fb6357f7e1d2600f3400982f5b009890b1f706fdbea72b03a4c92"
    ),
    ("cover", "mds-regular", "subset"): (
        "f794ca42f58f593126b48c4151046436939fdd7eb28ca8440b416eaf3e756c25"
    ),
    ("cover", "general-covering", "fixed"): (
        "f126cba05976ce72f408107b1ebef3b673d194d8050e0cc3c83f4f0420abe571"
    ),
    ("chang-li", "mis-grid", "practical"): (
        "639139aac0789c03d6c0ae68e18fca3443858def0344e5f8558dd85b2e3e6c04"
    ),
    ("chang-li", "mds-grid", "practical"): (
        "56a95ea5572fa97c929de4e2edd6b887d76e79097f39c66be524210ffa7ac136"
    ),
    ("chang-li", "mis-grid", "fragmented"): (
        "4f063cf9e3f46736ddb265445293b6069c0b9ff7c12979676132701d2bbe1a3d"
    ),
    ("chang-li", "mds-grid", "fragmented"): (
        "e382486ca06cc31fded7a0f89427929035a99ca5c2613ad0be3536d5d9a01745"
    ),
    ("greedy", "mis-grid"): (
        "c33ec2f615c0faa63e046c5804d168a33dee72d69454ba679b818ee90705eeea"
    ),
    ("greedy", "knapsack"): (
        "31d570d340b52f0aed9442c334f25241afd688c02ebd8a4cf6fb943b8fd165ba"
    ),
    ("greedy", "mds-grid"): (
        "1061ecae45e3866ab315413cfef8ee56407d273afb2291c6fbd4197c776f8522"
    ),
    ("greedy", "mds-regular"): (
        "e6a9738ff8b3ab89ddbd3ddeacff8b8c8d88f982a405d0d96d58f2139db9cdfc"
    ),
    ("greedy", "general-covering"): (
        "0fb8da303a1c84ebee904537f8639da547177998d07e9710e057d65a722e7c17"
    ),
}

_PINNED_LP_VALUES = {
    "mis-grid": 297.6453386939331,
    "mds-grid": 91.41845322513925,
    "knapsack": 11.544302398261827,
    "general-covering": 6.3890312349038165,
}

_PINNED_MWU_ARRAYS = {
    "mis-grid": "5656c53751c09106eb28dbdb7bad1c32ab925b04d5b4fe91e20c4e1b4bfcfbce",
    "mds-grid": "225f6846f041c796512e0def880cde969b89ee7c6c9a924ec0465f3f218a3fe6",
    "knapsack": "c0fc9af800c2855ab0963ea79694d6a31a602698aa7441a3958898cbe1f755f4",
    "general-covering": (
        "6e4746564a4391ae04d600974d58d0898170957924858395ad8098d4b16b9c99"
    ),
}


class TestPinnedDigests:
    """Instance digests and solver outputs pinned as literals.

    The literals were recorded while constraints were still stored as
    per-row dicts, so they hold the array-backed instance to the same
    ``fingerprint()`` (persisted ``SolveCache`` keys), the same optimal
    sets and tie-breaks of every exact tier, the same Chang–Li and
    greedy outputs, the same LP matrix and the same ``MwuProblem``
    arrays.  Weights are continuous draws, so every optimum is unique
    and the MILP-routed solves do not depend on the HiGHS build.
    ``general-covering`` has non-integer coefficients in rows built out
    of column order; ``mds-regular`` has rows whose small sets collide.
    """

    @staticmethod
    def _instances():
        from repro.graphs import grid_graph, random_regular
        from repro.ilp import general_covering_ilp, knapsack_packing_ilp

        grid = grid_graph(10, 10)
        w = np.random.default_rng(5).uniform(1.0, 10.0, grid.n).tolist()
        reg = random_regular(60, 3, np.random.default_rng(11))
        rw = np.random.default_rng(6).uniform(1.0, 10.0, reg.n).tolist()
        rng = np.random.default_rng(7)
        sizes = rng.uniform(0.0, 3.0, (6, 14)).round(2)
        sizes[sizes < 1.0] = 0.0
        knapsack = knapsack_packing_ilp(
            rng.uniform(1.0, 5.0, 14).tolist(),
            sizes.tolist(),
            [4.5, 3.3, 5.1, 2.7, 6.2, 3.9],
        )
        rows = [
            {
                int(v): float(c)
                for v, c in zip(
                    rng.choice(12, size=3, replace=False),
                    rng.uniform(0.3, 1.7, 3).round(3),
                    strict=True,
                )
            }
            for _ in range(10)
        ]
        general = general_covering_ilp(
            rng.uniform(1.0, 4.0, 12).tolist(),
            rows,
            rng.uniform(0.5, 1.5, 10).round(3).tolist(),
        )
        return {
            "mis-grid": max_independent_set_ilp(grid, weights=w),
            "mds-grid": min_dominating_set_ilp(grid, weights=w),
            "mds-regular": min_dominating_set_ilp(reg, weights=rw),
            "knapsack": knapsack,
            "general-covering": general,
        }

    @staticmethod
    def _digest(weight, chosen):
        import hashlib
        import json

        payload = json.dumps(
            [
                None if weight is None else float(weight).hex(),
                sorted(int(v) for v in chosen),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_fingerprints(self):
        got = {k: inst.fingerprint() for k, inst in self._instances().items()}
        assert got == _PINNED_FINGERPRINTS

    def test_solutions(self):
        from repro.core import (
            CoveringParams,
            PackingParams,
            chang_li_covering,
            chang_li_packing,
        )
        from repro.ilp import greedy_covering, greedy_packing

        inst = self._instances()
        exact = {
            ("pack", "mis-grid", "all"): lambda: solve_packing_exact(
                inst["mis-grid"]
            ),
            ("pack", "mis-grid", "subset"): lambda: solve_packing_exact(
                inst["mis-grid"], subset=set(range(0, 100, 3)) | set(range(40, 60))
            ),
            ("pack", "knapsack", "all"): lambda: solve_packing_exact(
                inst["knapsack"]
            ),
            ("cover", "mds-grid", "all"): lambda: solve_covering_exact(
                inst["mds-grid"]
            ),
            ("cover", "mds-grid", "subset"): lambda: solve_covering_exact(
                inst["mds-grid"], subset=set(range(30, 70))
            ),
            ("cover", "mds-grid", "fixed"): lambda: solve_covering_exact(
                inst["mds-grid"], subset=set(range(30, 70)), fixed_ones={45, 51, 33}
            ),
            ("cover", "mds-regular", "subset"): lambda: solve_covering_exact(
                inst["mds-regular"], subset=set(range(40))
            ),
            ("cover", "general-covering", "fixed"): lambda: solve_covering_exact(
                inst["general-covering"], fixed_ones={2, 7}
            ),
        }
        got = {}
        for key, solve in exact.items():
            solution = solve()
            got[key] = self._digest(solution.weight, solution.chosen)
        n = inst["mis-grid"].n
        regimes = {
            "practical": {},
            "fragmented": {"r_scale": 0.05, "t_cap": 1},
        }
        for label, kwargs in regimes.items():
            packed = chang_li_packing(
                inst["mis-grid"], PackingParams.practical(0.3, n, **kwargs), seed=7
            )
            covered = chang_li_covering(
                inst["mds-grid"], CoveringParams.practical(0.3, n, **kwargs), seed=7
            )
            got[("chang-li", "mis-grid", label)] = self._digest(None, packed.chosen)
            got[("chang-li", "mds-grid", label)] = self._digest(None, covered.chosen)
        for k in ("mis-grid", "knapsack"):
            got[("greedy", k)] = self._digest(None, greedy_packing(inst[k]))
        for k in ("mds-grid", "mds-regular", "general-covering"):
            got[("greedy", k)] = self._digest(None, greedy_covering(inst[k]))
        assert got == _PINNED_SOLUTIONS

    def test_lp_relaxation_values(self):
        from repro.ilp import lp_relaxation_value

        inst = self._instances()
        for k, value in _PINNED_LP_VALUES.items():
            assert lp_relaxation_value(inst[k]) == pytest.approx(value, rel=1e-9)

    def test_mwu_problem_arrays(self):
        from repro.artifacts.fingerprint import fingerprint
        from repro.ilp import MwuProblem

        inst = self._instances()
        got = {}
        for k in _PINNED_MWU_ARRAYS:
            p = MwuProblem.from_instance(inst[k])
            got[k] = fingerprint(
                "mwu",
                p.kind,
                p.weights,
                p.matrix.indptr.astype(np.int64),
                p.matrix.indices.astype(np.int64),
                p.matrix.data,
                p.bounds,
            )
        assert got == _PINNED_MWU_ARRAYS
