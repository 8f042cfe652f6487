"""Tests for the integer-to-binary variable reduction (Section 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve_packing
from repro.ilp import (
    Constraint,
    PackingInstance,
    solve_covering_exact,
    solve_packing_exact,
)
from repro.ilp.integer import (
    _bit_multipliers,
    integer_covering_to_binary,
    integer_packing_to_binary,
)


class TestBitMultipliers:
    @pytest.mark.parametrize("upper", [1, 2, 3, 5, 7, 8, 100])
    def test_exactly_covers_range(self, upper):
        mults = _bit_multipliers(upper)
        assert sum(mults) == upper
        representable = {0}
        for m in mults:
            representable |= {r + m for r in representable}
        assert representable == set(range(upper + 1))

    def test_count_logarithmic(self):
        assert len(_bit_multipliers(1)) == 1
        assert len(_bit_multipliers(7)) == 3
        assert len(_bit_multipliers(1000)) == 10


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_encode_decode(self, seed):
        rng = np.random.default_rng(seed)
        uppers = [int(u) for u in rng.integers(1, 9, size=4)]
        red = integer_packing_to_binary(
            [1.0] * 4, [], uppers
        )
        values = [int(rng.integers(0, u + 1)) for u in uppers]
        assert red.decode(red.encode(values)) == values

    def test_encode_out_of_range(self):
        red = integer_packing_to_binary([1.0], [], [3])
        with pytest.raises(ValueError):
            red.encode([4])


class TestIntegerPacking:
    def brute_force(self, weights, constraints, uppers, sense):
        rows = PackingInstance([0.0] * len(uppers), constraints)
        best = None
        for values in itertools.product(*(range(u + 1) for u in uppers)):
            lhs = rows.matrix @ np.asarray(values, dtype=np.float64)
            if sense == "max":
                ok = bool(np.all(lhs <= rows.bounds + 1e-9))
            else:
                ok = bool(np.all(lhs >= rows.bounds - 1e-9))
            if not ok:
                continue
            objective = sum(w * x for w, x in zip(weights, values, strict=True))
            if best is None:
                best = objective
            best = max(best, objective) if sense == "max" else min(best, objective)
        return best

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_packing_matches_integer_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        uppers = [int(u) for u in rng.integers(1, 5, size=n)]
        weights = [float(w) for w in rng.integers(1, 6, size=n)]
        constraints = []
        for _ in range(int(rng.integers(1, 3))):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            coeffs = {int(v): float(rng.integers(1, 3)) for v in support}
            cap = sum(c * uppers[v] for v, c in coeffs.items())
            constraints.append(
                Constraint(coeffs, float(rng.uniform(1, max(1.5, cap))))
            )
        red = integer_packing_to_binary(weights, constraints, uppers)
        ours = solve_packing_exact(red.instance).weight
        truth = self.brute_force(weights, constraints, uppers, "max")
        assert ours == pytest.approx(truth)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_covering_matches_integer_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        uppers = [int(u) for u in rng.integers(1, 5, size=n)]
        weights = [float(w) for w in rng.integers(1, 6, size=n)]
        constraints = []
        for _ in range(int(rng.integers(1, 3))):
            support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            coeffs = {int(v): float(rng.integers(1, 3)) for v in support}
            cap = sum(c * uppers[v] for v, c in coeffs.items())
            constraints.append(
                Constraint(coeffs, float(rng.uniform(0.5, cap)))
            )
        red = integer_covering_to_binary(weights, constraints, uppers)
        ours = solve_covering_exact(red.instance).weight
        truth = self.brute_force(weights, constraints, uppers, "min")
        assert ours == pytest.approx(truth)


class TestDistributedOnIntegerInstances:
    def test_theorem_12_applies_to_integer_packing(self):
        """The paper's remark: the distributed algorithms apply to
        bounded-integer ILPs through the bit reduction."""
        from repro.graphs import cycle_graph

        ring = cycle_graph(30)
        # Integer b-matching-like: each vertex v and neighbors consume
        # capacity 3; x_v in {0..2}.
        constraints = []
        for v in range(30):
            u, w = ring.neighbors(v)
            constraints.append(
                Constraint({v: 1.0, u: 1.0, w: 1.0}, 3.0)
            )
        red = integer_packing_to_binary(
            [1.0] * 30, constraints, [2] * 30
        )
        eps = 0.3
        opt = solve_packing_exact(red.instance).weight
        result = solve_packing(red.instance, eps, seed=1)
        values = red.decode(result.chosen)
        assert all(0 <= x <= 2 for x in values)
        assert result.weight >= (1 - eps) * opt - 1e-9
