"""Property suite for the MWU solver tier (repro.ilp.mwu + certificates).

Covers the ISSUE-10 contract: certificate verification rejects
corrupted solutions, MWU values stay within (1+eps) of the LP
relaxation / exact optimum on the registry's small instances, and runs
are bit-identical across repeated invocations and worker counts.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

from repro import obs
from repro.exp.scenarios import (
    _MWU_COVERING_SPECS,
    _MWU_PACKING_SPECS,
    _covering_instance,
    _packing_instance,
)
from repro.graphs import cycle_graph, erdos_renyi_connected, grid_graph
from repro.ilp import (
    lp_relaxation_value,
    max_independent_set_ilp,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    solve_covering_exact,
    solve_packing_exact,
)
from repro.ilp.certificates import (
    Certificate,
    MwuProblem,
    certificate_gap,
    covering_dual_bound,
    packing_dual_bound,
    verify_certificate,
)
from repro.ilp import mwu as mwu_module
from repro.ilp.instance import Constraint, CoveringInstance, PackingInstance
from repro.ilp.mwu import (
    MWU_COVERING_EXACT_LIMIT,
    MWU_PACKING_EXACT_LIMIT,
    mwu_fractional,
    random_row_sparse_problem,
    solve_covering_mwu,
    solve_covering_tiered,
    solve_packing_mwu,
    solve_packing_tiered,
)

import _mwu_reference as reference

EPS = 0.1


def _packing_instances():
    return [
        ("mis-cycle-80", max_independent_set_ilp(cycle_graph(80))),
        ("mis-grid-7x9", max_independent_set_ilp(grid_graph(7, 9))),
        (
            "mis-er-56",
            max_independent_set_ilp(
                erdos_renyi_connected(56, 0.08, np.random.default_rng(3))
            ),
        ),
    ]


def _covering_instances():
    return [
        ("mds-cycle-60", min_dominating_set_ilp(cycle_graph(60))),
        ("mds-grid-6x7", min_dominating_set_ilp(grid_graph(6, 7))),
        ("mvc-grid-6x7", min_vertex_cover_ilp(grid_graph(6, 7))),
    ]


class TestCertificateVerification:
    def _packing_cert(self):
        inst = max_independent_set_ilp(grid_graph(5, 6))
        problem = MwuProblem.from_instance(inst)
        sol = solve_packing_mwu(inst, EPS, seed=0, round_trials=0)
        return problem, sol.certificate

    def _covering_cert(self):
        inst = min_dominating_set_ilp(grid_graph(5, 6))
        problem = MwuProblem.from_instance(inst)
        sol = solve_covering_mwu(inst, EPS, seed=0, round_trials=0)
        return problem, sol.certificate

    def test_honest_certificates_verify(self):
        for problem, cert in (self._packing_cert(), self._covering_cert()):
            report = verify_certificate(problem, cert, require_gap=1.0 + EPS)
            assert report.ok, report.failures
            report.raise_if_invalid()
            assert cert.within()

    def test_corrupted_primal_rejected(self):
        problem, cert = self._covering_cert()
        # Shrinking a covering primal makes it infeasible.
        bad = dataclasses.replace(cert, x=cert.x * 0.5)
        report = verify_certificate(problem, bad)
        assert not report.ok
        assert any("infeasible" in f for f in report.failures)

    def test_packing_box_violation_rejected(self):
        problem, cert = self._packing_cert()
        bad = dataclasses.replace(cert, x=cert.x + 2.0)
        report = verify_certificate(problem, bad)
        assert not report.ok

    def test_inflated_primal_value_claim_rejected(self):
        problem, cert = self._packing_cert()
        bad = dataclasses.replace(cert, primal_value=cert.primal_value * 1.5)
        report = verify_certificate(problem, bad)
        assert not report.ok
        assert any("primal value" in f for f in report.failures)

    def test_overtight_dual_claim_rejected(self):
        # Packing: claiming a smaller upper bound than y supports.
        problem, cert = self._packing_cert()
        bad = dataclasses.replace(
            cert, dual_bound=cert.dual_bound * 0.5, gap=cert.gap * 0.5
        )
        assert not verify_certificate(problem, bad).ok
        # Covering: claiming a larger lower bound than y supports.
        problem, cert = self._covering_cert()
        bad = dataclasses.replace(
            cert, dual_bound=cert.dual_bound * 2.0, gap=cert.gap / 2.0
        )
        assert not verify_certificate(problem, bad).ok

    def test_corrupted_dual_vector_rejected(self):
        problem, cert = self._covering_cert()
        # Zeroing y collapses the recomputed lower bound; the claimed
        # bound then exceeds what the vector supports.
        bad = dataclasses.replace(cert, y=cert.y * 0.0)
        report = verify_certificate(problem, bad)
        assert not report.ok

    def test_negative_and_nonfinite_vectors_rejected(self):
        problem, cert = self._packing_cert()
        neg = dataclasses.replace(cert, x=cert.x - 1.0)
        assert not verify_certificate(problem, neg).ok
        nan = dataclasses.replace(cert, y=np.full_like(cert.y, np.nan))
        assert not verify_certificate(problem, nan).ok

    def test_shape_and_kind_mismatch_rejected(self):
        problem, cert = self._packing_cert()
        short = dataclasses.replace(cert, x=cert.x[:-1])
        assert not verify_certificate(problem, short).ok
        wrong_kind = dataclasses.replace(cert, kind="covering")
        assert not verify_certificate(problem, wrong_kind).ok

    def test_require_gap_enforced(self):
        problem, cert = self._covering_cert()
        report = verify_certificate(problem, cert, require_gap=1.0001)
        if cert.gap > 1.0001:
            assert not report.ok
            assert any("required" in f for f in report.failures)

    def test_gap_orientation(self):
        assert certificate_gap("packing", 10.0, 11.0) == pytest.approx(1.1)
        assert certificate_gap("covering", 11.0, 10.0) == pytest.approx(1.1)
        assert certificate_gap("packing", 0.0, 0.0) == 1.0
        assert certificate_gap("covering", 1.0, 0.0) == float("inf")


class TestDualBounds:
    def test_packing_completion_is_valid_for_any_y(self):
        inst = max_independent_set_ilp(grid_graph(4, 5))
        problem = MwuProblem.from_instance(inst)
        opt = solve_packing_exact(inst).weight
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.random(problem.m) * 2.0
            assert packing_dual_bound(problem, y) >= opt - 1e-9

    def test_covering_bound_is_valid_for_any_y(self):
        inst = min_dominating_set_ilp(grid_graph(4, 5))
        problem = MwuProblem.from_instance(inst)
        opt = solve_covering_exact(inst).weight
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = rng.random(problem.m) * 5.0
            assert covering_dual_bound(problem, y) <= opt + 1e-9


def _sorted_dual_search(y, g, w, sel):
    """The sort-based line search the warm-sorted one replaced: a cold
    stable argsort per call and a float ``argmin`` over the evaluated
    breakpoints.  Kept as the oracle of the solve-level equivalence test."""
    y_sum = float(y.sum())
    ws = w[sel]
    gs = np.maximum(g[sel], 1e-300)
    if ws.size == 0:
        return y * 0.0, 0.0
    s_points = ws / gs
    order = np.argsort(s_points, kind="stable")
    s_sorted = s_points[order]
    w_suffix = np.concatenate([np.cumsum(ws[order][::-1])[::-1], [0.0]])
    g_suffix = np.concatenate([np.cumsum(gs[order][::-1])[::-1], [0.0]])
    f_vals = s_sorted * y_sum + (w_suffix[1:] - s_sorted * g_suffix[1:])
    k = int(np.argmin(f_vals))
    trivial = float(ws.sum())
    if trivial <= float(f_vals[k]):
        return y * 0.0, trivial
    return y * float(s_sorted[k]), float(f_vals[k])


def _brute_dual(y, ws, gs):
    """``f`` at 0 and at every breakpoint by ``math.fsum``: the least
    value and the smallest scale attaining it."""
    y_sum = math.fsum(y)

    def f(t):
        return math.fsum(
            [t * y_sum] + [max(0.0, w - t * g) for w, g in zip(ws, gs)]
        )

    points = sorted({0.0, *(w / g for w, g in zip(ws, gs))})
    values = [f(t) for t in points]
    best = min(values)
    return points[values.index(best)], best


def _search(y, ws, gs, warm=None):
    """Run the search; return ``(s*, bound, order)`` with ``s*`` read
    back off the scaled dual's first entry (``y[0]`` is 1, so exactly;
    0 for the trivial bound)."""
    assert y[0] == 1.0
    ws = np.asarray(ws, dtype=np.float64)
    gs = np.asarray(gs, dtype=np.float64)
    scaled, bound, order = mwu_module._packing_dual_search(
        y, ws / gs, gs, ws, warm
    )
    s_star = float(scaled[0] / y[0])
    assert np.array_equal(scaled, y * s_star)
    return s_star, bound, order


def _tied_instance(seed, k=300):
    """Integer weights over power-of-two loads: few distinct breakpoints,
    each tied many times, and every sum exact in floats."""
    rng = np.random.default_rng(seed)
    ws = rng.integers(1, 5, size=k).astype(np.float64)
    gs = 2.0 ** rng.integers(0, 3, size=k)
    y = np.full(40, float(rng.integers(1, int(gs.sum()) // 40)))
    y[0] = 1.0
    return y, ws, gs


class TestPackingDualSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_tied_integer_breakpoints_match_brute_force(self, seed):
        y, ws, gs = _tied_instance(seed)
        assert np.unique(ws / gs).size <= 12
        s_star, bound, order = _search(y, ws, gs)
        assert (s_star, bound) == _brute_dual(y, ws, gs)
        assert np.all(np.diff((ws / gs)[order]) >= 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_float_breakpoints_match_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        ws = rng.uniform(1.0, 9.0, size=400)
        gs = rng.uniform(0.1, 3.0, size=400)
        y = rng.uniform(0.0, 1.0, size=150)
        y[0] = 1.0
        s_star, bound, _ = _search(y, ws, gs)
        brute_s, brute_f = _brute_dual(y, ws, gs)
        assert s_star == brute_s
        assert bound == pytest.approx(brute_f, rel=1e-12)

    def test_flat_minimum_takes_the_smallest_minimizer(self):
        # f(t) = t + Σ max(0, w_j - t) is 3 on all of [2, 3].
        y = np.array([1.0])
        s_star, bound, _ = _search(y, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert (s_star, bound) == (2.0, 3.0)
        assert _brute_dual(y, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == (2.0, 3.0)

    def test_light_loads_give_the_trivial_bound(self):
        # Σg = 3 <= Σy = 3: f never falls below f(0) = Σw.
        y = np.array([1.0, 2.0])
        s_star, bound, _ = _search(y, [3.0, 5.0], [1.0, 2.0])
        assert (s_star, bound) == (0.0, 8.0)

    def test_no_columns(self):
        y = np.array([0.5, 1.0])
        empty = np.zeros(0)
        scaled, bound, order = mwu_module._packing_dual_search(
            y, empty, empty, empty, None
        )
        assert bound == 0.0 and order.size == 0
        assert np.array_equal(scaled, np.zeros(2))

    def test_single_column(self):
        assert _search(np.array([1.0]), [6.0], [2.0])[:2] == (3.0, 3.0)
        assert _search(np.array([1.0, 3.0]), [6.0], [2.0])[:2] == (0.0, 6.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_stale_or_unrelated_warm_order_gives_the_cold_result(self, seed):
        y, ws, gs = _tied_instance(seed)
        rng = np.random.default_rng(seed)
        cold = mwu_module._packing_dual_search(y, ws / gs, gs, ws)
        y2, ws2, gs2 = _tied_instance(seed + 50)
        stale = _search(y2, ws2, gs2)[2]  # a previous call's order
        for warm in (stale, rng.permutation(ws.size), cold[2][::-1].copy()):
            got = mwu_module._packing_dual_search(y, ws / gs, gs, ws, warm)
            assert got[1] == cold[1]
            assert np.array_equal(got[0], cold[0])
            assert np.array_equal((ws / gs)[got[2]], (ws / gs)[cold[2]])

    @pytest.mark.parametrize("seed", range(4))
    def test_column_permutation_leaves_scale_and_bound(self, seed):
        y, ws, gs = _tied_instance(seed)
        perm = np.random.default_rng(seed).permutation(ws.size)
        assert _search(y, ws, gs)[:2] == _search(y, ws[perm], gs[perm])[:2]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_solve_matches_the_sort_based_search(self, seed, monkeypatch):
        problem = random_row_sparse_problem("packing", 2000, seed=seed)
        warm = mwu_module._fractional_packing(problem, EPS, None)

        def oracle(y, s, gs, ws, order):
            scaled, bound = _sorted_dual_search(y, gs, ws, np.ones(ws.size, bool))
            return scaled, bound, None

        monkeypatch.setattr(mwu_module, "_packing_dual_search", oracle)
        sorted_ = mwu_module._fractional_packing(problem, EPS, None)
        assert warm.iterations == sorted_.iterations
        assert warm.oracle_calls == sorted_.oracle_calls
        assert np.array_equal(warm.x, sorted_.x)
        assert warm.primal_value == sorted_.primal_value
        assert warm.gap == pytest.approx(sorted_.gap, rel=1e-12, abs=0.0)


class TestQuality:
    @pytest.mark.parametrize("name,inst", _packing_instances())
    def test_packing_within_eps_of_lp_and_opt(self, name, inst):
        sol = solve_packing_mwu(inst, EPS, seed=1)
        cert = sol.certificate
        report = verify_certificate(
            MwuProblem.from_instance(inst), cert, require_gap=1.0 + EPS
        )
        assert report.ok, (name, report.failures)
        lp = lp_relaxation_value(inst)
        opt = solve_packing_exact(inst).weight
        # dual_bound >= lp >= opt; frac * gap = bound  =>  ratios <= gap.
        assert cert.dual_bound >= lp - 1e-6
        assert lp / cert.primal_value <= 1.0 + EPS + 1e-9
        assert opt / cert.primal_value <= 1.0 + EPS + 1e-9
        assert sol.chosen is not None
        assert inst.is_feasible(sol.chosen)
        assert sol.weight == pytest.approx(
            sum(inst.weights[j] for j in sol.chosen)
        )

    @pytest.mark.parametrize("name,inst", _covering_instances())
    def test_covering_within_eps_of_lp_and_opt(self, name, inst):
        sol = solve_covering_mwu(inst, EPS, seed=1)
        cert = sol.certificate
        report = verify_certificate(
            MwuProblem.from_instance(inst), cert, require_gap=1.0 + EPS
        )
        assert report.ok, (name, report.failures)
        lp = lp_relaxation_value(inst)
        opt = solve_covering_exact(inst).weight
        assert cert.dual_bound <= lp + 1e-6
        assert cert.primal_value / lp <= 1.0 + EPS + 1e-9
        assert cert.primal_value / opt <= 1.0 + EPS + 1e-9
        assert sol.chosen is not None
        assert inst.is_feasible(sol.chosen)

    def test_zero_weight_columns_handled(self):
        inst = min_dominating_set_ilp(grid_graph(4, 4), weights=[0.0] + [1.0] * 15)
        sol = solve_covering_mwu(inst, EPS, seed=0)
        report = verify_certificate(MwuProblem.from_instance(inst), sol.certificate)
        assert report.ok, report.failures
        assert inst.is_feasible(sol.chosen)

    def test_unsatisfiable_covering_raises(self):
        inst = CoveringInstance(
            weights=(1.0,),
            constraints=(Constraint(coefficients={0: 1.0}, bound=5.0),),
        )
        with pytest.raises(ValueError):
            solve_covering_mwu(inst, EPS, seed=0)


class TestDeterminism:
    def test_bit_identical_repeated_runs(self):
        inst = max_independent_set_ilp(grid_graph(6, 8))
        a = solve_packing_mwu(inst, EPS, seed=3)
        b = solve_packing_mwu(inst, EPS, seed=3)
        assert np.array_equal(a.certificate.x, b.certificate.x)
        assert np.array_equal(a.certificate.y, b.certificate.y)
        assert a.certificate.gap == b.certificate.gap
        assert a.chosen == b.chosen and a.weight == b.weight

    def test_bit_identical_across_kernel_worker_env(self, monkeypatch):
        # The MWU tier is pure numpy/scipy: REPRO_KERNEL_WORKERS must not
        # leak into its results.
        inst = min_dominating_set_ilp(grid_graph(6, 8))
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "1")
        a = solve_covering_mwu(inst, EPS, seed=3)
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "4")
        b = solve_covering_mwu(inst, EPS, seed=3)
        assert np.array_equal(a.certificate.x, b.certificate.x)
        assert a.chosen == b.chosen and a.weight == b.weight

    def test_scenario_rows_identical_across_worker_counts(self, tmp_path):
        from repro.exp import get, run_scenario, strip_timing
        from repro.exp.store import ResultStore

        overrides = {"instance": ["mds-grid-6x7"], "eps": [0.1]}
        runs = []
        for workers, sub in ((0, "serial"), (2, "sharded")):
            store = ResultStore(tmp_path / sub)
            result = run_scenario(
                get("mwu-quality"),
                store=store,
                workers=workers,
                trials=2,
                overrides=overrides,
            )
            runs.append([strip_timing(row) for row in result.rows])
        assert runs[0] == runs[1]

    def test_different_seeds_may_differ_but_both_verify(self):
        inst = min_dominating_set_ilp(grid_graph(6, 8))
        problem = MwuProblem.from_instance(inst)
        for seed in (0, 1):
            sol = solve_covering_mwu(inst, EPS, seed=seed)
            assert verify_certificate(problem, sol.certificate).ok
            assert inst.is_feasible(sol.chosen)


class TestTieredDispatch:
    def test_small_instances_go_exact(self):
        inst = max_independent_set_ilp(grid_graph(5, 6))
        assert inst.n <= MWU_PACKING_EXACT_LIMIT
        tiered = solve_packing_tiered(inst)
        exact = solve_packing_exact(inst)
        assert tiered.tier == "exact"
        assert tiered.weight == exact.weight
        assert tiered.certificate is None

    def test_above_cutoff_goes_mwu_with_certificate(self):
        inst = max_independent_set_ilp(grid_graph(5, 6))
        tiered = solve_packing_tiered(inst, EPS, seed=0, exact_limit=10)
        assert tiered.tier == "mwu"
        assert tiered.certificate is not None
        assert verify_certificate(
            MwuProblem.from_instance(inst), tiered.certificate
        ).ok
        assert inst.is_feasible(tiered.chosen)

    def test_covering_tiers(self):
        inst = min_dominating_set_ilp(grid_graph(5, 6))
        assert inst.n <= MWU_COVERING_EXACT_LIMIT
        assert solve_covering_tiered(inst).tier == "exact"
        tiered = solve_covering_tiered(inst, EPS, seed=0, exact_limit=10)
        assert tiered.tier == "mwu"
        assert inst.is_feasible(tiered.chosen)
        assert verify_certificate(
            MwuProblem.from_instance(inst), tiered.certificate
        ).ok


class TestProblemForm:
    def test_from_instance_drops_trivial_covering_rows(self):
        inst = CoveringInstance(
            weights=(1.0, 1.0),
            constraints=(
                Constraint(coefficients={0: 1.0}, bound=0.0),
                Constraint(coefficients={1: 1.0}, bound=1.0),
            ),
        )
        problem = MwuProblem.from_instance(inst)
        assert problem.m == 1

    def test_from_instance_forces_zero_bound_packing_support(self):
        inst = PackingInstance(
            weights=(5.0, 1.0),
            constraints=(
                Constraint(coefficients={0: 1.0}, bound=0.0),
                Constraint(coefficients={1: 1.0}, bound=1.0),
            ),
        )
        problem = MwuProblem.from_instance(inst)
        assert problem.m == 1
        assert problem.weights[0] == 0.0  # forced out of the objective

    def test_from_arrays_rejects_nonpositive_entries(self):
        mat = sparse.csr_matrix(np.array([[1.0, -1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            MwuProblem.from_arrays("packing", [1.0, 1.0], mat, [1.0, 1.0])

    def test_random_row_sparse_problem_smoke(self):
        for kind in ("packing", "covering"):
            problem = random_row_sparse_problem(kind, 2000, seed=5)
            assert problem.kind == kind
            assert problem.n == 2000 and problem.m == 1000
            cert = mwu_fractional(problem, 0.2)
            report = verify_certificate(problem, cert, require_gap=1.2)
            assert report.ok, (kind, report.failures)

    def test_random_problem_is_seed_deterministic(self):
        a = random_row_sparse_problem("covering", 500, seed=9)
        b = random_row_sparse_problem("covering", 500, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert (a.matrix != b.matrix).nnz == 0

    def test_certificate_within_uses_own_eps(self):
        cert = Certificate(
            kind="packing",
            eps=0.1,
            x=np.zeros(1),
            y=np.zeros(1),
            primal_value=1.0,
            dual_bound=1.05,
            gap=1.05,
        )
        assert cert.within()
        assert not cert.within(0.01)


def _bytes(value):
    """A value's exact identity: dtype, shape and bytes for arrays, type
    and repr (round-trip exact) for scalars."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return (type(value), repr(value))


def _with_zero_weights(problem, every):
    """``problem`` with every ``every``-th column's weight set to 0."""
    weights = problem.weights.copy()
    weights[::every] = 0.0
    return MwuProblem.from_arrays(
        problem.kind, weights, problem.matrix, problem.bounds, name=problem.name
    )


def _reference_pool():
    """``(id, problem, eps)`` for the identity tests."""
    pool = []
    for kind in ("covering", "packing"):
        for n in (200, 2000):
            for seed in range(3):
                problem = random_row_sparse_problem(kind, n, seed=seed)
                pool.append((f"{kind}-{n}-s{seed}", problem, EPS))
        problem = _with_zero_weights(random_row_sparse_problem(kind, 2000, seed=4), 17)
        pool.append((f"{kind}-zero-weights", problem, EPS))
    for spec in _MWU_PACKING_SPECS + _MWU_COVERING_SPECS:
        build = _packing_instance if spec in _MWU_PACKING_SPECS else _covering_instance
        problem = MwuProblem.from_instance(build(spec))
        for eps in (0.3, 0.1):
            pool.append((f"{spec}-eps{eps}", problem, eps))
    return pool


_POOL = _reference_pool()


class TestReferenceIdentity:
    """The live loops against their frozen pre-rewrite copies in
    ``tests/_mwu_reference.py``: every field and every rounded pick must
    be byte-equal.  Both sides run in this process on one BLAS kernel,
    so equality holds whatever kernel the CPU selects."""

    @staticmethod
    def _fractional(problem, eps, max_iterations):
        kind = problem.kind
        live = getattr(mwu_module, f"_fractional_{kind}")(problem, eps, max_iterations)
        frozen = getattr(reference, f"_fractional_{kind}")(problem, eps, max_iterations)
        for field in dataclasses.fields(frozen):
            assert _bytes(getattr(live, field.name)) == _bytes(
                getattr(frozen, field.name)
            ), field.name
        return live

    @staticmethod
    def _rounding(problem, x, eps, trials):
        for seed in (0, 5):
            if problem.kind == "covering":
                live = mwu_module._round_covering(problem, x, seed, trials)
                frozen = reference._round_covering(problem, x, seed, trials)
            else:
                live = mwu_module._round_packing(problem, x, seed, trials, eps)
                frozen = reference._round_packing(problem, x, seed, trials, eps)
            assert live[0] == frozen[0]
            assert _bytes(live[1]) == _bytes(frozen[1])

    @pytest.mark.parametrize(
        "problem,eps",
        [entry[1:] for entry in _POOL],
        ids=[entry[0] for entry in _POOL],
    )
    def test_fractional_and_rounding(self, problem, eps):
        frac = self._fractional(problem, eps, None)
        for trials in (1, 8):
            self._rounding(problem, frac.x, eps, trials)

    @pytest.mark.parametrize("kind", ["covering", "packing"])
    def test_band_columns_counter(self, kind):
        problem = random_row_sparse_problem(kind, 2000, seed=0)
        frac = getattr(mwu_module, f"_fractional_{kind}")(problem, EPS, None)
        with obs.collect() as col:
            cert = mwu_fractional(problem, EPS)
        assert col.counters["mwu.iterations"] == cert.iterations == frac.iterations
        assert col.counters["mwu.band_columns"] == frac.band_columns
        # Every iteration but the converging one raises a non-empty batch.
        assert frac.iterations - 1 <= frac.band_columns
        assert frac.band_columns <= frac.iterations * problem.n

    def test_zero_weight_covering_masks_rows(self):
        # The pool's zero-weight covering problem frees columns that have
        # support, so its loop runs with masked rows.
        problem = random_row_sparse_problem("covering", 2000, seed=4)
        _, at = _with_zero_weights(problem, 17).normalized
        assert np.diff(at.indptr)[::17].any()

    def test_budget_exhaustion_forces_cover(self, monkeypatch):
        calls = []
        original = mwu_module._force_cover

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(mwu_module, "_force_cover", spy)
        problem = random_row_sparse_problem("covering", 2000, seed=1)
        frac = self._fractional(problem, EPS, 3)
        assert calls and frac.iterations == 3 and not frac.converged
        self._rounding(problem, frac.x, EPS, 1)

    def test_large_packing_strides_the_dual_search(self):
        # n > 65536: the dual search runs every 8th iteration, and
        # iteration 32 resyncs the loads from x.
        problem = random_row_sparse_problem("packing", 70_000, seed=2)
        frac = self._fractional(problem, EPS, 40)
        assert frac.iterations == 40 and frac.oracle_calls == 80
