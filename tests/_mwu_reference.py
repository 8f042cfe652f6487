"""Frozen reference copy of the MWU tier's inner loops.

``_fractional_covering``, ``_fractional_packing``, ``_round_covering``
and ``_round_packing`` as they stood before the loops were rewritten to
do the same floating-point operations with less work.  Here the oracle
runs through the materialized transpose ``at = Â.T.tocsr()``, packing
stacks the ``[0,1]`` box as identity rows, and the covering completion
re-slices ``Â`` every repair step.  ``_row_normalized`` and the
eight-field ``FractionalSolve`` are kept with them; the helpers the
rewrite left alone are imported.  ``TestReferenceIdentity`` in
``tests/test_ilp_mwu.py`` byte-compares the live loops against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np
from scipy import sparse

from repro import obs as _obs
from repro.ilp.certificates import (
    MwuProblem,
    certificate_gap,
    covering_dual_bound,
    packing_dual_bound,
)
from repro.ilp.instance import FEASIBILITY_TOL
from repro.ilp.mwu import (
    _PRUNE_LIMIT,
    _RESYNC_EVERY,
    _TINY,
    _column_stat,
    _force_cover,
    _packing_dual_search,
    _rounding_alphas,
    default_schedule,
)
from repro.util.rng import SeedLike, spawn_rngs


def _row_normalized(problem: MwuProblem) -> sparse.csr_matrix:
    """``Â``: rows scaled by ``1/bᵢ`` so every bound is 1."""
    inv = 1.0 / problem.bounds
    scaled = problem.matrix.tocsr(copy=True)
    scaled.data = scaled.data * np.repeat(inv, np.diff(scaled.indptr))
    return scaled


@dataclass(frozen=True)
class FractionalSolve:
    """Internal result of one fractional MWU run (original-row duals)."""

    x: np.ndarray
    y: np.ndarray
    primal_value: float
    dual_bound: float
    gap: float
    iterations: int
    oracle_calls: int
    converged: bool


def _fractional_covering(
    problem: MwuProblem, eps: float, max_iterations: Optional[int]
) -> FractionalSolve:
    """Width-reduced MWU for ``min w·x : Âx >= 1, x >= 0``."""
    m, n = problem.m, problem.n
    w = problem.weights
    ah = _row_normalized(problem)
    if bool((np.diff(ah.indptr) == 0).any()):
        raise ValueError("covering row with empty support is unsatisfiable")
    at = ah.T.tocsr()
    col_nnz = np.diff(at.indptr)
    colmax = _column_stat(at, np.maximum, 0.0)
    free = w <= 0.0

    x = np.zeros(n, dtype=np.float64)
    row_mask = np.ones(m, dtype=bool)
    if bool(free.any()):
        # Free columns cover their whole support at zero cost: raise each
        # to 1/min(column entries) and exclude the covered rows from the
        # dual (dual feasibility needs (Âᵀy)_j <= 0 on free columns).
        for j in np.flatnonzero(free & (col_nnz > 0)):
            lo, hi = at.indptr[j], at.indptr[j + 1]
            x[j] = 1.0 / float(at.data[lo:hi].min())
            row_mask[at.indices[lo:hi]] = False
    u = ah.dot(x)

    sel = (~free) & (col_nnz > 0)
    if not bool(row_mask.any()):
        # Everything covered for free.
        y = np.zeros(m, dtype=np.float64)
        return FractionalSolve(x, y, float(w.dot(x)), 0.0, 1.0, 0, 0, True)
    if not bool(sel.any()):
        raise ValueError("covering rows left uncovered with no usable columns")

    m_eff = max(int(row_mask.sum()), 2)
    eps_i = eps / 3.0
    eta = math.log(m_eff) / eps_i
    # Width floor: eps/eta (not the analysis-tight eps_i/eta) — the
    # certificate, not the potential argument, guards correctness, and
    # 3x-larger floor steps cut the iteration count ~2x while staying
    # below the empirical oscillation threshold (~5 eps_i * eta).
    gamma = eps / eta
    beta = 0.5
    budget = default_schedule(m, eps) if max_iterations is None else max_iterations

    inv_w = np.where(sel, 1.0 / np.maximum(w, _TINY), 0.0)
    best_val = math.inf
    best_x: Optional[np.ndarray] = None
    best_bound = 0.0
    best_y: Optional[np.ndarray] = None
    oracle = 0
    it = 0
    converged = False
    neg_inf = -math.inf
    while it < budget:
        it += 1
        z = np.where(row_mask, -eta * u, neg_inf)
        zmax = float(z.max())
        y = np.exp(z - zmax)
        g = at.dot(y)
        oracle += 1
        lam = g * inv_w
        lam_max = float(lam.max())
        if lam_max > 0.0:
            bound = float(y.sum()) / lam_max
            if bound > best_bound:
                best_bound = bound
                best_y = y / lam_max
        umin = float(u.min())
        if umin > 0.0:
            val = float(w.dot(x)) / umin
            if val < best_val:
                best_val = val
                best_x = x / umin
        if best_bound > 0.0 and best_val <= (1.0 + eps) * best_bound:
            converged = True
            break
        if lam_max <= 0.0:  # no effective column left (masked rows only)
            break
        d = np.where(lam >= lam_max / (1.0 + eps_i), 1.0 / np.maximum(colmax, _TINY), 0.0)
        d[~sel] = 0.0
        r = ah.dot(d)
        oracle += 1
        slack = 1.0 - u
        capped = (slack > 0.0) & (r > 0.0)
        if bool(capped.any()):
            allow = np.maximum(gamma, beta * slack[capped])
            step = float((allow / r[capped]).min())
        else:
            step = gamma / max(float(r.max()), _TINY)
        x += step * d
        u += step * r
        if it % _RESYNC_EVERY == 0:
            u = ah.dot(x)

    if best_x is None:
        # The budget ran out before every row was touched; finish
        # deterministically by force-covering the remaining deficit.
        x = _force_cover(ah, at, w, x)
        u = ah.dot(x)
        umin = float(u.min())
        best_x = x / umin if umin > 0 else x
        best_val = float(w.dot(best_x))

    y_orig = (
        best_y / problem.bounds if best_y is not None else np.zeros(m, dtype=np.float64)
    )
    dual_final = covering_dual_bound(problem, y_orig)
    primal_final = float(w.dot(best_x))
    gap = certificate_gap("covering", primal_final, dual_final)
    return FractionalSolve(
        best_x, y_orig, primal_final, dual_final, gap, it, oracle, converged
    )


def _fractional_packing(
    problem: MwuProblem, eps: float, max_iterations: Optional[int]
) -> FractionalSolve:
    """Width-reduced MWU for ``max w·x : Âx <= 1, 0 <= x <= 1``.

    The box is folded into the packing system as identity rows, so the
    loop only ever sees ``Â_aug x <= 1, x >= 0``.
    """
    m, n = problem.m, problem.n
    w = problem.weights
    ah = _row_normalized(problem)
    aug = sparse.vstack(
        [ah, sparse.identity(n, dtype=np.float64, format="csr")], format="csr"
    )
    at = aug.T.tocsr()
    colmax = _column_stat(at, np.maximum, 1.0)  # >= 1 via the identity rows
    sel = w > 0.0
    ws = w[sel]
    m_aug = m + n

    eps_i = eps / 3.0
    eta = math.log(max(m_aug, 2)) / eps_i
    gamma = eps / eta  # same width floor rationale as the covering loop
    beta = 0.5
    budget = default_schedule(m_aug, eps) if max_iterations is None else max_iterations
    # The dual line search re-sorts the breakpoints from the previous
    # call's order, which is near-linear while they drift little.  At
    # n = 10⁵ a search every iteration still took 58 s against 33 s at
    # stride 8 (same iterates), so large n keeps a fixed stride.
    dual_every = 1 if n <= 65536 else (8 if n <= 262144 else 32)

    x = np.zeros(n, dtype=np.float64)
    u = np.zeros(m_aug, dtype=np.float64)
    best_val = 0.0
    best_x = np.zeros(n, dtype=np.float64)
    best_bound = float(ws.sum()) if ws.size else 0.0
    best_y: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    oracle = 0
    it = 0
    converged = best_bound <= 0.0
    while it < budget and not converged:
        it += 1
        z = eta * u
        y = np.exp(z - float(z.max()))
        g = at.dot(y)
        oracle += 1
        # g >= y_box > 0 everywhere thanks to the identity rows.
        g = np.maximum(g, _TINY)
        lam = np.where(sel, w / g, 0.0)
        lam_max = float(lam.max())
        if it % dual_every == 1 or dual_every == 1:
            scaled_y, bound, order = _packing_dual_search(
                y, lam[sel], g[sel], ws, order
            )
            if bound < best_bound:
                best_bound = bound
                best_y = scaled_y
        umax = float(u.max())
        if umax > 0.0:
            val = float(w.dot(x)) / umax
            if val > best_val:
                best_val = val
                best_x = x / umax
        if best_val > 0.0 and best_bound <= (1.0 + eps) * best_val:
            converged = True
            break
        if lam_max <= 0.0:
            break
        d = np.where(lam >= lam_max / (1.0 + eps_i), 1.0 / colmax, 0.0)
        r = aug.dot(d)
        oracle += 1
        # Saturated rows keep the γ floor (instead of blocking): steps
        # then push the binding rows' loads slowly past 1, which is what
        # concentrates the exponential duals and closes the gap after
        # the primal has stopped improving.
        capped = r > 0.0
        if not bool(capped.any()):
            break
        slack = np.maximum(1.0 - u[capped], 0.0)
        allow = np.maximum(gamma, beta * slack)
        step = float((allow / r[capped]).min())
        x += step * d
        u += step * r
        if it % _RESYNC_EVERY == 0:
            u = aug.dot(x)

    best_x = np.minimum(best_x, 1.0)
    y_orig = (
        best_y[:m] / problem.bounds if best_y is not None else np.zeros(m, dtype=np.float64)
    )
    dual_final = packing_dual_bound(problem, y_orig)
    primal_final = float(w.dot(best_x))
    gap = certificate_gap("packing", primal_final, dual_final)
    return FractionalSolve(
        best_x, y_orig, primal_final, dual_final, gap, it, oracle, converged
    )


def _round_covering(
    problem: MwuProblem,
    x_frac: np.ndarray,
    seed: SeedLike,
    trials: int,
) -> Tuple[FrozenSet[int], float]:
    """Kolliopoulos–Young rounding for covering: Bernoulli(min(1, α·x))
    per trial, deterministic greedy completion, deterministic prune."""
    m, n = problem.m, problem.n
    w = problem.weights
    ah = _row_normalized(problem)
    at = ah.T.tocsr()
    col_nnz = np.diff(at.indptr)
    rowsum = np.asarray(ah.sum(axis=1)).ravel()
    if bool((rowsum < 1.0 - FEASIBILITY_TOL).any()):
        raise ValueError("covering instance not satisfiable by the all-ones solution")
    alphas = _rounding_alphas(m, trials)
    free = (w <= 0.0) & (col_nnz > 0)
    best_pick: Optional[np.ndarray] = None
    best_weight = math.inf
    repair_steps = 0
    for trial, rng in enumerate(spawn_rngs(seed, trials)):
        p = np.minimum(1.0, alphas[trial] * x_frac)
        pick = rng.random(n) < p
        pick |= free
        cov = ah.dot(pick.astype(np.float64))
        while True:
            need = 1.0 - cov
            needy = need > FEASIBILITY_TOL
            if not bool(needy.any()):
                break
            sub = ah[np.flatnonzero(needy)]
            contrib = np.minimum(
                sub.data, np.repeat(need[needy], np.diff(sub.indptr))
            )
            gain = np.zeros(n, dtype=np.float64)
            np.add.at(gain, sub.indices, contrib)
            gain[pick] = 0.0
            score = gain / np.maximum(w, _TINY)
            j = int(np.argmax(score))
            if gain[j] <= 0.0:
                raise ValueError("covering rounding cannot complete: row exhausted")
            pick[j] = True
            lo, hi = at.indptr[j], at.indptr[j + 1]
            cov[at.indices[lo:hi]] += at.data[lo:hi]
            repair_steps += 1
        if n <= _PRUNE_LIMIT:
            for j in np.lexsort((np.arange(n), -w)):
                j = int(j)
                if not pick[j] or w[j] <= 0.0:
                    continue
                lo, hi = at.indptr[j], at.indptr[j + 1]
                rows = at.indices[lo:hi]
                if bool(np.all(cov[rows] - at.data[lo:hi] >= 1.0 - FEASIBILITY_TOL)):
                    pick[j] = False
                    cov[rows] -= at.data[lo:hi]
        weight = float(w.dot(pick))
        if weight < best_weight - 0.0:
            best_weight = weight
            best_pick = pick
    _obs.count("mwu.rounding.trials", trials)
    _obs.count("mwu.rounding.repair_steps", repair_steps)
    assert best_pick is not None
    return frozenset(int(j) for j in np.flatnonzero(best_pick)), best_weight


def _round_packing(
    problem: MwuProblem,
    x_frac: np.ndarray,
    seed: SeedLike,
    trials: int,
    eps: float,
) -> Tuple[FrozenSet[int], float]:
    """Packing rounding: scaled-down Bernoulli per trial, deterministic
    overload eviction, then a deterministic greedy augmentation."""
    n = problem.n
    w = problem.weights
    ah = _row_normalized(problem)
    at = ah.T.tocsr()
    shrink = min(0.5, eps)
    best_pick: Optional[np.ndarray] = None
    best_weight = -math.inf
    repair_steps = 0
    for trial, rng in enumerate(spawn_rngs(seed, trials)):
        factor = 1.0 - shrink * (trial + 1) / trials
        p = np.clip(factor * x_frac, 0.0, 1.0)
        pick = (rng.random(n) < p) & (w > 0.0)
        usage = ah.dot(pick.astype(np.float64))
        for i in np.flatnonzero(usage > 1.0 + FEASIBILITY_TOL):
            while usage[i] > 1.0 + FEASIBILITY_TOL:
                lo, hi = ah.indptr[i], ah.indptr[i + 1]
                cols = ah.indices[lo:hi]
                coef = ah.data[lo:hi]
                in_row = pick[cols]
                if not bool(in_row.any()):
                    break
                density = np.where(in_row, w[cols] / coef, math.inf)
                drop_local = int(np.argmin(density))
                j = int(cols[drop_local])
                pick[j] = False
                jlo, jhi = at.indptr[j], at.indptr[j + 1]
                usage[at.indices[jlo:jhi]] -= at.data[jlo:jhi]
                repair_steps += 1
        if n <= _PRUNE_LIMIT:
            order = np.lexsort((np.arange(n), -w))
            for j in order:
                j = int(j)
                if pick[j] or w[j] <= 0.0:
                    continue
                lo, hi = at.indptr[j], at.indptr[j + 1]
                rows = at.indices[lo:hi]
                if bool(
                    np.all(usage[rows] + at.data[lo:hi] <= 1.0 + FEASIBILITY_TOL)
                ):
                    pick[j] = True
                    usage[rows] += at.data[lo:hi]
        weight = float(w.dot(pick))
        if weight > best_weight + 0.0:
            best_weight = weight
            best_pick = pick
    _obs.count("mwu.rounding.trials", trials)
    _obs.count("mwu.rounding.repair_steps", repair_steps)
    assert best_pick is not None
    return frozenset(int(j) for j in np.flatnonzero(best_pick)), best_weight
