"""Scalable (1+ε) multiplicative-weights solver tier for packing/covering.

The third solver tier next to :mod:`repro.ilp.exact` and
:mod:`repro.ilp.greedy`: a vectorized width-reduced multiplicative-
weights update (MWU) that solves the *fractional* relaxation of a
packing or covering LP to a certified (1+ε) duality gap, followed by
Kolliopoulos–Young-style randomized rounding back to an integral
solution.  Design points:

* **Vectorized lazy thresholding.**  Instead of raising one best
  column per step (the classic Garg–Könemann inner loop), every step
  raises the whole batch of columns whose cost-effectiveness is within
  a ``(1+η)`` band of the best — Young's "parallel" idiom, executed as
  two sparse matvecs per iteration: the oracle ``Âᵀy`` through
  scipy's CSC view ``Â.T`` (no transposed copy; it adds each column's
  terms in increasing row order from 0.0, as a CSR transpose would)
  and the forward product ``Âd`` for the step.  No per-row Python
  loops; the loop's vectors live in buffers reused across iterations.
* **Width reduction.**  Steps are capped so no constraint row moves by
  more than ``max(γ, β·slack)`` in normalized units, which keeps the
  exponential weights in range and makes progress geometric while
  slack is large.
* **Deterministic fixed schedule.**  The iteration budget is a pure
  function of ``(m, ε)``; the loop exits early only on the *certified*
  duality gap reaching ``1 + ε`` — a float comparison on values that
  are themselves order-deterministic.  No wall-clock reads, no
  data-dependent tie-breaks (argmin/argmax over numpy arrays resolve
  ties by lowest index).
* **Certificates, not trust.**  Every solve returns a
  :class:`repro.ilp.certificates.Certificate` whose duality-gap bound
  is re-derivable from the raw primal/dual vectors alone (see
  :func:`repro.ilp.certificates.verify_certificate`).
* **Randomized rounding with per-trial streams.**  Integral solutions
  come from independent Bernoulli trials (per-trial
  ``SeedSequence``-derived generators via
  :func:`repro.util.rng.spawn_rngs`), each followed by a deterministic
  repair pass (greedy cover completion / overload eviction) and a
  deterministic prune/augment pass; the best trial by objective wins,
  first trial on ties.

All internal algebra runs on the *row-normalized* matrix ``Â`` (rows
scaled by ``1/bᵢ`` so every bound is 1, :attr:`MwuProblem.normalized`,
built once per problem and shared by the fractional and rounding
phases).  Packing treats the ``[0,1]`` box as ``n`` more rows
``x_j <= 1``, so the run is a pure ``max w·x : [Â; I]x <= 1, x >= 0``;
the identity rows are never built (see :func:`_fractional_packing`).

Counters (no-ops unless :mod:`repro.obs` is collecting), once per
solve: ``mwu.iterations``; ``mwu.oracle_calls`` (two per iteration);
``mwu.band_columns``, the lazy-threshold batch width summed over all
iterations, i.e. how many columns the steps raised beside how many
steps there were; ``mwu.rounding.trials`` and
``mwu.rounding.repair_steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro import obs as _obs
from repro.artifacts.cache import SolveCache
from repro.ilp.certificates import (
    Certificate,
    MwuProblem,
    certificate_gap,
    covering_dual_bound,
    packing_dual_bound,
)
from repro.ilp.exact import ExactSolution, solve_covering_exact, solve_packing_exact
from repro.ilp.instance import FEASIBILITY_TOL, CoveringInstance, PackingInstance
from repro.util.rng import SeedLike, ensure_rng, spawn_rngs
from repro.util.validation import require

Instance = Union[PackingInstance, CoveringInstance]

#: Largest ``n`` the tiered dispatchers send to the exact tier.  The
#: ``exact_limit`` defaults of :mod:`repro.ilp.verify` read these, so
#: "tiered" and "verified" agree on where exact optima stop being
#: computed.
MWU_PACKING_EXACT_LIMIT = 400
MWU_COVERING_EXACT_LIMIT = 200

#: Default target gap.
DEFAULT_EPS = 0.1

#: Default number of randomized-rounding trials.
DEFAULT_ROUND_TRIALS = 8

#: ``u`` is updated incrementally each step and recomputed from ``x``
#: every this many iterations so float drift cannot accumulate.  Part
#: of the fixed schedule (indexed by iteration number, not by values).
_RESYNC_EVERY = 32

#: Rounding repair/prune passes iterate column-by-column in Python;
#: above this many variables the integral phase is skipped by the scale
#: scenario anyway, so the per-trial passes stay O(nnz) overall.
_PRUNE_LIMIT = 200_000

_TINY = 1e-300


@dataclass(frozen=True)
class FractionalSolve:
    """Internal result of one fractional MWU run (original-row duals).

    ``band_columns`` is the lazy-threshold batch width summed over the
    iterations (the ``mwu.band_columns`` counter)."""

    x: np.ndarray
    y: np.ndarray
    primal_value: float
    dual_bound: float
    gap: float
    iterations: int
    oracle_calls: int
    converged: bool
    band_columns: int


@dataclass(frozen=True)
class MwuSolution:
    """A certified MWU solve: fractional certificate + optional rounding.

    ``chosen`` / ``weight`` are the integral solution from randomized
    rounding (``None`` when ``round_trials=0`` — the scale scenarios
    certify the fractional gap only).
    """

    certificate: Certificate
    chosen: Optional[FrozenSet[int]] = None
    weight: Optional[float] = None

    @property
    def kind(self) -> str:
        return self.certificate.kind

    @property
    def fractional_value(self) -> float:
        return self.certificate.primal_value


@dataclass(frozen=True)
class TieredSolution:
    """Result of the exact-below-cutoff / MWU-above dispatchers."""

    tier: str
    weight: float
    chosen: FrozenSet[int]
    certificate: Optional[Certificate] = None


def default_schedule(m: int, eps: float) -> int:
    """The fixed iteration budget for an ``m``-row run at target ``eps``.

    A pure function of the shape — never of the data — so two runs on
    equal inputs execute bit-identical schedules.  Generous on purpose:
    the loop exits early on the certified gap, and the width-capped
    steps make that the common case.
    """
    eps_i = max(eps, 1e-3) / 3.0
    return int(64 + math.ceil(32.0 * math.log(max(m, 2)) / eps_i))


def _column_stat(mat_t: sparse.csr_matrix, op: np.ufunc, empty: float) -> np.ndarray:
    """Per-column ``op``-reduction of a matrix given as its CSR transpose."""
    counts = np.diff(mat_t.indptr)
    out = np.full(mat_t.shape[0], empty, dtype=np.float64)
    nonempty = counts > 0
    if bool(nonempty.any()):
        segment = op.reduceat(mat_t.data, mat_t.indptr[:-1][nonempty])
        out[nonempty] = segment
    return out


def _fractional_covering(
    problem: MwuProblem, eps: float, max_iterations: Optional[int]
) -> FractionalSolve:
    """Width-reduced MWU for ``min w·x : Âx >= 1, x >= 0``."""
    m, n = problem.m, problem.n
    w = problem.weights
    ah, at = problem.normalized
    if bool((np.diff(ah.indptr) == 0).any()):
        raise ValueError("covering row with empty support is unsatisfiable")
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
        return FractionalSolve(x, y, float(w.dot(x)), 0.0, 1.0, 0, 0, True, 0)
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
    # A batch column's step direction; 0 off ``sel``, so the batch
    # needs no second masking pass.
    d_on = np.where(sel, 1.0 / np.maximum(colmax, _TINY), 0.0)
    masked = None if bool(row_mask.all()) else ~row_mask
    aht = ah.T  # CSC view: the oracle reads Âᵀy with no transposed copy
    y = np.empty(m, dtype=np.float64)
    lam = np.empty(n, dtype=np.float64)
    d = np.empty(n, dtype=np.float64)
    batch = np.empty(n, dtype=bool)
    best_val = math.inf
    best_x: Optional[np.ndarray] = None
    best_bound = 0.0
    best_y: Optional[np.ndarray] = None
    oracle = 0
    band = 0
    it = 0
    converged = False
    while it < budget:
        it += 1
        np.multiply(u, -eta, out=y)
        if masked is not None:
            y[masked] = -math.inf
        np.subtract(y, float(y.max()), out=y)
        np.exp(y, out=y)
        g = aht.dot(y)
        oracle += 1
        np.multiply(g, inv_w, out=lam)
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
        np.greater_equal(lam, lam_max / (1.0 + eps_i), out=batch)
        band += int(np.count_nonzero(batch))
        np.multiply(batch, d_on, out=d)
        r = ah.dot(d)
        oracle += 1
        # Only rows the batch touches (r > 0) can cap the step.
        touched = np.flatnonzero(r > 0.0)
        slack = 1.0 - u[touched]
        open_rows = slack > 0.0
        if bool(open_rows.any()):
            allow = np.maximum(gamma, beta * slack[open_rows])
            step = float((allow / r[touched[open_rows]]).min())
        else:
            step = gamma / max(float(r.max()), _TINY)
        x += np.multiply(d, step, out=d)
        u += np.multiply(r, step, out=r)
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
        best_x, y_orig, primal_final, dual_final, gap, it, oracle, converged, band
    )


def _force_cover(
    ah: sparse.csr_matrix, at: sparse.csr_matrix, w: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Deterministic feasibility fallback: cover each deficient row with
    its single most cost-effective column (fully, in one shot)."""
    x = x.copy()
    u = ah.dot(x)
    for i in np.flatnonzero(u < 1.0 - FEASIBILITY_TOL):
        lo, hi = ah.indptr[i], ah.indptr[i + 1]
        cols = ah.indices[lo:hi]
        coef = ah.data[lo:hi]
        score = coef / np.maximum(w[cols], _TINY)
        j_local = int(np.argmax(score))
        j = int(cols[j_local])
        needed = (1.0 - float(u[i])) / float(coef[j_local])
        x[j] += needed
        jlo, jhi = at.indptr[j], at.indptr[j + 1]
        u[at.indices[jlo:jhi]] += needed * at.data[jlo:jhi]
    return x


def _fractional_packing(
    problem: MwuProblem, eps: float, max_iterations: Optional[int]
) -> FractionalSolve:
    """Width-reduced MWU for ``max w·x : Âx <= 1, 0 <= x <= 1``.

    The ``[0,1]`` box is part of the packing system: ``x <= 1`` is a
    row ``x_j`` per column, with load ``x_j`` and dual ``y[m + j]``, so
    the run is ``max w·x : [Â; I] x <= 1, x >= 0``.  The identity rows
    are never built.  Their column entry comes last and is exactly 1,
    so ``[Â; I]ᵀy = Âᵀy[:m] + y[m:]`` and ``[Â; I] d = [Âd; d]``
    bit for bit.
    """
    m, n = problem.m, problem.n
    w = problem.weights
    ah, at = problem.normalized
    # >= 1 via the box rows.
    colmax = np.maximum(_column_stat(at, np.maximum, 1.0), 1.0)
    sel = w > 0.0
    every = bool(sel.all())
    ws = w if every else w[sel]
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

    d_on = 1.0 / colmax
    aht = ah.T  # CSC view: the oracle reads Âᵀy with no transposed copy
    x = np.zeros(n, dtype=np.float64)
    # Row loads.  The box rows' loads are x itself: both take the same
    # increments, and a resync would set them to x.
    u = np.zeros(m, dtype=np.float64)
    y = np.empty(m_aug, dtype=np.float64)
    lam = np.empty(n, dtype=np.float64)
    d = np.empty(n, dtype=np.float64)
    batch = np.empty(n, dtype=bool)
    best_val = 0.0
    best_x = np.zeros(n, dtype=np.float64)
    best_bound = float(ws.sum()) if ws.size else 0.0
    best_y: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None
    oracle = 0
    band = 0
    it = 0
    converged = best_bound <= 0.0
    while it < budget and not converged:
        it += 1
        np.multiply(u, eta, out=y[:m])
        np.multiply(x, eta, out=y[m:])
        np.subtract(y, float(y.max()), out=y)
        np.exp(y, out=y)
        g = aht.dot(y[:m])
        g += y[m:]
        oracle += 1
        # g >= y_box > 0 everywhere thanks to the box rows.
        np.maximum(g, _TINY, out=g)
        np.divide(w, g, out=lam)
        if not every:
            lam[~sel] = 0.0
        lam_max = float(lam.max())
        if it % dual_every == 1 or dual_every == 1:
            scaled_y, bound, order = _packing_dual_search(
                y, lam if every else lam[sel], g if every else g[sel], ws, order
            )
            if bound < best_bound:
                best_bound = bound
                best_y = scaled_y
        umax = max(float(u.max()), float(x.max())) if m else float(x.max())
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
        np.greater_equal(lam, lam_max / (1.0 + eps_i), out=batch)
        band += int(np.count_nonzero(batch))
        np.multiply(batch, d_on, out=d)
        r = ah.dot(d)
        oracle += 1
        # Saturated rows keep the γ floor (instead of blocking): steps
        # then push the binding rows' loads slowly past 1, which is what
        # concentrates the exponential duals and closes the gap after
        # the primal has stopped improving.  The rows the batch touches
        # (r > 0) and the batch's own box rows (d > 0, never empty: the
        # argmax column is in the batch) cap the step; min is exact, so
        # splitting the two sets leaves it unchanged.
        touched = np.flatnonzero(r > 0.0)
        cols = np.flatnonzero(batch)
        allow = np.maximum(gamma, beta * np.maximum(1.0 - x[cols], 0.0))
        step = float((allow / d[cols]).min())
        if touched.size:
            allow = np.maximum(gamma, beta * np.maximum(1.0 - u[touched], 0.0))
            step = min(step, float((allow / r[touched]).min()))
        x += np.multiply(d, step, out=d)
        u += np.multiply(r, step, out=r)
        if it % _RESYNC_EVERY == 0:
            u = ah.dot(x)

    best_x = np.minimum(best_x, 1.0)
    y_orig = (
        best_y[:m] / problem.bounds if best_y is not None else np.zeros(m, dtype=np.float64)
    )
    dual_final = packing_dual_bound(problem, y_orig)
    primal_final = float(w.dot(best_x))
    gap = certificate_gap("packing", primal_final, dual_final)
    return FractionalSolve(
        best_x, y_orig, primal_final, dual_final, gap, it, oracle, converged, band
    )


def _packing_dual_search(
    y: np.ndarray,
    s: np.ndarray,
    gs: np.ndarray,
    ws: np.ndarray,
    warm: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Exact line search over scalings ``t·y`` of the completed packing
    dual ``f(t) = t·Σy + Σ_j max(0, w_j - t·g_j)``.

    ``ws``, ``gs`` and ``s`` are the weights, loads ``g_j > 0`` and
    breakpoints ``s_j = w_j/g_j`` of the positive-weight columns.  ``f``
    is convex piecewise-linear, so its minimizer is the smallest
    breakpoint ``s*`` whose strictly-above mass ``Σ_{s_j>s*} g_j`` is at
    most ``Σy``, or ``0`` (the trivial ``Σw`` bound) when ``Σg <= Σy``.
    ``f(s*)`` is then evaluated by value, summed in column order, so the
    bound does not depend on how tied breakpoints are ordered.

    ``warm`` is the order this returned last time (any permutation of
    the columns; ``None`` sorts cold).  The breakpoints drift little
    between iterations, so stably re-sorting ``s[warm]`` is near-linear.
    Returns the scaled dual, its bound and the new order.
    """
    if ws.size == 0:
        return y * 0.0, 0.0, np.empty(0, dtype=np.intp)
    if warm is None:
        order = np.argsort(s, kind="stable")
    else:
        order = warm[np.argsort(s[warm], kind="stable")]
    y_sum = float(y.sum())
    trivial = float(ws.sum())
    # mass[k]: load at sorted positions >= k, non-increasing (sums of
    # non-negatives never shrink).  k = heavy - 1 is the last position
    # with mass[k] > Σy.  The strictly-above load at s[order[k]] is at
    # most the exclusive suffix mass[k+1] <= Σy, and at any smaller
    # breakpoint at least mass[k] > Σy, so s[order[k]] is s* whatever
    # the order of ties.
    mass = np.cumsum(gs[order[::-1]])[::-1]
    heavy = int(np.count_nonzero(mass > y_sum))
    if heavy == 0:
        return y * 0.0, trivial, order
    s_star = float(s[order[heavy - 1]])
    above = np.where(s > s_star, ws - s_star * gs, 0.0)
    best_f = s_star * y_sum + float(np.add.reduce(above))
    if trivial <= best_f:
        return y * 0.0, trivial, order
    return y * s_star, best_f, order


def mwu_fractional(
    problem: MwuProblem,
    eps: float = DEFAULT_EPS,
    max_iterations: Optional[int] = None,
) -> Certificate:
    """Solve the fractional relaxation to a certified gap.

    Returns a :class:`Certificate` whose ``gap`` is the re-derivable
    duality ratio; ``cert.within()`` reports whether the (1+ε) target
    was certified within the iteration budget.
    """
    require(eps > 0, f"eps must be > 0, got {eps}")
    with _obs.span("mwu.fractional"):
        if problem.kind == "covering":
            frac = _fractional_covering(problem, eps, max_iterations)
        else:
            frac = _fractional_packing(problem, eps, max_iterations)
    _obs.count("mwu.iterations", frac.iterations)
    _obs.count("mwu.oracle_calls", frac.oracle_calls)
    _obs.count("mwu.band_columns", frac.band_columns)
    return Certificate(
        kind=problem.kind,
        eps=eps,
        x=frac.x,
        y=frac.y,
        primal_value=frac.primal_value,
        dual_bound=frac.dual_bound,
        gap=frac.gap,
        iterations=frac.iterations,
        oracle_calls=frac.oracle_calls,
    )


def _rounding_alphas(m: int, trials: int) -> np.ndarray:
    """Per-trial covering inflation factors: 1 up to ~``1 + ln m``."""
    top = max(1.0, math.log(max(m, 2)))
    if trials == 1:
        return np.asarray([1.0 + 0.5 * top])
    return 1.0 + top * np.arange(trials, dtype=np.float64) / (trials - 1)


def _weight_order(w: np.ndarray) -> np.ndarray:
    """Columns by weight, heaviest first, ties by index: the prune and
    augment walk order."""
    return np.lexsort((np.arange(w.size), -w))


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
    ah, at = problem.normalized
    col_nnz = np.diff(at.indptr)
    rowsum = np.asarray(ah.sum(axis=1)).ravel()
    if bool((rowsum < 1.0 - FEASIBILITY_TOL).any()):
        raise ValueError("covering instance not satisfiable by the all-ones solution")
    alphas = _rounding_alphas(m, trials)
    free = (w <= 0.0) & (col_nnz > 0)
    entry_row = np.repeat(np.arange(m), np.diff(ah.indptr))  # row of each Â entry
    entry_col = np.repeat(np.arange(n), col_nnz)  # column of each Âᵀ entry
    order = _weight_order(w) if n <= _PRUNE_LIMIT else None
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
            # Each needy row's entries in CSR order, summed from zero.
            ent = needy[entry_row]
            contrib = np.minimum(ah.data[ent], need[entry_row[ent]])
            gain = np.bincount(ah.indices[ent], weights=contrib, minlength=n)
            gain[pick] = 0.0
            score = gain / np.maximum(w, _TINY)
            j = int(np.argmax(score))
            if gain[j] <= 0.0:
                raise ValueError("covering rounding cannot complete: row exhausted")
            pick[j] = True
            lo, hi = at.indptr[j], at.indptr[j + 1]
            cov[at.indices[lo:hi]] += at.data[lo:hi]
            repair_steps += 1
        if order is not None:
            # cov only falls during the prune, and float subtraction is
            # monotone, so a column whose removal would uncover a row now
            # still would at its turn: walk only the columns that pass
            # now, and test each again when it comes.
            spare = cov[at.indices] - at.data >= 1.0 - FEASIBILITY_TOL
            blocked = np.bincount(entry_col[~spare], minlength=n) > 0
            walk = pick & (w > 0.0) & ~blocked
            for j in order[walk[order]]:
                j = int(j)
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
    ah, at = problem.normalized
    # Column of each Âᵀ entry.
    entry_col = np.repeat(np.arange(n), np.diff(at.indptr))
    order = _weight_order(w) if n <= _PRUNE_LIMIT else None
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
        if order is not None:
            # usage only rises during the augmentation, and float
            # addition is monotone, so a column that would overload a
            # row now still would at its turn: walk only the columns
            # that fit now, and test each again when it comes.
            fits = usage[at.indices] + at.data <= 1.0 + FEASIBILITY_TOL
            blocked = np.bincount(entry_col[~fits], minlength=n) > 0
            walk = ~pick & (w > 0.0) & ~blocked
            for j in order[walk[order]]:
                j = int(j)
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


def _coerce(instance: Union[Instance, MwuProblem]) -> MwuProblem:
    if isinstance(instance, MwuProblem):
        return instance
    return MwuProblem.from_instance(instance)


def solve_packing_mwu(
    instance: Union[PackingInstance, MwuProblem],
    eps: float = DEFAULT_EPS,
    *,
    seed: SeedLike = 0,
    round_trials: int = DEFAULT_ROUND_TRIALS,
    max_iterations: Optional[int] = None,
) -> MwuSolution:
    """Certified (1+ε) MWU solve of a packing instance.

    Fractional phase always runs; set ``round_trials=0`` to skip the
    integral rounding (the certificate alone is the product then).
    """
    problem = _coerce(instance)
    require(problem.kind == "packing", "solve_packing_mwu needs a packing problem")
    with _obs.span("mwu.solve"):
        cert = mwu_fractional(problem, eps, max_iterations)
        if round_trials <= 0:
            return MwuSolution(certificate=cert)
        with _obs.span("mwu.rounding"):
            chosen, weight = _round_packing(problem, cert.x, seed, round_trials, eps)
    return MwuSolution(certificate=cert, chosen=chosen, weight=weight)


def solve_covering_mwu(
    instance: Union[CoveringInstance, MwuProblem],
    eps: float = DEFAULT_EPS,
    *,
    seed: SeedLike = 0,
    round_trials: int = DEFAULT_ROUND_TRIALS,
    max_iterations: Optional[int] = None,
) -> MwuSolution:
    """Certified (1+ε) MWU solve of a covering instance."""
    problem = _coerce(instance)
    require(problem.kind == "covering", "solve_covering_mwu needs a covering problem")
    with _obs.span("mwu.solve"):
        cert = mwu_fractional(problem, eps, max_iterations)
        if round_trials <= 0:
            return MwuSolution(certificate=cert)
        with _obs.span("mwu.rounding"):
            chosen, weight = _round_covering(problem, cert.x, seed, round_trials)
    return MwuSolution(certificate=cert, chosen=chosen, weight=weight)


def solve_packing_tiered(
    instance: PackingInstance,
    eps: float = DEFAULT_EPS,
    *,
    seed: SeedLike = 0,
    exact_limit: int = MWU_PACKING_EXACT_LIMIT,
    round_trials: int = DEFAULT_ROUND_TRIALS,
    cache: Optional[SolveCache] = None,
) -> TieredSolution:
    """Exact below ``exact_limit`` variables, certified MWU above."""
    if instance.n <= exact_limit:
        sol: ExactSolution = solve_packing_exact(instance, cache=cache)
        return TieredSolution("exact", sol.weight, sol.chosen)
    msol = solve_packing_mwu(
        instance, eps, seed=seed, round_trials=max(round_trials, 1)
    )
    assert msol.chosen is not None and msol.weight is not None
    return TieredSolution("mwu", msol.weight, msol.chosen, msol.certificate)


def solve_covering_tiered(
    instance: CoveringInstance,
    eps: float = DEFAULT_EPS,
    *,
    seed: SeedLike = 0,
    exact_limit: int = MWU_COVERING_EXACT_LIMIT,
    round_trials: int = DEFAULT_ROUND_TRIALS,
    cache: Optional[SolveCache] = None,
) -> TieredSolution:
    """Exact below ``exact_limit`` variables, certified MWU above."""
    if instance.n <= exact_limit:
        sol = solve_covering_exact(instance, cache=cache)
        return TieredSolution("exact", sol.weight, sol.chosen)
    msol = solve_covering_mwu(
        instance, eps, seed=seed, round_trials=max(round_trials, 1)
    )
    assert msol.chosen is not None and msol.weight is not None
    return TieredSolution("mwu", msol.weight, msol.chosen, msol.certificate)


def random_row_sparse_problem(
    kind: str,
    n: int,
    *,
    seed: SeedLike,
    rows: Optional[int] = None,
    row_arity: int = 3,
    name: str = "",
) -> MwuProblem:
    """Generate an ``MwuProblem`` directly in array form.

    The scale scenarios need n = 10⁵..10⁶ instances; building
    per-constraint dicts at that size would dominate the solve, so this
    samples the CSR triplets in bulk: ``rows`` (default ``n // 2``)
    constraints of ``row_arity`` uniform column draws with integer
    coefficients in [1, 3] (duplicate draws merge additively), integer
    weights in [1, 9], covering bounds 1 / packing bounds in [2, 4].
    Every covering row is satisfiable by the all-ones solution.
    """
    require(kind in ("packing", "covering"), f"bad kind {kind!r}")
    require(n >= 1 and row_arity >= 1, "need n >= 1 and row_arity >= 1")
    rng = ensure_rng(seed)
    m = n // 2 if rows is None else rows
    cols = rng.integers(0, n, size=m * row_arity)
    data = rng.integers(1, 4, size=m * row_arity).astype(np.float64)
    row_idx = np.repeat(np.arange(m, dtype=np.int64), row_arity)
    matrix = sparse.coo_matrix((data, (row_idx, cols)), shape=(m, n))
    weights = rng.integers(1, 10, size=n).astype(np.float64)
    if kind == "covering":
        bounds = np.ones(m, dtype=np.float64)
    else:
        bounds = rng.integers(2, 5, size=m).astype(np.float64)
    return MwuProblem.from_arrays(
        kind, weights, matrix, bounds, name=name or f"row-sparse-{kind}-{n}"
    )
