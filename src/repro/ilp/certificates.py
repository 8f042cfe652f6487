"""Duality-gap certificates for the scalable (1+ε) LP/MWU solver tier.

The exact tier proves optimality by construction; the MWU tier cannot,
so every MWU solve returns a :class:`Certificate` — the fractional
primal solution, the dual/weight vector the multiplicative-weights run
produced, and the duality-gap bound they witness together.  The bound
is *re-derived* by :func:`verify_certificate` from the raw vectors
alone; a (1+ε) claim is never trusted, only recomputed:

* **Packing** ``max w·x  s.t.  A x <= b,  0 <= x <= 1``.  For any
  ``y >= 0`` the box duals complete for free as
  ``z = max(0, w - Aᵀy)``, so ``b·y + Σ_j max(0, w_j - (Aᵀy)_j)`` is a
  valid upper bound on the LP optimum — and therefore on the ILP
  optimum.  A feasible primal ``x`` then certifies the ratio
  ``dual_bound / w·x``.
* **Covering** ``min w·x  s.t.  A x >= b,  x >= 0``.  Any ``y >= 0``
  with ``Aᵀy <= w`` is dual feasible and ``b·y`` lower-bounds the
  boxless LP optimum, which lower-bounds both the ``[0,1]``-box LP
  relaxation and the ILP optimum.  A feasible primal ``x`` certifies
  ``w·x / b·y``.

Both completions are closed-form vector expressions, so verification
is a handful of sparse matvecs — O(nnz) — independent of how many
MWU iterations produced the vectors.

:class:`MwuProblem` is the normalized array form the solver and the
verifier share: a ``scipy.sparse`` CSR constraint matrix, float64
weight/bound vectors, built either from a
:class:`repro.ilp.instance` object (a row mask of its CSR matrix) or
directly from arrays (the generated row-sparse scale instances, which
never build per-constraint rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.ilp.instance import (
    FEASIBILITY_TOL,
    CoveringInstance,
    PackingInstance,
)
from repro.util.validation import require

Instance = Union[PackingInstance, CoveringInstance]

#: Relative slack the verifier grants feasibility / value recomputation
#: checks — float matvecs are order-deterministic here but still
#: rounded, so exact equality would reject honest certificates.
VERIFY_RTOL = 1e-7


@dataclass(frozen=True)
class MwuProblem:
    """A packing or covering LP in normalized array form.

    ``kind`` is ``"packing"`` or ``"covering"``; ``matrix`` is an
    ``(m, n)`` CSR matrix with strictly positive entries; ``bounds``
    holds the right-hand sides (strictly positive rows only —
    trivially-satisfied covering rows and never-binding zero-bound
    packing rows are the caller's concern, see :meth:`from_instance`).
    """

    kind: str
    weights: np.ndarray
    matrix: sparse.csr_matrix
    bounds: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        require(self.kind in ("packing", "covering"), f"bad kind {self.kind!r}")
        require(self.matrix.shape == (len(self.bounds), len(self.weights)),
                "matrix shape must be (len(bounds), len(weights))")
        require(bool(np.all(np.asarray(self.weights) >= 0)), "weights must be >= 0")
        require(bool(np.all(np.asarray(self.bounds) > 0)), "bounds must be > 0")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        return len(self.bounds)

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @cached_property
    def normalized(self) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """``(Â, Âᵀ)``: the matrix with rows scaled by ``1/bᵢ`` so every
        bound is 1, and its transpose as CSR (one row per column).

        Derived once per problem, so a solve's fractional and rounding
        phases share one copy; callers only read it.
        """
        inv = 1.0 / self.bounds
        scaled = self.matrix.tocsr(copy=True)
        scaled.data = scaled.data * np.repeat(inv, np.diff(scaled.indptr))
        return scaled, scaled.T.tocsr()

    @classmethod
    def from_arrays(
        cls,
        kind: str,
        weights: np.ndarray,
        matrix: sparse.spmatrix,
        bounds: np.ndarray,
        name: str = "",
    ) -> "MwuProblem":
        """Build from raw arrays (already-positive bounds required)."""
        csr = sparse.csr_matrix(matrix, dtype=np.float64)
        csr.sum_duplicates()
        require(bool(np.all(csr.data > 0)), "matrix entries must be > 0")
        return cls(
            kind=kind,
            weights=np.asarray(weights, dtype=np.float64),
            matrix=csr,
            bounds=np.asarray(bounds, dtype=np.float64),
            name=name,
        )

    @classmethod
    def from_instance(cls, instance: Instance) -> "MwuProblem":
        """Normalize a :mod:`repro.ilp.instance` object.

        Packing rows with ``b = 0`` force their support to zero — that
        is encoded by zeroing those variables' weights and dropping the
        row (the solver then never raises them, and the verifier checks
        the reported ``x`` against the *instance*, not this form).
        Covering rows with ``b <= 0`` are trivially satisfied and
        dropped.
        """
        kind = "packing" if isinstance(instance, PackingInstance) else "covering"
        weights = np.asarray(instance.weights, dtype=np.float64)
        kept = instance.bounds > FEASIBILITY_TOL
        if kind == "packing":
            weights[instance.matrix[~kept].indices] = 0.0
        return cls(
            kind=kind,
            weights=weights,
            matrix=instance.matrix[kept],
            bounds=instance.bounds[kept],
            name=instance.name,
        )


@dataclass(frozen=True)
class Certificate:
    """A self-contained (re-verifiable) duality-gap certificate.

    ``x`` is the fractional primal (feasible for the problem's
    inequalities; packing additionally within ``[0, 1]``), ``y`` the
    dual/weight vector over the problem's rows, ``primal_value`` =
    ``w·x``, ``dual_bound`` the completed dual objective and ``gap``
    the certified ratio, always oriented ``>= 1``:
    ``dual_bound / primal_value`` for packing, ``primal_value /
    dual_bound`` for covering.  ``iterations`` / ``oracle_calls``
    record the MWU run that produced the vectors (informational; the
    verifier ignores them).
    """

    kind: str
    eps: float
    x: np.ndarray
    y: np.ndarray
    primal_value: float
    dual_bound: float
    gap: float
    iterations: int = 0
    oracle_calls: int = 0

    def within(self, eps: Optional[float] = None) -> bool:
        """Whether the certified gap meets ``1 + eps`` (default: own eps)."""
        target = self.eps if eps is None else eps
        return self.gap <= 1.0 + target + 1e-9


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of :func:`verify_certificate`: recomputed facts + verdict."""

    ok: bool
    failures: Tuple[str, ...]
    primal_value: float
    dual_bound: float
    gap: float

    def raise_if_invalid(self) -> "CertificateReport":
        if not self.ok:
            raise AssertionError(
                "certificate failed verification: " + "; ".join(self.failures)
            )
        return self


def packing_dual_bound(problem: MwuProblem, y: np.ndarray) -> float:
    """The completed packing dual value of an arbitrary ``y >= 0``.

    ``b·y + Σ_j max(0, w_j - (Aᵀy)_j)`` — dual-feasible by
    construction (the box duals absorb every residual), hence a valid
    upper bound on the boxed LP (and ILP) optimum.
    """
    reduced = problem.weights - problem.matrix.T.dot(y)
    return float(problem.bounds.dot(y) + np.maximum(reduced, 0.0).sum())


def covering_dual_bound(problem: MwuProblem, y: np.ndarray) -> float:
    """``b·y`` when ``Aᵀy <= w``; otherwise ``y`` is scaled down first.

    Scaling by ``min_j w_j / (Aᵀy)_j`` restores dual feasibility for
    any nonnegative ``y``, so the returned value is always a valid
    lower bound on the LP (and ILP) optimum.  The verifier grants the
    *claimed* ``y`` a :data:`VERIFY_RTOL` of slack before scaling so
    honest float rounding does not shrink the bound.
    """
    loads = problem.matrix.T.dot(y)
    over = loads > problem.weights * (1.0 + VERIFY_RTOL)
    if bool(over.any()):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(loads > 0, problem.weights / np.maximum(loads, 1e-300), np.inf)
        scale = float(ratios.min()) if len(ratios) else 0.0
        y = y * min(1.0, max(scale, 0.0))
    return float(problem.bounds.dot(y))


def certificate_gap(kind: str, primal_value: float, dual_bound: float) -> float:
    """The >=1-oriented certified ratio (inf when undefined)."""
    if kind == "packing":
        if primal_value <= 0:
            return 1.0 if dual_bound <= 0 else float("inf")
        return dual_bound / primal_value
    if dual_bound <= 0:
        return 1.0 if primal_value <= 0 else float("inf")
    return primal_value / dual_bound


def verify_certificate(
    problem: MwuProblem,
    cert: Certificate,
    require_gap: Optional[float] = None,
) -> CertificateReport:
    """Re-derive a certificate's claims from its raw vectors.

    Checks (all from ``x`` and ``y`` alone — claimed scalars are only
    compared against recomputation, never used):

    1. shapes, finiteness and nonnegativity of ``x`` and ``y``;
    2. primal feasibility: ``Ax <= b`` (+ box) for packing,
       ``Ax >= b`` for covering, within :data:`VERIFY_RTOL`;
    3. the claimed ``primal_value`` equals ``w·x``;
    4. the claimed ``dual_bound`` equals the recomputed completion of
       ``y`` (packing may only *under*-claim its upper bound; covering
       may only under-claim its lower bound — both directions stay
       valid bounds, so the check is one-sided plus a tolerance);
    5. the claimed ``gap`` equals the recomputed ratio and, when
       ``require_gap`` is given, meets it.
    """
    failures: List[str] = []
    x = np.asarray(cert.x, dtype=np.float64)
    y = np.asarray(cert.y, dtype=np.float64)
    if cert.kind != problem.kind:
        failures.append(f"kind mismatch: {cert.kind!r} vs {problem.kind!r}")
    if x.shape != (problem.n,):
        failures.append(f"x has shape {x.shape}, expected ({problem.n},)")
    if y.shape != (problem.m,):
        failures.append(f"y has shape {y.shape}, expected ({problem.m},)")
    if failures:
        return CertificateReport(False, tuple(failures), 0.0, 0.0, float("inf"))
    if not bool(np.isfinite(x).all()) or bool((x < 0).any()):
        failures.append("x must be finite and nonnegative")
    if not bool(np.isfinite(y).all()) or bool((y < 0).any()):
        failures.append("y must be finite and nonnegative")
    if failures:
        return CertificateReport(False, tuple(failures), 0.0, 0.0, float("inf"))

    loads = problem.matrix.dot(x)
    slack_tol = VERIFY_RTOL * (1.0 + np.abs(problem.bounds))
    if problem.kind == "packing":
        if bool((x > 1.0 + VERIFY_RTOL).any()):
            failures.append("packing primal exceeds the [0,1] box")
        worst = float(np.max(loads - problem.bounds - slack_tol, initial=-np.inf))
        if worst > 0:
            failures.append(f"packing primal infeasible (violation {worst:.3e})")
        dual_re = packing_dual_bound(problem, y)
    else:
        worst = float(np.max(problem.bounds - loads - slack_tol, initial=-np.inf))
        if worst > 0:
            failures.append(f"covering primal infeasible (deficit {worst:.3e})")
        dual_re = covering_dual_bound(problem, y)

    primal_re = float(problem.weights.dot(x))
    scale = 1.0 + abs(primal_re)
    if abs(primal_re - cert.primal_value) > VERIFY_RTOL * scale:
        failures.append(
            f"claimed primal value {cert.primal_value!r} != recomputed {primal_re!r}"
        )
    bound_scale = VERIFY_RTOL * (1.0 + abs(dual_re))
    if problem.kind == "packing":
        # Claiming a *higher* upper bound than y supports is invalid.
        if cert.dual_bound < dual_re - bound_scale:
            failures.append(
                f"claimed dual bound {cert.dual_bound!r} tighter than "
                f"y supports ({dual_re!r})"
            )
    else:
        # Claiming a *higher* lower bound than y supports is invalid.
        if cert.dual_bound > dual_re + bound_scale:
            failures.append(
                f"claimed dual bound {cert.dual_bound!r} exceeds what "
                f"y supports ({dual_re!r})"
            )
    gap_re = certificate_gap(problem.kind, primal_re, dual_re)
    claimed_gap = certificate_gap(problem.kind, cert.primal_value, cert.dual_bound)
    if np.isfinite(gap_re) and np.isfinite(cert.gap):
        if abs(cert.gap - claimed_gap) > VERIFY_RTOL * (1.0 + abs(claimed_gap)):
            failures.append(
                f"claimed gap {cert.gap!r} inconsistent with claimed values "
                f"({claimed_gap!r})"
            )
    elif np.isfinite(cert.gap) != np.isfinite(gap_re):
        failures.append("claimed gap finiteness disagrees with recomputation")
    if require_gap is not None and not (
        gap_re <= require_gap * (1.0 + VERIFY_RTOL)
    ):
        failures.append(
            f"recomputed gap {gap_re!r} exceeds required {require_gap!r}"
        )
    return CertificateReport(not failures, tuple(failures), primal_re, dual_re, gap_re)
