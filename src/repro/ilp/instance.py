"""Packing and covering ILP instances (Definitions 1.1–1.3).

A packing problem is ``max w·x  s.t.  A x <= b,  x in {0,1}^n`` with
``A, b >= 0``; a covering problem is ``min w·x  s.t.  A x >= b``.

An instance stores ``A`` once, as the ``(c, A, b)`` arrays every solver
tier reads: ``matrix`` is a ``scipy.sparse`` CSR matrix with one row per
constraint in input order, sorted column indices and float64 entries;
``bounds`` is the float64 right-hand side; ``columns`` is the CSC copy
(one column per variable), built on first use.  ``weights`` stays a
tuple of Python floats, because the exact solvers and the objective
sums index it one element at a time.  :class:`Constraint` is only the
validated input row the problem builders construct instances from.

The associated hypergraph (Definition 1.3) has one vertex per variable
and one hyperedge per non-empty row support.

The *local restriction* semantics follow Section 2 exactly, and both
are masks over the nonzeros:

* Packing (Observation 2.1): restricting to ``S`` sets all variables
  outside ``S`` to zero and keeps **all** constraints (a column mask;
  rows left empty are dropped) — with ``A >= 0`` this can never create
  infeasibility, and ``W(P*, S) <= W(P^local_S, S) <= W(P*, N¹(S))``.
* Covering (Observation 2.2): restricting to ``S`` keeps **only** the
  constraints whose support lies inside ``S`` (a row filter) — then
  ``W(Q^local_S, S) <= W(Q*, S)``.

Covering restrictions additionally support *completion* under a partial
assignment: variables already fixed to one reduce the right-hand sides
(used by Algorithm 7's "fix the assignment" step).  Each row's fixed
coefficients are summed in column order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.artifacts.fingerprint import fingerprint
from repro.graphs.hypergraph import Hypergraph
from repro.util.validation import require

#: Absolute tolerance for floating-point constraint checks.
FEASIBILITY_TOL = 1e-9


def entries_by_line(matrix: sparse.spmatrix) -> List[List[Tuple[int, float]]]:
    """Per row of a CSR matrix (per column of a CSC one), its ``(index,
    value)`` pairs in stored order, as Python scalars."""
    pos = matrix.indptr.tolist()
    pairs = list(zip(matrix.indices.tolist(), matrix.data.tolist(), strict=True))
    return [pairs[a:b] for a, b in zip(pos[:-1], pos[1:], strict=True)]


@dataclass(frozen=True)
class Constraint:
    """One input row of ``A`` with its bound ``b``.

    ``coefficients`` maps variable index -> coefficient (all > 0; zero
    coefficients must be omitted so the hyperedge support is exact).
    Indices must be integers (``int`` or a numpy integer).
    """

    coefficients: Mapping[int, float]
    bound: float

    def __post_init__(self) -> None:
        require(self.bound >= 0, f"bound must be >= 0, got {self.bound}")
        for var, coeff in self.coefficients.items():
            try:
                operator.index(var)
            except TypeError:
                raise ValueError(
                    f"variable index {var!r} is not an integer"
                ) from None
            require(
                coeff > 0,
                f"coefficient for variable {var} must be > 0 (omit zeros), got {coeff}",
            )


class _IlpBase:
    """Shared structure of packing and covering instances."""

    sense: str

    def __init__(
        self,
        weights: Sequence[float],
        constraints: Sequence[Constraint],
        name: str = "",
    ) -> None:
        for i, w in enumerate(weights):
            require(w >= 0, f"weight of variable {i} must be >= 0, got {w}")
        n = len(weights)
        indptr, indices, data, bounds = [0], [], [], []
        for j, con in enumerate(constraints):
            for v, c in sorted(
                (operator.index(v), c) for v, c in con.coefficients.items()
            ):
                require(
                    0 <= v < n,
                    f"constraint {j} references variable {v} outside [0,{n})",
                )
                indices.append(v)
                data.append(c)
            indptr.append(len(indices))
            bounds.append(con.bound)
        matrix = sparse.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(len(bounds), n),
        )
        weights = tuple(float(w) for w in weights)
        self._init(weights, matrix, np.asarray(bounds, dtype=np.float64), name)

    def _init(self, weights, matrix, bounds, name) -> None:
        self.weights: Tuple[float, ...] = weights
        self.matrix: sparse.csr_matrix = matrix
        self.bounds: np.ndarray = bounds
        self.name = name
        self._hypergraph: Optional[Hypergraph] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def _from_arrays(cls, weights, matrix, bounds, name):
        """An instance over arrays derived from a validated parent: no
        per-row validation, and rows must keep sorted column indices."""
        instance = cls.__new__(cls)
        instance._init(weights, matrix, bounds, name)
        return instance

    @property
    def n(self) -> int:
        """Number of variables."""
        return len(self.weights)

    @property
    def m(self) -> int:
        """Number of constraints."""
        return self.matrix.shape[0]

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The rows as :class:`Constraint` objects, rebuilt on every call.

        A read-only view for callers outside the package; the solvers
        read ``matrix`` and ``bounds``.
        """
        vals = self.matrix.data.tolist()
        pos = self.matrix.indptr.tolist()
        return tuple(
            Constraint(dict(zip(row, vals[a:b], strict=True)), bound)
            for row, a, b, bound in zip(
                self.supports(), pos[:-1], pos[1:], self.bounds.tolist(), strict=True
            )
        )

    def supports(self) -> List[List[int]]:
        """Per row, its variables in column order."""
        pos = self.matrix.indptr.tolist()
        cols = self.matrix.indices.tolist()
        return [cols[a:b] for a, b in zip(pos[:-1], pos[1:], strict=True)]

    @cached_property
    def columns(self) -> sparse.csc_matrix:
        """``matrix`` in CSC form: per variable, its rows in order."""
        return self.matrix.tocsc()

    @cached_property
    def _entry_rows(self) -> np.ndarray:
        """The row of every nonzero, in CSR order."""
        return np.repeat(
            np.arange(self.m, dtype=np.int64), np.diff(self.matrix.indptr)
        )

    def _mask(self, variables: Iterable[int]) -> np.ndarray:
        """Boolean mask over the variables; indices outside ``[0, n)``
        name no variable and are ignored."""
        idx = np.fromiter(variables, dtype=np.int64)
        mask = np.zeros(self.n, dtype=bool)
        mask[idx[(idx >= 0) & (idx < self.n)]] = True
        return mask

    def _select(self, rows, entries, bounds, keep=None, name=None):
        """A same-kind instance on the rows flagged in ``rows`` (in
        order), keeping only the nonzeros flagged in ``entries`` (a mask
        in CSR order); ``bounds`` has one entry per row of ``self``.
        Weights outside the variable mask ``keep`` are zeroed."""
        entries = entries & rows[self._entry_rows]
        counts = np.bincount(self._entry_rows[entries], minlength=self.m)[rows]
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        matrix = sparse.csr_matrix(
            (self.matrix.data[entries], self.matrix.indices[entries], indptr),
            shape=(len(counts), self.n),
        )
        weights = self.weights
        if keep is not None:
            weights = tuple(np.where(keep, weights, 0.0).tolist())
        return self._from_arrays(
            weights, matrix, bounds[rows], self.name if name is None else name
        )

    def load(self, chosen: Iterable[int]) -> np.ndarray:
        """``A x`` for the 0/1 assignment ``chosen``; each row is summed
        in column order."""
        return self.matrix @ self._mask(chosen).astype(np.float64)

    def weight(self, chosen: Iterable[int]) -> float:
        """Objective value ``w·x`` of the 0/1 assignment ``chosen``."""
        return sum(self.weights[v] for v in chosen)

    def weight_on(self, chosen: Iterable[int], subset: Set[int]) -> float:
        """``W(P, S)`` — objective restricted to variables in ``subset``."""
        return sum(self.weights[v] for v in chosen if v in subset)

    def hypergraph(self) -> Hypergraph:
        """The Definition 1.3 hypergraph (cached).

        Hyperedges are the non-empty constraint supports.  Variables in
        no constraint become isolated vertices of the hypergraph.
        """
        if self._hypergraph is None:
            edges = [row for row in self.supports() if row]
            self._hypergraph = Hypergraph(self.n, edges)
        return self._hypergraph

    def fingerprint(self) -> str:
        """Content digest for solver caching (memoized on self).

        A :func:`repro.artifacts.fingerprint` SHA-256 digest of the
        sense, the weights and the CSR arrays (row pointers, sorted
        column indices, coefficients) and bounds, all as int64/float64 —
        never object identity (``id()`` is reused after garbage
        collection) and never the process-salted 64-bit ``hash()``:
        equal content gives the same key in every process, and distinct
        content shares a key only through a SHA-256 collision.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint(
                "ilp-instance",
                self.sense,
                np.asarray(self.weights, dtype=np.float64),
                self.matrix.indptr.astype(np.int64),
                self.matrix.indices.astype(np.int64),
                self.matrix.data,
                self.bounds,
            )
        return self._fingerprint


class PackingInstance(_IlpBase):
    """``max w·x  s.t.  A x <= b,  x in {0,1}^n`` (Definition 1.1)."""

    sense = "max"

    def is_feasible(self, chosen: Iterable[int]) -> bool:
        return bool(np.all(self.load(chosen) <= self.bounds + FEASIBILITY_TOL))

    def restrict(self, subset: Iterable[int]) -> "PackingInstance":
        """Local packing instance on ``subset`` (Observation 2.1).

        All constraints are kept with outside variables clipped away
        (equivalently: forced to zero); rows left empty are dropped.
        Weights outside ``subset`` are zeroed so objective bookkeeping
        stays index-compatible with the parent instance.
        """
        keep = self._mask(subset)
        inside = keep[self.matrix.indices]
        rows = np.bincount(self._entry_rows[inside], minlength=self.m) > 0
        return self._select(rows, inside, self.bounds, keep, f"{self.name}|S")


class CoveringInstance(_IlpBase):
    """``min w·x  s.t.  A x >= b,  x in {0,1}^n`` (Definition 1.2)."""

    sense = "min"

    def is_feasible(self, chosen: Iterable[int]) -> bool:
        return bool(np.all(self.load(chosen) >= self.bounds - FEASIBILITY_TOL))

    def is_satisfiable(self) -> bool:
        """Whether selecting every variable satisfies all constraints."""
        return self.is_feasible(range(self.n))

    def _completion(
        self, fixed_ones: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bounds, unfixed)`` once ``fixed_ones`` are set to one: each
        bound less its row's fixed coefficients (floored at zero), and
        the mask of nonzeros on variables not fixed."""
        fixed = self._mask(fixed_ones)[self.matrix.indices]
        if not fixed.any():
            return self.bounds, ~fixed
        contributed = np.bincount(
            self._entry_rows[fixed],
            weights=self.matrix.data[fixed],
            minlength=self.m,
        )
        return np.maximum(0.0, self.bounds - contributed), ~fixed

    def restrict(
        self, subset: Iterable[int], fixed_ones: Iterable[int] = ()
    ) -> "CoveringInstance":
        """Local covering instance on ``subset`` (Observation 2.2).

        Keeps only constraints with support inside ``subset`` (after
        removing variables in ``fixed_ones``, whose contribution is
        subtracted from the bounds — the completion semantics used when
        Algorithm 7 has already fixed some variables to one).
        Constraints that become trivially satisfied are dropped.
        """
        keep = self._mask(subset)
        bounds, unfixed = self._completion(fixed_ones)
        outside = unfixed & ~keep[self.matrix.indices]
        rows = (bounds > FEASIBILITY_TOL) & (
            np.bincount(self._entry_rows[outside], minlength=self.m) == 0
        )
        return self._select(rows, unfixed, bounds, keep, f"{self.name}|S")

    def restrict_to_edges(
        self, edge_indices: Iterable[int], fixed_ones: Iterable[int] = ()
    ) -> "CoveringInstance":
        """Sub-instance containing exactly the given constraints.

        Used by the covering algorithm when hyperedges (constraints),
        not variables, are partitioned across clusters.
        """
        bounds, unfixed = self._completion(fixed_ones)
        rows = np.zeros(self.m, dtype=bool)
        rows[np.fromiter(edge_indices, dtype=np.int64)] = True
        rows &= bounds > FEASIBILITY_TOL
        return self._select(rows, unfixed, bounds, name=f"{self.name}|E")
