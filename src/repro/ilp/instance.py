"""Packing and covering ILP instances (Definitions 1.1–1.3).

A packing problem is ``max w·x  s.t.  A x <= b,  x in {0,1}^n`` with
``A, b >= 0``; a covering problem is ``min w·x  s.t.  A x >= b``.
Constraints are stored sparsely; the associated hypergraph (Definition
1.3) has one vertex per variable and one hyperedge per constraint
support.

The *local restriction* semantics follow Section 2 exactly:

* Packing (Observation 2.1): restricting to ``S`` sets all variables
  outside ``S`` to zero and keeps **all** constraints — with ``A >= 0``
  this can never create infeasibility, and
  ``W(P*, S) <= W(P^local_S, S) <= W(P*, N¹(S))``.
* Covering (Observation 2.2): restricting to ``S`` keeps **only** the
  constraints whose support lies inside ``S`` — then
  ``W(Q^local_S, S) <= W(Q*, S)``.

Covering restrictions additionally support *completion* under a partial
assignment: variables already fixed to one reduce the right-hand sides
(used by Algorithm 7's "fix the assignment" step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.artifacts.fingerprint import fingerprint
from repro.graphs.hypergraph import Hypergraph
from repro.util.validation import require

#: Absolute tolerance for floating-point constraint checks.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class Constraint:
    """One sparse row of ``A`` with its bound ``b``.

    ``coefficients`` maps variable index -> coefficient (all > 0; zero
    coefficients must be omitted so the hyperedge support is exact).
    """

    coefficients: Mapping[int, float]
    bound: float

    def __post_init__(self) -> None:
        require(self.bound >= 0, f"bound must be >= 0, got {self.bound}")
        for var, coeff in self.coefficients.items():
            require(
                coeff > 0,
                f"coefficient for variable {var} must be > 0 (omit zeros), got {coeff}",
            )

    @property
    def support(self) -> FrozenSet[int]:
        return frozenset(self.coefficients)

    def value(self, chosen: Set[int]) -> float:
        """Left-hand side under the 0/1 assignment ``chosen``."""
        return sum(c for v, c in self.coefficients.items() if v in chosen)

    def restrict(self, keep: Set[int]) -> "Constraint":
        """Drop coefficients outside ``keep`` (packing restriction)."""
        return Constraint(
            {v: c for v, c in self.coefficients.items() if v in keep}, self.bound
        )

    def reduce_by_fixed(self, fixed_ones: Set[int]) -> "Constraint":
        """Covering completion: subtract fixed variables from the bound."""
        contributed = sum(
            c for v, c in self.coefficients.items() if v in fixed_ones
        )
        remaining = {
            v: c for v, c in self.coefficients.items() if v not in fixed_ones
        }
        return Constraint(remaining, max(0.0, self.bound - contributed))


class _IlpBase:
    """Shared structure of packing and covering instances."""

    def __init__(
        self,
        weights: Sequence[float],
        constraints: Sequence[Constraint],
        name: str = "",
    ) -> None:
        for i, w in enumerate(weights):
            require(w >= 0, f"weight of variable {i} must be >= 0, got {w}")
        self.weights: Tuple[float, ...] = tuple(float(w) for w in weights)
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self.name = name
        for j, con in enumerate(self.constraints):
            for v in con.coefficients:
                require(
                    0 <= v < self.n,
                    f"constraint {j} references variable {v} outside [0,{self.n})",
                )
        self._hypergraph: Optional[Hypergraph] = None
        self._fingerprint: Optional[str] = None

    @property
    def n(self) -> int:
        """Number of variables."""
        return len(self.weights)

    @property
    def m(self) -> int:
        """Number of constraints."""
        return len(self.constraints)

    def total_weight(self) -> float:
        return sum(self.weights)

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
            edges = [c.support for c in self.constraints if c.support]
            self._hypergraph = Hypergraph(self.n, edges)
        return self._hypergraph

    def fingerprint(self) -> str:
        """Content digest for solver caching (memoized on self).

        A :func:`repro.artifacts.fingerprint` SHA-256 digest of the
        sense, the weights and every constraint's sorted coefficients
        and bound, all as float64 — never object identity (``id()`` is
        reused after garbage collection) and never the process-salted
        64-bit ``hash()``: equal content gives the same key in every
        process, and distinct content shares a key only through a
        SHA-256 collision.
        """
        if self._fingerprint is None:
            rows = [sorted(c.coefficients.items()) for c in self.constraints]
            self._fingerprint = fingerprint(
                "ilp-instance",
                self.sense,
                np.asarray(self.weights, dtype=np.float64),
                np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
                np.fromiter(
                    (v for row in rows for v, _ in row), dtype=np.int64
                ),
                np.fromiter(
                    (a for row in rows for _, a in row), dtype=np.float64
                ),
                np.asarray([c.bound for c in self.constraints], dtype=np.float64),
            )
        return self._fingerprint


class PackingInstance(_IlpBase):
    """``max w·x  s.t.  A x <= b,  x in {0,1}^n`` (Definition 1.1)."""

    sense = "max"

    def is_feasible(self, chosen: Set[int]) -> bool:
        return all(
            con.value(chosen) <= con.bound + FEASIBILITY_TOL
            for con in self.constraints
        )

    def violated_constraints(self, chosen: Set[int]) -> List[int]:
        return [
            j
            for j, con in enumerate(self.constraints)
            if con.value(chosen) > con.bound + FEASIBILITY_TOL
        ]

    def restrict(self, subset: Iterable[int]) -> "PackingInstance":
        """Local packing instance on ``subset`` (Observation 2.1).

        All constraints are kept with outside variables clipped away
        (equivalently: forced to zero).  Weights outside ``subset`` are
        zeroed so objective bookkeeping stays index-compatible with the
        parent instance.
        """
        keep = set(subset)
        weights = [
            w if v in keep else 0.0 for v, w in enumerate(self.weights)
        ]
        constraints = []
        for con in self.constraints:
            reduced = con.restrict(keep)
            if reduced.coefficients:
                constraints.append(reduced)
        return PackingInstance(weights, constraints, name=f"{self.name}|S")

    def feasible_alone(self, var: int) -> bool:
        """Can ``{var}`` alone be selected? (Singleton feasibility.)"""
        return all(
            con.coefficients.get(var, 0.0) <= con.bound + FEASIBILITY_TOL
            for con in self.constraints
        )


class CoveringInstance(_IlpBase):
    """``min w·x  s.t.  A x >= b,  x in {0,1}^n`` (Definition 1.2)."""

    sense = "min"

    def is_feasible(self, chosen: Set[int]) -> bool:
        return all(
            con.value(chosen) >= con.bound - FEASIBILITY_TOL
            for con in self.constraints
        )

    def violated_constraints(self, chosen: Set[int]) -> List[int]:
        return [
            j
            for j, con in enumerate(self.constraints)
            if con.value(chosen) < con.bound - FEASIBILITY_TOL
        ]

    def is_satisfiable(self) -> bool:
        """Whether selecting every variable satisfies all constraints."""
        everything = set(range(self.n))
        return self.is_feasible(everything)

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
        keep = set(subset)
        fixed = set(fixed_ones)
        weights = [
            w if v in keep else 0.0 for v, w in enumerate(self.weights)
        ]
        constraints = []
        for con in self.constraints:
            reduced = con.reduce_by_fixed(fixed) if fixed else con
            if reduced.bound <= FEASIBILITY_TOL:
                continue
            if not set(reduced.coefficients) <= keep:
                continue
            constraints.append(reduced)
        return CoveringInstance(weights, constraints, name=f"{self.name}|S")

    def restrict_to_edges(
        self, edge_indices: Iterable[int], fixed_ones: Iterable[int] = ()
    ) -> "CoveringInstance":
        """Sub-instance containing exactly the given constraints.

        Used by the covering algorithm when hyperedges (constraints),
        not variables, are partitioned across clusters.
        """
        fixed = set(fixed_ones)
        constraints = []
        for j in sorted(set(edge_indices)):
            con = self.constraints[j]
            reduced = con.reduce_by_fixed(fixed) if fixed else con
            if reduced.bound <= FEASIBILITY_TOL:
                continue
            constraints.append(reduced)
        return CoveringInstance(
            list(self.weights), constraints, name=f"{self.name}|E"
        )
