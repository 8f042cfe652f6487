"""The Miller–Peng–Xu decomposition ([MPX13], Appendix C form).

Every vertex samples ``T_v ~ Exp(λ)`` and joins the cluster of the
source maximizing ``m_u(v) = T_u − dist(u, v)``; edges whose endpoints
land in different clusters are *cut*.  No vertex is deleted — the cost
is measured in cut edges, at most ``λ|E|`` in expectation, and Claim
C.2 shows the in-expectation guarantee cannot be strengthened: on the
:func:`repro.graphs.adversarial.mpx_bad_family` construction a
``1 − O(1/n)`` fraction of all edges is cut with probability Ω(λ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.decomp.shifts import (
    rounds_for_flood,
    sample_shifts,
    shifted_flood,
)
from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike
from repro.util.validation import check_positive, require


@dataclass
class MpxDecomposition:
    """Clusters, cut edges and the per-vertex ownership map."""

    clusters: List[Set[int]]
    centers: List[int]
    owner: Dict[int, int]
    cut_edges: List[Tuple[int, int]]
    ledger: RoundLedger = field(default_factory=RoundLedger)

    def cut_fraction(self, graph: Graph) -> float:
        return len(self.cut_edges) / graph.m if graph.m else 0.0


def mpx_decomposition(
    graph: Graph,
    lam: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    shifts: Optional[Sequence[float]] = None,
) -> MpxDecomposition:
    """Run the MPX random-shift clustering with parameter ``lam``.

    Expected cut fraction is O(``lam``); cluster (strong) diameter is
    O(log ñ / ``lam``) with high probability.  The winning ``(value,
    source)`` records come from the keep-1 heap flood of
    :func:`~repro.decomp.shifts.shifted_flood`.
    """
    check_positive("lam", lam)
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    require(ntilde >= graph.n, f"ntilde={ntilde} below n={graph.n}")
    if shifts is None:
        shifts = sample_shifts(graph.n, lam, ntilde, seed)
    else:
        require(len(shifts) == graph.n, "need one shift per vertex")
    owner: Dict[int, int] = {}
    members: Dict[int, Set[int]] = {}
    records = shifted_flood(graph, list(shifts), keep=1)
    for v in range(graph.n):
        recs = records[v]
        require(bool(recs), "every vertex hears at least itself")
        center = recs[0].source
        owner[v] = center
        members.setdefault(center, set()).add(v)
    cut_edges = [
        (u, v) for u, v in graph.edges() if owner[u] != owner[v]
    ]
    centers = sorted(members)
    ledger = RoundLedger()
    nominal = math.ceil(4.0 * math.log(ntilde) / lam)
    ledger.charge("mpx-flood", nominal, rounds_for_flood(list(shifts)))
    return MpxDecomposition(
        clusters=[members[c] for c in centers],
        centers=centers,
        owner=owner,
        cut_edges=cut_edges,
        ledger=ledger,
    )


def expected_cut_fraction_bound(lam: float) -> float:
    """MPX expected cut fraction bound: each edge is cut w.p. ≤ O(λ).

    The standard analysis gives ``P(edge cut) <= 1 - e^{-λ} <= λ``.
    """
    return 1.0 - math.exp(-lam)
