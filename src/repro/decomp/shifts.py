"""Exponential-shift flooding shared by EN / MPX / sparse-cover.

All three classical decompositions (Lemma C.1, [MPX13], Lemma C.2) have
the same communication core: every vertex ``u`` samples a shift
``T_u ~ Exp(λ)`` (capped at ``4 ln ñ / λ``) and floods the value; vertex
``v`` evaluates each heard source by ``m_u(v) = T_u − dist(u, v)`` and
applies a per-algorithm decision rule:

* **EN (Lemma C.1)** — delete ``v`` iff the runner-up value is within 1
  of the maximum; otherwise join the argmax source's cluster.
* **MPX** — always join the argmax source's cluster (edges between
  clusters are cut).
* **Sparse cover (Lemma C.2)** — join *every* source within 1 of the
  maximum.

Semantics note: a source's token propagates while its value satisfies
``m >= -1``.  Records below −1 can never influence any of the rules
(the maximum at ``v`` is at least ``T_v >= 0``, so every rule's
threshold is at least −1), hence this cutoff makes the flooded view
*exactly equivalent* to evaluating ``m_u(v)`` over all sources — the
property the paper's proofs rely on — while keeping the message-passing
implementation's range ``⌊T_u⌋ + 1`` finite.  Ties between equal values
are broken toward the larger source id, identically in the fast and
message-passing engines (ties have probability zero under continuous
shifts; the rule only pins down degenerate inputs).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_positive, require

#: Tokens stop propagating once their value drops below this threshold.
PROPAGATION_CUTOFF = -1.0


def shift_cap(lam: float, ntilde: int) -> float:
    """The reset threshold ``4 ln ñ / λ`` of Lemma C.1."""
    check_positive("lam", lam)
    require(ntilde >= 2, f"ntilde must be >= 2, got {ntilde}")
    return 4.0 * math.log(ntilde) / lam


def sample_shifts(
    n: int, lam: float, ntilde: int, seed: SeedLike = None
) -> List[float]:
    """Per-vertex capped exponential shifts (one private RNG each).

    A sampled value at or above the cap is reset to 0 and the vertex
    proceeds as usual — exactly the failure handling in Lemma C.1's
    proof (probability ≤ ñ^{-4} per vertex).
    """
    cap = shift_cap(lam, ntilde)
    rngs = spawn_rngs(seed, n)
    shifts = []
    for rng in rngs:
        value = rng.exponential(1.0 / lam)
        shifts.append(0.0 if value >= cap else value)
    return shifts


@dataclass(frozen=True)
class ShiftRecord:
    """One heard source at a vertex: value ``m = T_source − dist``."""

    value: float
    source: int
    dist: int

    def key(self) -> Tuple[float, int]:
        """Deterministic comparison key (larger wins)."""
        return (self.value, self.source)


def shifted_flood(
    graph: Graph,
    shifts: Sequence[float],
    keep: Optional[int] = None,
    within: Optional[Set[int]] = None,
) -> List[List[ShiftRecord]]:
    """Compute, per vertex, the heard shift records in decreasing order.

    Parameters
    ----------
    keep:
        ``1`` or ``2`` prunes each vertex's record list to the top-k
        (sufficient for the MPX / EN rules and asymptotically cheaper);
        ``None`` keeps every record with value ≥ −1 (needed by the
        sparse-cover within-1 rule).
    within:
        Restrict the flood to a residual vertex set.

    Top-k pruning is sound: entries pop from the global queue in
    decreasing ``(value, source)`` order, so once a vertex holds k
    records every later arrival is outside its top-k; and any vertex
    further along a path is dominated by the k recorded sources, whose
    tokens keep propagating at least as far (their values are
    pointwise larger and the cutoff is value-based).
    """
    require(keep in (None, 1, 2), f"keep must be None, 1 or 2, got {keep}")
    n = graph.n
    require(len(shifts) == n, "need one shift per vertex")
    allowed = within if within is not None else None
    records: List[List[ShiftRecord]] = [[] for _ in range(n)]
    seen: Set[Tuple[int, int]] = set()  # (vertex, source) pairs already popped
    heap: List[Tuple[float, int, int, int]] = []
    for v in range(n):
        if allowed is not None and v not in allowed:
            continue
        # Max-heap via negated keys; tie-break toward larger source id.
        heapq.heappush(heap, (-shifts[v], -v, v, 0))
    while heap:
        neg_value, neg_source, vertex, dist = heapq.heappop(heap)
        value = -neg_value
        source = -neg_source
        if (vertex, source) in seen:
            continue
        seen.add((vertex, source))
        if keep is not None and len(records[vertex]) >= keep:
            continue  # dominated now and downstream; do not propagate
        records[vertex].append(ShiftRecord(value=value, source=source, dist=dist))
        next_value = value - 1.0
        if next_value < PROPAGATION_CUTOFF:
            continue
        for u in graph.neighbors(vertex):
            if allowed is not None and u not in allowed:
                continue
            if (u, source) not in seen:
                heapq.heappush(heap, (-next_value, -source, u, dist + 1))
    return records


def within_one_sources(records: List[ShiftRecord]) -> List[ShiftRecord]:
    """All records with value within 1 of the maximum (Lemma C.2 rule)."""
    if not records:
        return []
    top = records[0].value
    return [r for r in records if r.value >= top - 1.0]


def en_is_deleted(records: List[ShiftRecord]) -> bool:
    """Elkin–Neiman deletion rule: runner-up within 1 of the maximum."""
    if len(records) < 2:
        return False
    return records[1].value >= records[0].value - 1.0


def rounds_for_flood(shifts: Sequence[float]) -> int:
    """Nominal LOCAL rounds of the flood: max token range ``⌊T⌋ + 1``."""
    if not shifts:
        return 0
    return int(max(math.floor(t) + 1 for t in shifts))
