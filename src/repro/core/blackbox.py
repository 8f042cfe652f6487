"""Section 1.6: the Coiteux-Roy et al. blackbox LDD boosting.

Given any ``(1/2, g(n))`` low-diameter decomposition running in
``f(n)`` rounds, the construction produces an ``(ε, O(g(n)/ε))``
decomposition in ``O((f(n) + g(n)) · log(1/ε)/ε)`` rounds — improving
Theorem 1.1's ``log³(1/ε)`` factor to ``log(1/ε)``:

1. Run the half-decomposition on the power graph ``G^k``,
   ``k = Θ(1/ε)``; at most half the vertices stay unclustered, and
   clusters are ``Ω(1/ε)``-separated in ``G``.
2. Each cluster ball-grows ``Θ(1/ε)`` hops in ``G`` and deletes its
   sparsest layer — at most an ``O(ε)`` fraction of the grown balls.
3. Repeat on the still-unclustered vertices ``O(log(1/ε))`` times; at
   most half survive each round, so the ``O(ε n)`` leftovers can be
   deleted outright.

The half-decomposition used here is Elkin–Neiman with ``λ`` tuned so
the per-vertex deletion probability is below 1/2 — the paper plugs in
Theorem 1.1 with ``ε = 1/2``; any half-decomposition works, which is
the point of the blackbox.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.core.carve import carve_round, grow_and_carve
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_fraction

#: The inner half-decomposition's Elkin–Neiman ``λ``: per-vertex
#: deletion probability ``1 − e^{−λ} ≈ 0.30 < 1/2``.
_HALF_LAMBDA = 0.35


def blackbox_ldd(
    graph: Graph,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
) -> Decomposition:
    """Run the blackbox construction.

    The carving window holds ``Θ(log(1/ε)/ε)`` layers so the
    per-repetition layer deletions sum to O(ε n) across the
    ``log(1/ε) + O(1)`` repetitions, and two extra repetitions push the
    final leftover below ``ε n / 4``.
    """
    check_fraction("eps", eps)
    n = graph.n
    ntilde = ntilde if ntilde is not None else max(n, 2)
    log_factor = max(1.0, math.log2(1.0 / eps))
    k = max(4, math.ceil(log_factor / eps))
    repetitions = max(1, math.ceil(math.log2(1.0 / eps))) + 2
    rngs = spawn_rngs(seed, repetitions)
    ledger = RoundLedger()

    live: Set[int] = set(range(n))
    deleted: Set[int] = set()

    def carve(seeds, interval, snapshot):
        return grow_and_carve(graph, seeds, interval, snapshot)

    for rep in range(repetitions):
        if not live:
            break
        # Step 1: half-decomposition on the k-th power of G[live].
        sub, mapping = graph.induced_subgraph(live)
        inverse = {i: v for v, i in mapping.items()}
        power = sub.csr().power(k)
        half = elkin_neiman_ldd(
            power, _HALF_LAMBDA, ntilde=ntilde, seed=rngs[rep]
        )
        ledger.charge(
            f"rep{rep}-half-ldd",
            half.ledger.nominal_rounds * k,
            half.ledger.effective_rounds * k,
        )
        # Step 2: each cluster carves its ball in G[live] and deletes
        # its sparsest layer; clusters are > k apart in G[live], so with
        # carving radius at most k//2 the grown balls stay disjoint.
        carve_round(
            graph,
            [{inverse[i] for i in cluster} for cluster in half.clusters],
            (1, max(2, k // 2)),
            live,
            deleted,
            ledger,
            f"rep{rep}-carve",
            carve,
        )

    # Step 3: whatever survives all repetitions is deleted outright;
    # every other vertex was removed into a cluster by a carve.
    deleted |= live
    clusters = [
        set(c)
        for c in graph.csr().connected_components(
            within=set(range(n)) - deleted
        )
    ]
    return Decomposition(
        clusters=clusters,
        deleted=deleted,
        centers=[None] * len(clusters),
        ledger=ledger,
    )
