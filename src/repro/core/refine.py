"""Diameter refinement: the last step of Theorem 1.1's proof.

The three-phase algorithm yields clusters of weak diameter
O(log²(1/ε)·log n/ε) (Lemma 3.2).  The paper improves this to the ideal
O(log n/ε) "for free" in the LOCAL model: run the algorithm with ε/2,
then let every cluster locally compute an (ε/2, O(log n/ε))
decomposition of itself by brute force and take the union.

"Brute force" is implementable as rejection sampling: a cluster runs
the Elkin–Neiman decomposition on its induced subgraph with
``λ = ε/4`` until at most an ε/2 fraction of its vertices is deleted —
the per-vertex deletion probability is below ε/4 + ñ⁻³, so by Markov
each attempt succeeds with probability ≥ 1/2 and the expected number of
attempts is at most 2.  Every attempt happens inside the cluster
(local computation after one gather), so the LOCAL round cost is the
cluster diameter, already paid.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_fraction, require


def refined_diameter_bound(eps: float, ntilde: int) -> float:
    """The ideal bound ``32 ln ñ / ε`` = O(log n/ε) after refinement."""
    return 32.0 * math.log(ntilde) / eps


def refine_decomposition(
    graph: Graph,
    decomposition: Decomposition,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    max_attempts: int = 64,
) -> Decomposition:
    """Refine every cluster to weak (indeed strong) diameter O(log n/ε).

    The deletion budget spent here is at most ``ε/2`` per cluster
    (rejection-sampled), so composing with a run of the main algorithm
    at ``ε/2`` keeps the total at ``ε`` — exactly the proof of
    Theorem 1.1's final paragraph.
    """
    check_fraction("eps", eps)
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    lam = eps / 4.0
    target = refined_diameter_bound(eps, ntilde)
    rngs = spawn_rngs(seed, max(1, len(decomposition.clusters)))
    new_clusters: List[Set[int]] = []
    deleted = set(decomposition.deleted)
    ledger = RoundLedger()
    ledger.merge(decomposition.ledger)
    max_cluster_diameter = 0.0
    for idx, cluster in enumerate(decomposition.clusters):
        diameter = graph.csr().weak_diameter(cluster)
        max_cluster_diameter = max(max_cluster_diameter, diameter)
        if diameter <= target:
            new_clusters.append(set(cluster))
            continue
        sub, mapping = graph.induced_subgraph(cluster)
        inverse = {i: v for v, i in mapping.items()}
        budget = math.ceil(eps / 2.0 * len(cluster))
        attempt_rngs = spawn_rngs(rngs[idx], max_attempts)
        accepted = None
        for attempt in range(max_attempts):
            local = elkin_neiman_ldd(
                sub, lam, ntilde=ntilde, seed=attempt_rngs[attempt]
            )
            if len(local.deleted) <= budget:
                accepted = local
                break
        require(
            accepted is not None,
            f"refinement failed {max_attempts} rejection-sampling attempts "
            f"on a cluster of size {len(cluster)} (budget {budget})",
        )
        for local_cluster in accepted.clusters:
            new_clusters.append({inverse[i] for i in local_cluster})
        deleted |= {inverse[i] for i in accepted.deleted}
    # Local recomputation costs one gather of the worst cluster.
    ledger.charge(
        "refine-gather",
        int(math.ceil(max_cluster_diameter)) if new_clusters else 0,
    )
    return Decomposition(
        clusters=new_clusters,
        deleted=deleted,
        centers=[None] * len(new_clusters),
        ledger=ledger,
    )


def ldd_with_ideal_diameter(
    graph: Graph,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    **profile_kwargs,
) -> Decomposition:
    """Theorem 1.1 end to end, including the refinement step.

    Runs the three-phase algorithm with ``ε/2`` and refines, so the
    total deletion budget is ``ε`` and every cluster has weak diameter
    at most :func:`refined_diameter_bound`.
    """
    from repro.core.ldd import low_diameter_decomposition

    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    rngs = spawn_rngs(seed, 2)
    base = low_diameter_decomposition(
        graph,
        eps / 2.0,
        ntilde=ntilde,
        seed=rngs[0],
        profile=profile,
        **profile_kwargs,
    )
    return refine_decomposition(
        graph, base, eps, ntilde=ntilde, seed=rngs[1]
    )
