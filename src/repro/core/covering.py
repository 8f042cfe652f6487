"""Theorem 1.3: (1+ε)-approximate covering ILP with high probability.

Pipeline (Section 5.1):

1. **Preparation** — ``16 ln ñ`` independent sparse covers (Lemma C.2)
   with ``λ = ln(21/20)`` provide the cluster collection and the
   sampling estimates ``W(Q^local_C, C) / W(Q^local_{S_C}, S_C)``.
2. **Phase 1** — ``t = ⌈log log n + log(1/ε) + O(1)⌉`` iterations of
   constraint-deleting ball carving (Algorithms 7/8): a carve *fixes*
   an optimal local solution on the lightest odd layer pair — thereby
   satisfying every constraint crossing the cut — and removes
   ``N^{j*}(C)`` as an isolated zone.  Unlike packing, no variable is
   ever deleted (zeroing variables can make covering infeasible,
   Section 1.4.3), which is why Phase 1 runs longer and there is no
   Phase-2 dense-pocket pass.
3. **Phase 2 (completion)** — the residual graph is solved via the
   sparse cover + local-OR route (Lemmas C.2/C.3) with
   ``λ = ln(1 + ε/5)``, while each removed zone solves its interior
   constraints optimally given the fixed variables.

The output is the union of the fixed variables, the zone solutions and
the residual solution; feasibility is checked structurally (every
constraint is satisfied-by-fixing, interior to a zone, or interior to
the residual) and then semantically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.artifacts.cache import SolveCache
from repro.core.carve import (
    carve_round,
    grow_and_carve_covering,
    prepare_clusters,
)
from repro.core.params import CoveringParams, profile_params
from repro.decomp.sparse_cover import (
    solve_covering_by_sparse_cover,
    sparse_cover,
)
from repro.ilp.exact import solve_covering_exact
from repro.ilp.instance import FEASIBILITY_TOL, CoveringInstance
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import require


@dataclass
class CoveringResult:
    """Solution plus run diagnostics."""

    chosen: Set[int]
    weight: float
    ledger: RoundLedger
    fixed_weight: float  # weight committed by Phase-1 carves
    num_zones: int
    residual_size: int
    num_prep_clusters: int
    centers_per_iteration: List[int] = field(default_factory=list)


def chang_li_covering(
    instance: CoveringInstance,
    params: CoveringParams,
    seed: SeedLike = None,
    cache: Optional[SolveCache] = None,
) -> CoveringResult:
    """Run the Theorem 1.3 algorithm with the given parameters.

    As in :func:`~repro.core.ldd.chang_li_ldd`, the BFS-shaped steps
    (the ``S_C`` gathers, the carving BFS, the zone components and
    diameters, and the sparse covers' within-1 membership) run on the
    CSR kernels; the sparse covers' shifts flood on the heap flood.
    """
    require(
        instance.is_satisfiable(),
        "covering instance is unsatisfiable (selecting everything fails)",
    )
    cache = cache if cache is not None else SolveCache()
    hypergraph = instance.hypergraph()
    graph = hypergraph.primal_graph()
    n = graph.n
    ledger = RoundLedger()
    rng_streams = spawn_rngs(seed, params.prep_count + 3)
    prep_rngs = rng_streams[: params.prep_count]
    phase_rng = rng_streams[params.prep_count]
    final_rng = rng_streams[params.prep_count + 1]

    clusters = prepare_clusters(
        graph,
        [
            sparse_cover(
                hypergraph, params.prep_lambda, ntilde=params.ntilde, seed=rng
            )
            for rng in prep_rngs
        ],
        params.cluster_radius,
        lambda subset: solve_covering_exact(
            instance, subset=subset, cache=cache
        ).weight,
        ledger,
        "prep-sparse-cover",
    )

    remaining: Set[int] = set(range(n))
    removed: Set[int] = set()
    fixed_ones: Set[int] = set()
    centers_per_iteration: List[int] = []

    def carve(seeds, interval, snapshot):
        return grow_and_carve_covering(
            instance, graph, seeds, interval, snapshot, fixed_ones, cache=cache
        )

    cluster_rngs = spawn_rngs(phase_rng, max(1, len(clusters)))
    for i in range(1, params.t + 1):
        seed_sets = [
            cluster.vertices
            for idx, cluster in enumerate(clusters)
            if cluster_rngs[idx].random()
            < params.sampling_probability(
                i, cluster.weight_self, cluster.weight_neighborhood
            )
        ]
        # Covering carves delete nothing; the round's deleted set stays empty.
        outcome = carve_round(
            graph,
            seed_sets,
            params.interval(i),
            remaining,
            set(),
            ledger,
            f"phase1-iter{i}",
            carve,
        )
        removed |= outcome.removed
        fixed_ones |= outcome.fixed_ones  # assignments union (Section 5.1.2)
        centers_per_iteration.append(outcome.executed)

    chosen = set(fixed_ones)
    fixed_weight = instance.weight(fixed_ones)

    # -- Classify every constraint: satisfied / zone / residual. -------
    csr = graph.csr()
    zones = [set(c) for c in csr.connected_components(within=removed)]
    zone_of: Dict[int, int] = {}
    for zidx, zone in enumerate(zones):
        for v in zone:
            zone_of[v] = zidx
    zone_edges: Dict[int, List[int]] = {}
    residual_edges: List[int] = []
    supports = instance.supports()
    # Rows that the Phase-1 fixing already satisfies are skipped.
    unsatisfied = instance.load(fixed_ones) < instance.bounds - FEASIBILITY_TOL
    for j in np.flatnonzero(unsatisfied).tolist():
        support = set(supports[j]) - fixed_ones
        if support <= remaining:
            residual_edges.append(j)
            continue
        zone_ids = {zone_of.get(v) for v in support}
        require(
            len(zone_ids) == 1 and None not in zone_ids,
            f"constraint {j} spans zones/residual without being satisfied "
            "— carve isolation invariant broken",
        )
        zone_edges.setdefault(next(iter(zone_ids)), []).append(j)

    # -- Zone interiors: optimal completion per zone. -------------------
    max_zone_diameter = 0.0
    for zidx, edges in sorted(zone_edges.items()):
        sub = instance.restrict_to_edges(edges, fixed_ones=chosen)
        local = solve_covering_exact(
            sub, subset=zones[zidx] - chosen, cache=cache
        )
        chosen |= set(local.chosen)
        max_zone_diameter = max(
            max_zone_diameter, csr.weak_diameter(zones[zidx])
        )
    ledger.charge("zone-local-solve", int(max_zone_diameter))

    # -- Residual: Lemmas C.2 + C.3 with λ = ln(1 + ε/5). ---------------
    if residual_edges:
        residual_choice, cover = solve_covering_by_sparse_cover(
            instance,
            params.final_lambda,
            ntilde=params.ntilde,
            seed=final_rng,
            within=remaining,
            edge_indices=residual_edges,
            fixed_ones=chosen,
            cache=cache,
        )
        chosen |= residual_choice
        ledger.merge(cover.ledger, prefix="final-")

    require(
        instance.is_feasible(chosen),
        "covering output violates a constraint",
    )
    return CoveringResult(
        chosen=chosen,
        weight=instance.weight(chosen),
        ledger=ledger,
        fixed_weight=fixed_weight,
        num_zones=len(zones),
        residual_size=len(remaining),
        num_prep_clusters=len(clusters),
        centers_per_iteration=centers_per_iteration,
    )


def solve_covering(
    instance: CoveringInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    cache: Optional[SolveCache] = None,
    **profile_kwargs,
) -> CoveringResult:
    """Public entry point: profile construction + :func:`chang_li_covering`."""
    params = profile_params(
        CoveringParams, profile, eps, ntilde, instance.n, **profile_kwargs
    )
    return chang_li_covering(instance, params, seed=seed, cache=cache)

