"""Theorem 1.2: (1−ε)-approximate packing ILP with high probability.

Pipeline (Section 4.1):

1. **Preparation** — ``16 ln ñ`` independent Elkin–Neiman decompositions
   with ``λ = 1/2`` run in parallel; the resulting cluster collection
   ``C`` provides the sampling estimates: each cluster ``C`` weighs
   itself (``W(P^local_C, C)``) against its ``8tR``-neighborhood
   (``W(P^local_{S_C}, S_C)``).  The ratio measures the cluster's share
   of any fixed optimal solution — the trick that lets the algorithm
   "sample from" the unknown optimum ``P*`` (Section 1.4.2).
2. **Phase 1** — ``t`` iterations of weighted ball-growing-and-carving
   (Algorithm 4/5): clusters become centers with probability
   ``2^i W_C / W_{S_C}`` and delete the middle layer of the lightest
   3-layer window, measured by a local optimal packing solution.
3. **Phase 2** — one boosted iteration (Algorithm 6).
4. **Phase 3** — Elkin–Neiman with ``λ = ε/10`` on the residual; then
   every connected component of the non-deleted vertices solves its
   local packing instance (Observation 2.1) and the union is returned.

Feasibility is structural: components are mutually non-adjacent and
deleted variables are 0, so every constraint is enforced by exactly one
local solve (proof of Theorem 1.2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.artifacts.cache import SolveCache
from repro.core.carve import (
    carve_round,
    grow_and_carve_packing,
    prepare_clusters,
)
from repro.core.params import PackingParams, profile_params
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.ilp.exact import solve_packing_exact
from repro.ilp.instance import PackingInstance
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import require


@dataclass
class PackingResult:
    """Solution plus run diagnostics."""

    chosen: Set[int]
    weight: float
    ledger: RoundLedger
    deleted: Set[int]
    num_components: int
    num_prep_clusters: int
    centers_per_iteration: List[int] = field(default_factory=list)


def chang_li_packing(
    instance: PackingInstance,
    params: PackingParams,
    seed: SeedLike = None,
    cache: Optional[SolveCache] = None,
) -> PackingResult:
    """Run the Theorem 1.2 algorithm with the given parameters.

    As in :func:`~repro.core.ldd.chang_li_ldd`, the BFS-shaped steps
    (the ``S_C`` neighborhood gathers, the carving BFS and the final
    components and diameters) run on the CSR kernels, and the
    preparation and Phase-3 Elkin–Neiman floods on the heap flood.
    """
    cache = cache if cache is not None else SolveCache()
    hypergraph = instance.hypergraph()
    graph = hypergraph.primal_graph()
    n = graph.n
    ledger = RoundLedger()
    rng_streams = spawn_rngs(seed, params.prep_count + 3)
    prep_rngs = rng_streams[: params.prep_count]
    phase_rng = rng_streams[params.prep_count]
    phase3_rng = rng_streams[params.prep_count + 1]

    clusters = prepare_clusters(
        graph,
        [
            elkin_neiman_ldd(
                graph, params.prep_lambda, ntilde=params.ntilde, seed=rng
            )
            for rng in prep_rngs
        ],
        params.cluster_radius,
        lambda subset: solve_packing_exact(
            instance, subset=subset, cache=cache
        ).weight,
        ledger,
        "prep-ldd",
    )

    remaining: Set[int] = set(range(n))
    deleted: Set[int] = set()
    centers_per_iteration: List[int] = []

    def carve(seeds, interval, snapshot):
        return grow_and_carve_packing(
            instance, graph, seeds, interval, snapshot, cache=cache
        )

    cluster_rngs = spawn_rngs(phase_rng, max(1, len(clusters)))
    rounds = [
        (
            f"phase1-iter{i}",
            params.interval(i),
            functools.partial(params.sampling_probability, i),
        )
        for i in range(1, params.t + 1)
    ]
    rounds.append(("phase2", params.phase2_interval(), params.phase2_probability))
    for label, interval, probability in rounds:
        seed_sets = [
            cluster.vertices
            for idx, cluster in enumerate(clusters)
            if cluster_rngs[idx].random()
            < probability(cluster.weight_self, cluster.weight_neighborhood)
        ]
        outcome = carve_round(
            graph, seed_sets, interval, remaining, deleted, ledger, label, carve
        )
        centers_per_iteration.append(outcome.executed)

    if remaining:
        en = elkin_neiman_ldd(
            graph,
            params.phase3_lambda,
            ntilde=params.ntilde,
            seed=phase3_rng,
            within=remaining,
        )
        deleted |= en.deleted
        ledger.merge(en.ledger, prefix="phase3-")

    # -- Final: per-component local solves (deleted variables are 0). --
    chosen: Set[int] = set()
    csr = graph.csr()
    components = csr.connected_components(within=set(range(n)) - deleted)
    max_component_diameter = 0.0
    for component in components:
        local = solve_packing_exact(instance, subset=component, cache=cache)
        chosen |= set(local.chosen)
        max_component_diameter = max(
            max_component_diameter, csr.weak_diameter(component)
        )
    ledger.charge(
        "final-local-solve",
        int(max_component_diameter) if components else 0,
    )
    require(
        instance.is_feasible(chosen),
        "packing output violates a constraint — component isolation broken",
    )
    return PackingResult(
        chosen=chosen,
        weight=instance.weight(chosen),
        ledger=ledger,
        deleted=deleted,
        num_components=len(components),
        num_prep_clusters=len(clusters),
        centers_per_iteration=centers_per_iteration,
    )


def solve_packing(
    instance: PackingInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    cache: Optional[SolveCache] = None,
    **profile_kwargs,
) -> PackingResult:
    """Public entry point: profile construction + :func:`chang_li_packing`."""
    params = profile_params(
        PackingParams, profile, eps, ntilde, instance.n, **profile_kwargs
    )
    return chang_li_packing(instance, params, seed=seed, cache=cache)

