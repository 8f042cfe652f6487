"""The Section 4 "alternative approach" to Theorem 1.2.

Instead of the sampling preparation, run ``Θ(ε⁻² log ñ)`` Elkin–Neiman
decompositions in parallel and compute a packing solution ``P_i`` from
each.  Re-weight every variable by how many of those solutions select
it (``w'(v) = w(v) · |{i : P_i(v) = 1}|``), run a *weighted*
low-diameter decomposition (the weighted generalization of Theorem
1.1) on ``w'``, and solve the decomposed instance.  A Chernoff bound
over the ensemble plus an averaging argument shows the clustered weight
retains a ``(1 − O(ε))`` fraction of the optimum with high probability.

The weighted LDD reuses :func:`repro.core.ldd.chang_li_ldd` with its
``weights`` parameter — everything (ball estimates, layer choices,
deletion accounting) measured in ``w'``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.artifacts.cache import SolveCache
from repro.core.ldd import chang_li_ldd
from repro.core.params import LddParams
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.ilp.exact import solve_packing_exact
from repro.ilp.instance import PackingInstance
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_fraction, require


@dataclass
class AlternativePackingResult:
    """Solution plus the ensemble diagnostics."""

    chosen: Set[int]
    weight: float
    ledger: RoundLedger
    ensemble_size: int
    ensemble_weights: List[float] = field(default_factory=list)


def alternative_packing(
    instance: PackingInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    ensemble_cap: int = 48,
    cache: Optional[SolveCache] = None,
) -> AlternativePackingResult:
    """Run the alternative approach end to end.

    The ensemble holds ``ε⁻² log ñ`` members (``ensemble_cap`` bounds
    it for laptop-scale runs — the *shape* of the argument only needs
    enough repetitions for the average to stabilize).
    """
    check_fraction("eps", eps)
    cache = cache if cache is not None else SolveCache()
    graph = instance.hypergraph().primal_graph()
    n = graph.n
    ntilde = ntilde if ntilde is not None else max(n, 2)
    count = min(
        ensemble_cap,
        max(4, math.ceil(math.log(ntilde) / eps**2)),
    )
    rngs = spawn_rngs(seed, count + 1)
    ledger = RoundLedger()

    # -- Ensemble of EN decompositions and their packing solutions. ----
    selections = [0] * n
    ensemble_weights: List[float] = []
    prep_ledgers = []
    for i in range(count):
        en = elkin_neiman_ldd(
            graph, eps / 2.0, ntilde=ntilde, seed=rngs[i]
        )
        prep_ledgers.append(en.ledger)
        solution: Set[int] = set()
        for cluster in en.clusters:
            local = solve_packing_exact(instance, subset=cluster, cache=cache)
            solution |= set(local.chosen)
        require(
            instance.is_feasible(solution),
            "ensemble member produced an infeasible packing",
        )
        ensemble_weights.append(instance.weight(solution))
        for v in solution:
            selections[v] += 1
    ledger.merge_parallel(prep_ledgers, "ensemble-ldd")

    # -- Weighted LDD on w'(v) = w(v) · selections(v). ------------------
    reweighted = [
        instance.weights[v] * selections[v] for v in range(n)
    ]
    params = LddParams.practical(eps, ntilde)
    weighted = chang_li_ldd(
        graph, params, seed=rngs[count], weights=reweighted
    )
    ledger.merge(weighted.ledger, prefix="weighted-ldd-")

    # -- Solve the decomposed instance. ---------------------------------
    chosen: Set[int] = set()
    for cluster in weighted.clusters:
        local = solve_packing_exact(instance, subset=cluster, cache=cache)
        chosen |= set(local.chosen)
    require(
        instance.is_feasible(chosen),
        "alternative packing output violates a constraint",
    )
    return AlternativePackingResult(
        chosen=chosen,
        weight=instance.weight(chosen),
        ledger=ledger,
        ensemble_size=count,
        ensemble_weights=ensemble_weights,
    )
