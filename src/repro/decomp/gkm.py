"""The Ghaffari–Kuhn–Maus (STOC 2017) baseline (Section 1.2).

The algorithm the paper improves on: build a ``(C, D)`` network
decomposition of the power graph ``G^{2k}`` with ``k = Θ(log ñ / ε)``,
then process color classes sequentially — clusters of the same color
are ``> 2k`` apart in ``G``, so each can run the *sequential*
ball-growing-and-carving independently inside its ``N^k`` zone.

Carving rules implemented here:

* **Packing**: grow a ball around a remaining vertex until the first
  radius ``i`` with ``W(opt(N^i)) >= (1-ε)·W(opt(N^{i+1}))`` (exists
  within ``k = O(log W / ε)`` radii by pigeonhole); commit the local
  optimum of ``N^i`` and delete the boundary ring ``N^{i+1}∖N^i``
  (constraint supports span at most two consecutive BFS layers, so
  zeroing the ring makes the committed zones constraint-disjoint).
  Telescoping the ``(1-ε)`` inequalities against Observation 2.1 gives
  a deterministic ``(1-ε)``-approximation.
* **Covering**: grow ``N^k``, pick the odd layer pair ``S_j ∪ S_{j+1}``
  of minimum local-solution weight, fix the local optimum on the pair
  (satisfying and deleting every constraint crossing it), commit the
  local optimum inside, and continue outside — the natural ND-based
  analog of Algorithm 7, paying ``O(1/k)`` of each zone's optimum per
  carve.

Round accounting reproduces the ``O(k · C · D)`` structure: ND rounds
on ``G^{2k}`` cost ``2k`` base rounds each, and every color class costs
a ``k``-radius gather plus intra-cluster aggregation over diameter
``2k·D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.artifacts.cache import SolveCache
from repro.decomp.linial_saks import linial_saks_decomposition
from repro.decomp.network_decomposition import NetworkDecomposition
from repro.graphs.graph import Graph
from repro.ilp.exact import solve_covering_exact, solve_packing_exact
from repro.ilp.instance import CoveringInstance, PackingInstance
from repro.local.gather import RoundLedger, gather_ball
from repro.util.rng import SeedLike
from repro.util.validation import check_fraction, require


@dataclass
class GkmResult:
    """Output of the GKM baseline."""

    chosen: Set[int]
    ledger: RoundLedger
    num_colors: int
    num_carves: int
    k: int
    nd: NetworkDecomposition


def _carving_radius(eps: float, ntilde: int, scale: float) -> int:
    """``k = Θ(log ñ / ε)`` with a tunable leading constant."""
    return max(2, math.ceil(scale * math.log(ntilde) / eps))


def gkm_solve_packing(
    instance: PackingInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    scale: float = 1.0,
    cache: Optional[SolveCache] = None,
) -> GkmResult:
    """(1−ε)-approximate packing via network decomposition (GKM17).

    The ``G^{2k}`` power graph is built by the batched CSR reachability
    kernel.
    """
    check_fraction("eps", eps)
    graph = instance.hypergraph().primal_graph()
    n = graph.n
    ntilde = ntilde if ntilde is not None else max(n, 2)
    k = _carving_radius(eps, ntilde, scale)
    ledger = RoundLedger()
    nd = _power_graph_decomposition(graph, k, ntilde, seed, ledger)
    remaining: Set[int] = set(range(n))
    chosen: Set[int] = set()
    carves = 0
    max_color = nd.num_colors
    for color in range(1, max_color + 1):
        color_depth = 0
        for cluster in nd.clusters_of_color(color):
            zone_seed_vertices = sorted(cluster)
            for v in zone_seed_vertices:
                if v not in remaining:
                    continue
                zone, ring, depth = _grow_packing_zone(
                    instance, graph, v, remaining, eps, k, cache
                )
                local = solve_packing_exact(instance, subset=zone, cache=cache)
                chosen |= {u for u in local.chosen if u in zone}
                remaining -= zone
                remaining -= ring
                carves += 1
                color_depth = max(color_depth, depth)
        ledger.charge("gkm-carve-color", 3 * k, color_depth)
    require(instance.is_feasible(chosen), "GKM packing produced infeasible output")
    return GkmResult(
        chosen=chosen,
        ledger=ledger,
        num_colors=max_color,
        num_carves=carves,
        k=k,
        nd=nd,
    )


def _grow_packing_zone(
    instance: PackingInstance,
    graph: Graph,
    center: int,
    remaining: Set[int],
    eps: float,
    k: int,
    cache: Optional[SolveCache],
) -> Tuple[Set[int], Set[int], int]:
    """Find the ε-stationary radius and return (zone, ring, depth used).

    Returns the first radius ``i`` with
    ``W(opt(N^i)) >= (1-ε) * W(opt(N^{i+1}))``; guaranteed to exist for
    ``i < k`` when ``k >= log_{1/(1-ε)} W + 1`` — if the ball stops
    growing early the current radius is trivially stationary.
    """
    prev_ball = gather_ball(graph, [center], 0, within=remaining).ball
    prev_value = solve_packing_exact(instance, subset=prev_ball, cache=cache).weight
    for i in range(k):
        nxt = gather_ball(graph, [center], i + 1, within=remaining)
        next_ball = nxt.ball
        if next_ball == prev_ball:
            return prev_ball, set(), i
        next_value = solve_packing_exact(
            instance, subset=next_ball, cache=cache
        ).weight
        if prev_value >= (1.0 - eps) * next_value:
            ring = next_ball - prev_ball
            return prev_ball, ring, i + 1
        prev_ball = next_ball
        prev_value = next_value
    # Pigeonhole failed only because k was set too small (practical
    # profiles); fall back to committing the largest ball with its ring.
    outer = gather_ball(graph, [center], k + 1, within=remaining).ball
    return prev_ball, outer - prev_ball, k + 1


def gkm_solve_covering(
    instance: CoveringInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    scale: float = 1.0,
    cache: Optional[SolveCache] = None,
) -> GkmResult:
    """(1+ε)-style covering via network decomposition (ND-based analog).

    Carve bookkeeping mirrors Algorithm 7: fixing the local optimum on
    an odd layer pair ``S_j ∪ S_{j+1}`` satisfies every constraint whose
    support lies inside the pair (constraint supports span at most two
    consecutive BFS layers); only ``N^j`` is then removed as an isolated
    zone — the pair's outer layer stays in the residual graph.  Zones
    solve their interior constraints at the end, with the fixed
    variables' contributions subtracted.
    """
    check_fraction("eps", eps)
    hypergraph = instance.hypergraph()
    graph = hypergraph.primal_graph()
    n = graph.n
    ntilde = ntilde if ntilde is not None else max(n, 2)
    # Window of ~2/eps layer pairs so the fixed boundary costs O(eps).
    k = max(4, math.ceil(2.0 * scale / eps))
    ledger = RoundLedger()
    nd = _power_graph_decomposition(graph, k, ntilde, seed, ledger)
    remaining: Set[int] = set(range(n))
    fixed_ones: Set[int] = set()
    zones: List[Set[int]] = []
    carves = 0
    max_color = nd.num_colors
    for color in range(1, max_color + 1):
        color_depth = 0
        for cluster in nd.clusters_of_color(color):
            for v in sorted(cluster):
                if v not in remaining:
                    continue
                depth = _carve_covering_zone(
                    instance, graph, v, remaining, fixed_ones, zones, k, cache
                )
                carves += 1
                color_depth = max(color_depth, depth)
        ledger.charge("gkm-carve-color", 3 * k, color_depth)
    require(not remaining, "GKM covering left residual vertices uncarved")
    chosen = set(fixed_ones)
    chosen |= solve_zone_coverings(instance, zones, fixed_ones, cache)
    require(
        instance.is_feasible(chosen),
        "GKM covering produced infeasible output",
    )
    return GkmResult(
        chosen=chosen,
        ledger=ledger,
        num_colors=max_color,
        num_carves=carves,
        k=k,
        nd=nd,
    )


def solve_zone_coverings(
    instance: CoveringInstance,
    zones: Sequence[Set[int]],
    fixed_ones: Set[int],
    cache: Optional[SolveCache] = None,
) -> Set[int]:
    """Solve each zone's interior constraints optimally and union them.

    A constraint belongs to a zone when its support (minus already-fixed
    variables) lies inside the zone; carve bookkeeping guarantees every
    not-yet-satisfied constraint belongs to exactly one zone.
    """
    chosen: Set[int] = set()
    for zone in zones:
        local = solve_covering_exact(
            instance,
            subset=zone - fixed_ones,
            fixed_ones=fixed_ones | chosen,
            cache=cache,
        )
        chosen |= set(local.chosen)
    return chosen


def _carve_covering_zone(
    instance: CoveringInstance,
    graph: Graph,
    center: int,
    remaining: Set[int],
    fixed_ones: Set[int],
    zones: List[Set[int]],
    k: int,
    cache: Optional[SolveCache],
) -> int:
    """One covering carve (Algorithm 7 structure, window-min rule).

    Fixes the local optimum on the lightest odd layer pair, removes
    ``N^{j*}`` as a zone, and leaves layer ``j*+1`` in the residual
    graph so constraints crossing into it stay solvable.
    """
    gathered = gather_ball(graph, [center], k + 1, within=remaining)
    layers = gathered.layers
    ball = gathered.ball
    depth = gathered.depth_reached
    if depth <= 2:
        # Whole residual component gathered: it becomes one zone.
        zones.append(set(ball))
        remaining -= ball
        return depth
    local = solve_covering_exact(
        instance, subset=ball, fixed_ones=fixed_ones, cache=cache
    )
    best_j = None
    best_weight = float("inf")
    last = min(len(layers) - 2, k)
    for j in range(1, last + 1, 2):
        pair = set(layers[j]) | set(layers[j + 1])
        w = instance.weight_on(local.chosen, pair)
        if w < best_weight:
            best_weight = w
            best_j = j
    pair = set(layers[best_j]) | set(layers[best_j + 1])
    fixed_ones |= {u for u in local.chosen if u in pair}
    inner: Set[int] = set()
    for j in range(best_j + 1):
        inner |= set(layers[j])
    zones.append(inner)
    remaining -= inner
    return depth


def sequential_carving_packing(
    instance: PackingInstance,
    eps: float,
    ntilde: Optional[int] = None,
    cache: Optional[SolveCache] = None,
    scale: float = 1.0,
) -> Set[int]:
    """The *sequential* ball-growing-and-carving of Section 1.2.

    The conceptual algorithm GKM distributes: repeatedly pick any
    remaining vertex, grow its ball to the first ε-stationary radius,
    commit the local optimum, delete the boundary ring, recurse on the
    rest.  Centralized (one carve at a time, no network decomposition);
    used as a quality baseline and in tests of the carving invariants.
    """
    check_fraction("eps", eps)
    graph = instance.hypergraph().primal_graph()
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    k = _carving_radius(eps, ntilde, scale)
    remaining: Set[int] = set(range(graph.n))
    chosen: Set[int] = set()
    while remaining:
        center = min(remaining)
        zone, ring, _ = _grow_packing_zone(
            instance, graph, center, remaining, eps, k, cache
        )
        local = solve_packing_exact(instance, subset=zone, cache=cache)
        chosen |= {u for u in local.chosen if u in zone}
        remaining -= zone
        remaining -= ring
    require(
        instance.is_feasible(chosen),
        "sequential carving produced infeasible output",
    )
    return chosen


def _power_graph_decomposition(
    graph: Graph,
    k: int,
    ntilde: int,
    seed: SeedLike,
    ledger: RoundLedger,
) -> NetworkDecomposition:
    """LS decomposition of ``G^{2k}``; charges ND rounds at base-graph cost.

    The ``G^{2k}`` construction is the expensive part at scale; it is
    one batched CSR reachability sweep.
    """
    power_radius = 2 * k
    power = graph.csr().power(power_radius) if graph.n else graph
    nd = linial_saks_decomposition(power, ntilde=ntilde, seed=seed)
    # Every LS round on G^{2k} costs 2k rounds of G.
    ledger.charge(
        "gkm-network-decomposition",
        nd.ledger.nominal_rounds * power_radius,
        nd.ledger.effective_rounds * power_radius,
    )
    return nd
