"""Ball-growing-and-carving subroutines (Algorithms 1, 4 and 7).

All three carves share the shape: gather the ``b``-radius neighborhood
of the center (vertex or cluster) inside the residual graph, score each
candidate cut position in the interval ``[a, b]``, cut at the cheapest
one, and split the graph there.  They differ in what is cut:

* :func:`grow_and_carve` (Alg 1, LDD) — **delete** the smallest BFS
  layer ``S_{j*}``, **remove** ``N^{j*-1}`` as a finished cluster;
* :func:`grow_and_carve_packing` (Alg 4) — delete the middle layer of
  the lightest length-3 window, measured by an optimal local *packing*
  solution;
* :func:`grow_and_carve_covering` (Alg 7) — **fix** an optimal local
  *covering* solution on the lightest odd layer pair (satisfying every
  constraint crossing it) and remove ``N^{j*}`` as an isolated zone.

:func:`carve_round` is the one iteration step of every driver
(:mod:`repro.core.ldd`, ``packing``, ``covering``, ``blackbox``): it
applies the carves of all sampled centers against the *same* residual
snapshot, then merges them — a vertex deleted by any carve is deleted
("deleted wins", Section 3.1.2); fixed assignments are unioned
(Section 5.1.2).  :func:`prepare_clusters` is the preparation step
shared by packing and covering (Sections 4.1.1 and 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

import repro.obs as _obs
from repro.artifacts.cache import SolveCache
from repro.graphs.graph import Graph
from repro.ilp.exact import solve_covering_exact, solve_packing_exact
from repro.ilp.instance import CoveringInstance, PackingInstance
from repro.local.gather import GatherResult, RoundLedger, gather_ball
from repro.util.validation import require

Interval = Tuple[int, int]


@dataclass(frozen=True)
class CarveOutcome:
    """Result of one ball-growing-and-carving execution.

    ``removed`` vertices are clustered and leave the residual graph;
    ``deleted`` vertices are permanently unclustered (LDD / packing) —
    empty for covering carves, which instead report ``fixed_ones``.
    ``depth`` is the BFS depth actually reached (effective rounds).
    """

    removed: Set[int]
    deleted: Set[int]
    fixed_ones: Set[int]
    cut_position: int
    depth: int


def _weights_of(layer: Iterable[int], weights: Optional[Sequence[float]]) -> float:
    if weights is None:
        return float(len(set(layer)))
    # Sorted so the float accumulation order is pinned (set iteration
    # order is an implementation detail; float addition is not
    # associative, so the order is part of the reproducibility contract).
    return sum(weights[v] for v in sorted(set(layer)))


def _gather(
    graph: Graph,
    centers: Iterable[int],
    radius: int,
    remaining,
    min_depth: int,
    mpc=None,
) -> Tuple[GatherResult, Optional[CarveOutcome]]:
    """Every carve's prologue: gather ``N^radius(centers)`` in the residual.

    When the BFS exhausts the residual component before ``min_depth``
    the second value is the outcome that removes the whole ball and
    deletes nothing — the carve's purpose (isolating a cluster) is
    already achieved; otherwise it is ``None``.
    """
    with _obs.span("carve.gather"):
        gathered = gather_ball(graph, centers, radius, within=remaining, mpc=mpc)
    depth = gathered.depth_reached
    if depth >= min_depth:
        return gathered, None
    return gathered, CarveOutcome(
        removed=gathered.ball,
        deleted=set(),
        fixed_ones=set(),
        cut_position=depth,
        depth=depth,
    )


def grow_and_carve(
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    weights: Optional[Sequence[float]] = None,
    mpc=None,
) -> CarveOutcome:
    """Algorithm 1: delete the sparsest layer in ``interval``.

    ``weights`` generalizes "sparsest" from vertex count to vertex
    weight (used by the Section 4 alternative approach's weighted LDD);
    ties break toward the smaller index.

    When the BFS exhausts the residual component before reaching ``a``
    the whole component is removed and nothing is deleted.

    ``remaining`` may be a precomputed boolean residual mask shared
    across the iteration's carves (see :func:`gather_ball`).  ``mpc`` (an :class:`~repro.mpc.MpcRun` on this graph) runs the
    gather as metered partitioned BFS rounds — bit-identical layers.
    """
    a, b = interval
    require(1 <= a <= b, f"invalid interval [{a}, {b}]")
    gathered, exhausted = _gather(graph, centers, b, remaining, a, mpc)
    if exhausted is not None:
        return exhausted
    layers = gathered.layers
    best_j = a
    best_size = float("inf")
    for j in range(a, min(b, gathered.depth_reached) + 1):
        size = _weights_of(layers[j], weights)
        if size < best_size:
            best_size = size
            best_j = j
    return CarveOutcome(
        removed=set().union(*layers[:best_j]),
        deleted=set(layers[best_j]),
        fixed_ones=set(),
        cut_position=best_j,
        depth=gathered.depth_reached,
    )


def grow_and_carve_packing(
    instance: PackingInstance,
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    cache: Optional[SolveCache] = None,
) -> CarveOutcome:
    """Algorithm 4: delete the middle layer of the lightest 3-window.

    The interval ``[a, b]`` has ``a ≡ 1 (mod 3)`` and length divisible
    by 3; windows ``[j, j+2]`` for ``j ≡ a (mod 3)`` partition it.  The
    local optimum ``P^local`` of ``N^{b-1}(C)`` (within the residual)
    scores each window; the middle layer ``S_{j*+1}`` of the lightest
    window is deleted and ``N^{j*}(C)`` removed.  ``remaining`` may be
    a precomputed boolean residual mask shared across the iteration's
    carves.
    """
    a, b = interval
    require(1 <= a < b, f"invalid interval [{a}, {b}]")
    gathered, exhausted = _gather(graph, centers, b - 1, remaining, a)
    if exhausted is not None:
        return exhausted
    layers = gathered.layers
    with _obs.span("carve.local_solve"):
        local = solve_packing_exact(instance, subset=gathered.ball, cache=cache)
    best_j = a
    best_weight = float("inf")
    j = a
    while j <= b - 1:
        w = instance.weight_on(local.chosen, set().union(*layers[j : j + 3]))
        if w < best_weight:
            best_weight = w
            best_j = j
        j += 3
    return CarveOutcome(
        removed=set().union(*layers[: best_j + 1]),
        deleted=set(gathered.layer(best_j + 1)),
        fixed_ones=set(),
        cut_position=best_j,
        depth=gathered.depth_reached,
    )


def grow_and_carve_covering(
    instance: CoveringInstance,
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    fixed_ones: Set[int],
    cache: Optional[SolveCache] = None,
) -> CarveOutcome:
    """Algorithm 7: fix the lightest odd layer pair, remove ``N^{j*}``.

    The local optimum ``Q^local`` of ``N^b(C)`` (completion under the
    already-fixed variables) scores every odd ``j``; the pair
    ``S_{j*} ∪ S_{j*+1}`` of minimum fixed weight is committed.  Every
    constraint crossing the removal boundary lies inside the pair
    (supports span at most two consecutive BFS layers) and is therefore
    satisfied by the commitment.  Only ``N^{j*}`` is removed — the
    pair's outer layer stays in the residual graph.  ``remaining`` may
    be a precomputed boolean residual mask shared across the
    iteration's carves.
    """
    a, b = interval
    require(1 <= a < b, f"invalid interval [{a}, {b}]")
    gathered, exhausted = _gather(graph, centers, b, remaining, a + 1)
    if exhausted is not None:
        return exhausted
    layers = gathered.layers
    with _obs.span("carve.local_solve"):
        local = solve_covering_exact(
            instance, subset=gathered.ball, fixed_ones=fixed_ones, cache=cache
        )
    first_odd = a if a % 2 == 1 else a + 1
    best_j = None
    best_weight = float("inf")
    last = min(b - 1, gathered.depth_reached - 1)
    for j in range(first_odd, last + 1, 2):
        pair = set(layers[j]) | set(layers[j + 1])
        w = instance.weight_on(local.chosen, pair)
        if w < best_weight:
            best_weight = w
            best_j = j
    require(best_j is not None, "no odd cut position available")
    pair = set(layers[best_j]) | set(layers[best_j + 1])
    return CarveOutcome(
        removed=set().union(*layers[: best_j + 1]),
        deleted=set(),
        fixed_ones={u for u in local.chosen if u in pair},
        cut_position=best_j,
        depth=gathered.depth_reached,
    )


@dataclass(frozen=True)
class RoundOutcome:
    """One :func:`carve_round`, merged and already applied.

    ``removed`` and ``deleted`` are the round's new clusters and
    deletions (after "deleted wins"), ``fixed_ones`` the union of the
    carves' committed assignments, and ``executed`` the number of
    carves actually run — a center whose seeds were all carved away
    before the round is skipped and not counted.
    """

    removed: Set[int]
    deleted: Set[int]
    fixed_ones: Set[int]
    executed: int


def carve_round(
    graph: Graph,
    seed_sets: Sequence[Iterable[int]],
    interval: Interval,
    remaining: Set[int],
    deleted: Set[int],
    ledger: RoundLedger,
    label: str,
    carve: Callable[..., CarveOutcome],
) -> RoundOutcome:
    """Run every center's carve against one residual snapshot and merge.

    ``carve(seeds, interval, snapshot)`` is one center's
    grow-and-carve; ``seeds`` is the center's seed set intersected with
    ``remaining`` (empty intersections are skipped) and ``snapshot``
    the round's boolean residual mask, built once and shared by every
    carve.  A vertex deleted by any carve is deleted even if another
    carve removed it; fixed assignments are unioned.  ``remaining``
    loses the removed and deleted vertices and ``deleted`` gains the
    latter, both in place.  All carves run simultaneously, so the round
    is charged once under ``label``: ``2b`` nominal rounds and twice
    the deepest gather effective rounds.
    """
    removed_now: Set[int] = set()
    deleted_now: Set[int] = set()
    fixed_now: Set[int] = set()
    max_depth = 0
    executed = 0
    snapshot = graph.csr().residual_mask(remaining) if seed_sets else None
    for seed_set in seed_sets:
        seeds = set(seed_set) & remaining
        if not seeds:
            continue
        executed += 1
        outcome = carve(seeds, interval, snapshot)
        removed_now |= outcome.removed
        deleted_now |= outcome.deleted
        fixed_now |= outcome.fixed_ones
        max_depth = max(max_depth, outcome.depth)
    removed_now -= deleted_now  # deleted wins
    deleted |= deleted_now
    remaining -= removed_now
    remaining -= deleted_now
    ledger.charge(label, 2 * interval[1], 2 * max_depth)
    return RoundOutcome(
        removed=removed_now,
        deleted=deleted_now,
        fixed_ones=fixed_now,
        executed=executed,
    )


@dataclass(frozen=True)
class PrepCluster:
    """A preparation cluster ``C`` and its sampling estimate's weights.

    ``weight_self`` is the local optimum's weight on ``C``,
    ``weight_neighborhood`` the local optimum's weight on
    ``S_C = N^radius(C)``.
    """

    vertices: frozenset
    weight_self: float
    weight_neighborhood: float


def prepare_clusters(
    graph: Graph,
    decompositions: Sequence,
    radius: int,
    local_weight: Callable[[Set[int]], float],
    ledger: RoundLedger,
    label: str,
) -> List[PrepCluster]:
    """Preparation step (Sections 4.1.1 and 5.1.1): weigh every cluster.

    ``decompositions`` (anything with ``clusters`` and ``ledger``) ran
    in parallel and are charged as one ``label`` phase.  Each of their
    clusters, in order, gathers ``S_C`` and is weighed by
    ``local_weight`` (the weight of an optimal local solution on a
    vertex subset) — on ``C`` first, then on ``S_C``.
    """
    ledger.merge_parallel([d.ledger for d in decompositions], label)
    clusters: List[PrepCluster] = []
    max_depth = 0
    for decomposition in decompositions:
        for cluster in decomposition.clusters:
            gathered = gather_ball(graph, cluster, radius)
            max_depth = max(max_depth, gathered.depth_reached)
            clusters.append(
                PrepCluster(
                    vertices=frozenset(cluster),
                    weight_self=local_weight(cluster),
                    weight_neighborhood=local_weight(gathered.ball),
                )
            )
    ledger.charge("prep-estimates", 2 * radius, 2 * max_depth)
    return clusters
