"""Incremental LDD repair under edge churn (the serve-time maintainer).

A Chang–Li decomposition's clusters are **mutually non-adjacent**
(Definition 1.4) — the property that makes repair local.  When a batch
of edge insertions/deletions lands, only the clusters containing an
endpoint of a churned edge ("dirty" clusters) can be invalidated:

* every churned edge's endpoints make their own clusters dirty, so in
  the new graph no surviving ("clean") cluster gained or lost any
  incident edge — clean clusters keep their internal edges (an
  intra-cluster deletion would have dirtied them), hence stay
  connected with unchanged weak diameter, and every pre-existing edge
  from a clean cluster leads to the same cluster, a dirty cluster's
  region, or a deleted vertex, exactly as before;
* therefore re-running the decomposition on the subgraph induced by
  the dirty region — the union of dirty clusters plus every previously
  deleted vertex with no neighbor inside a clean cluster — yields
  clusters that cannot be adjacent to any clean cluster: a vertex of
  the dirty region with a clean neighbor would either contradict the
  old non-adjacency (old edge) or have dirtied that clean cluster (new
  edge), and readmitted deleted vertices are chosen to have no clean
  neighbors at all.

So :func:`repair_decomposition` recarves the dirty region with the
same ``chang_li_ldd`` machinery and splices the result into the clean
remainder, preserving the C1 ball property and weak-diameter budget of
a full rebuild while touching only the churned fraction of the graph.
When *every* cluster is dirty the dirty region is the whole vertex
set, the induced relabeling is the identity, and repair degenerates to
(bit-exactly) the full rebuild — the property the test suite pins.

:func:`sample_churn` / :func:`apply_churn` generate and apply
deterministic churn batches (the ``ldd-churn`` scenario's workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.ldd import chang_li_ldd
from repro.core.params import LddParams
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.util.rng import RngStream
from repro.util.validation import check_int_array, require

Edge = Tuple[int, int]


@dataclass(frozen=True)
class ChurnBatch:
    """One batch of edge insertions and deletions (normalized pairs)."""

    added: Tuple[Edge, ...]
    removed: Tuple[Edge, ...]

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self.added + self.removed

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)


@dataclass
class RepairResult:
    """Outcome of one :func:`repair_decomposition` call."""

    decomposition: Decomposition
    #: Indices (into the *old* decomposition's cluster list) recarved.
    dirty_clusters: Tuple[int, ...]
    #: Vertices handed to the recarve (dirty clusters + readmitted).
    recarved_vertices: int
    #: Previously deleted vertices given a second clustering chance.
    readmitted_deleted: int
    #: True when the dirty region was the whole vertex set.
    full_rebuild: bool


def _normalized(edges: Iterable[Edge]) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array, each row oriented ``u < v``.

    Self-loops are rejected, and so are non-integral endpoints (rather
    than truncated).  Ranges are checked by the callers, whose messages
    differ.
    """
    pairs = check_int_array("churn edge endpoints", list(edges))
    if not pairs.size:
        return np.empty((0, 2), dtype=np.int64)
    require(
        pairs.ndim == 2 and pairs.shape[1] == 2,
        "churn edges must be vertex pairs",
    )
    require(
        not bool((pairs[:, 0] == pairs[:, 1]).any()),
        "churn edges must join distinct vertices",
    )
    return np.sort(pairs, axis=1)


def apply_churn(graph: Graph, batch: ChurnBatch) -> Graph:
    """The post-churn graph (same vertex set, edited edge set).

    Works on ``u * n + v`` keys of the ``u < v`` edges: the old graph's
    keys come off its CSR upper triangle (already sorted), removals are
    located with one ``searchsorted`` and deleted, and the additions are
    appended for :meth:`Graph.from_edge_arrays` to sort and deduplicate.
    Every removal must be an edge of the graph, and an edge removed
    twice in one batch is missing the second time.
    """
    with _obs.span("repair.apply_churn"):
        n = graph.n
        csr = graph.csr()
        heads = np.repeat(np.arange(n, dtype=np.int64), csr.degrees)
        upper = csr.indices > heads
        keys = heads[upper] * n + csr.indices[upper]
        removed = _normalized(batch.removed)
        if removed.size:
            missing = "removed edge is not in the graph"
            require(bool((removed >= 0).all() and (removed < n).all()), missing)
            gone = np.sort(removed[:, 0] * n + removed[:, 1])
            require(not bool((gone[1:] == gone[:-1]).any()), missing)
            at = np.searchsorted(keys, gone)
            require(bool((at < keys.size).all()), missing)
            require(bool((keys[at] == gone).all()), missing)
            keys = np.delete(keys, at)
        added = _normalized(batch.added)
        require(
            bool((added >= 0).all() and (added < n).all()),
            "added edge endpoint out of range",
        )
        lo, hi = np.divmod(keys, max(n, 1))
        return Graph.from_edge_arrays(
            n, np.concatenate((lo, added[:, 0])), np.concatenate((hi, added[:, 1]))
        )


def sample_churn(
    graph: Graph,
    decomposition: Decomposition,
    rng: RngStream,
    clusters: int,
    additions: int,
    removals: int,
) -> ChurnBatch:
    """A churn batch whose dirt is confined to ``clusters`` chosen clusters.

    Removals are sampled from edges internal to the chosen clusters and
    additions from vertex pairs inside their union, so the dirty-cluster
    count of the batch is at most ``clusters`` — the knob the
    ``ldd-churn`` scenario sweeps.  Deterministic given ``rng``.
    """
    num = len(decomposition.clusters)
    require(0 < clusters <= num, "clusters must be within the decomposition")
    chosen = sorted(
        int(c) for c in rng.choice(num, size=clusters, replace=False)
    )
    pool = np.fromiter(
        sorted(v for c in chosen for v in decomposition.clusters[c]),
        dtype=np.int64,
    )
    member = np.zeros(graph.n, dtype=bool)
    member[pool] = True
    existing = set(graph.edges())
    internal = [
        (u, v) for u, v in graph.edges() if member[u] and member[v]
    ]
    removed: List[Edge] = []
    if internal and removals:
        picks = rng.choice(len(internal), size=min(removals, len(internal)), replace=False)
        removed = [internal[int(i)] for i in sorted(int(p) for p in picks)]
    added: List[Edge] = []
    seen: Set[Edge] = set(removed)
    attempts = 0
    while len(added) < additions and attempts < 50 * max(additions, 1):
        attempts += 1
        u, v = (int(x) for x in rng.choice(len(pool), size=2, replace=False))
        edge = (int(pool[u]), int(pool[v]))
        edge = edge if edge[0] < edge[1] else (edge[1], edge[0])
        if edge in existing or edge in seen:
            continue
        seen.add(edge)
        added.append(edge)
    return ChurnBatch(added=tuple(added), removed=tuple(removed))


def dirty_cluster_indices(
    decomposition: Decomposition, dirty_edges: Iterable[Edge]
) -> Set[int]:
    """Clusters containing an endpoint of any churned edge."""
    owner = {}
    for idx, cluster in enumerate(decomposition.clusters):
        for v in cluster:
            owner[v] = idx
    dirty: Set[int] = set()
    for u, v in dirty_edges:
        for endpoint in (u, v):
            cid = owner.get(endpoint)
            if cid is not None:
                dirty.add(cid)
    return dirty


def repair_decomposition(
    graph: Graph,
    decomposition: Decomposition,
    dirty_edges: Iterable[Edge],
    params: LddParams,
    seed=None,
    validate: bool = False,
) -> RepairResult:
    """Repair ``decomposition`` after churn instead of rebuilding.

    ``graph`` is the **post-churn** graph; ``decomposition`` was
    computed before the churn; ``dirty_edges`` are the churned edges
    (insertions and deletions alike — only their endpoints matter).
    ``params`` should be the same :class:`LddParams` a full rebuild
    would use (``ntilde`` keeps the full-graph value, so the recarve
    inherits the rebuild's C1/weak-diameter budgets).

    Returns a :class:`RepairResult` whose decomposition satisfies the
    same partition/non-adjacency invariants as a rebuild (see the
    module docstring for the argument); its ledger is the recarve's
    ledger — the rounds repair actually paid.
    """
    churned = _normalized(dirty_edges)
    require(
        bool((churned >= 0).all() and (churned < graph.n).all()),
        "churn edge endpoint out of range (vertex churn is not supported)",
    )
    if not churned.size:
        return RepairResult(
            decomposition=decomposition,
            dirty_clusters=(),
            recarved_vertices=0,
            readmitted_deleted=0,
            full_rebuild=False,
        )

    with _obs.span("repair.classify"):
        dirty = dirty_cluster_indices(decomposition, churned.tolist())
        clean = [
            i for i in range(len(decomposition.clusters)) if i not in dirty
        ]
        clean_mask = np.zeros(graph.n, dtype=bool)
        for i in clean:
            members = np.fromiter(
                decomposition.clusters[i],
                dtype=np.int64,
                count=len(decomposition.clusters[i]),
            )
            clean_mask[members] = True
        # A deleted vertex whose neighbors all left the clean region can
        # be re-admitted: clustering it cannot create clean adjacency.
        readmitted = [
            v
            for v in sorted(decomposition.deleted)
            if not any(clean_mask[u] for u in graph.neighbors(v))
        ]
        region: Set[int] = set(readmitted)
        for i in sorted(dirty):
            region |= decomposition.clusters[i]
    _obs.count("repair.dirty_clusters", len(dirty))
    _obs.count("repair.recarved_vertices", len(region))

    if not region:
        return RepairResult(
            decomposition=decomposition,
            dirty_clusters=(),
            recarved_vertices=0,
            readmitted_deleted=0,
            full_rebuild=False,
        )

    with _obs.span("repair.subgraph"):
        sub, mapping = graph.induced_subgraph(region)
        inverse = {i: v for v, i in mapping.items()}
    with _obs.span("repair.recarve"):
        sub_dec = chang_li_ldd(sub, params, seed=seed)

    clusters = [set(decomposition.clusters[i]) for i in clean]
    clusters.extend(
        {inverse[i] for i in cluster} for cluster in sub_dec.clusters
    )
    deleted = {
        v
        for v in decomposition.deleted
        if v not in region
    } | {inverse[i] for i in sub_dec.deleted}
    repaired = Decomposition(
        clusters=clusters,
        deleted=deleted,
        centers=[None] * len(clusters),
        ledger=sub_dec.ledger,
    )
    if validate:
        from repro.graphs.metrics import validate_partition

        validate_partition(graph, repaired.clusters, repaired.deleted)
    return RepairResult(
        decomposition=repaired,
        dirty_clusters=tuple(sorted(dirty)),
        recarved_vertices=len(region),
        readmitted_deleted=len(readmitted),
        full_rebuild=len(region) == graph.n,
    )
