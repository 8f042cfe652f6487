"""Batched lookup structures over decomposition artifacts."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs as _obs
from repro.util.validation import require


class DecompositionIndex:
    """Flat-array view of a decomposition for vectorized lookups.

    ``labels[v]`` is the cluster id of vertex ``v`` (−1 when deleted/
    unclustered) — exactly the ``labels`` array of an encoded
    decomposition artifact, so building an index from a loaded (even
    mmap-backed) artifact copies nothing.  A cluster-major membership
    CSR is derived lazily on first :meth:`cluster_members` call.
    """

    def __init__(self, labels: np.ndarray, num_clusters: int) -> None:
        self.labels = np.asarray(labels)
        require(self.labels.ndim == 1, "labels must be one-dimensional")
        self.num_clusters = int(num_clusters)
        self._members: Optional[np.ndarray] = None
        self._member_ptr: Optional[np.ndarray] = None

    @classmethod
    def from_artifact(cls, artifact) -> "DecompositionIndex":
        """Index a loaded decomposition artifact (zero-copy)."""
        return cls(
            artifact.arrays["labels"], int(artifact.meta["num_clusters"])
        )

    @classmethod
    def from_decomposition(cls, decomposition, n: int) -> "DecompositionIndex":
        from repro.artifacts.codecs import encode_decomposition

        arrays, meta = encode_decomposition(decomposition, n)
        return cls(arrays["labels"], int(meta["num_clusters"]))

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def point_to_cluster(self, vertices: np.ndarray) -> np.ndarray:
        """Cluster id per queried vertex (−1 for unclustered)."""
        batch = np.asarray(vertices, dtype=np.int64)
        if batch.size:
            require(
                int(batch.min()) >= 0 and int(batch.max()) < self.n,
                "query vertices out of range",
            )
        return self.labels[batch]

    def _membership(self) -> None:
        order = np.argsort(self.labels, kind="stable")
        order = order[self.labels[order] >= 0]
        self._members = order.astype(np.int64)
        counts = np.bincount(
            self.labels[order], minlength=self.num_clusters
        )
        ptr = np.zeros(self.num_clusters + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        self._member_ptr = ptr

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Sorted member vertices of one cluster."""
        require(
            0 <= cluster < self.num_clusters, "cluster id out of range"
        )
        if self._members is None:
            self._membership()
        assert self._member_ptr is not None and self._members is not None
        return self._members[
            self._member_ptr[cluster] : self._member_ptr[cluster + 1]
        ]

    def cluster_sizes(self) -> np.ndarray:
        if self._members is None:
            self._membership()
        assert self._member_ptr is not None
        return np.diff(self._member_ptr)


class QueryService:
    """Graph-aware batched queries against a decomposition index."""

    def __init__(self, graph, index: DecompositionIndex) -> None:
        self.csr = graph.csr() if hasattr(graph, "csr") else graph
        self.index = index
        require(
            self.csr.n == index.n,
            "index and graph disagree on the vertex count",
        )

    def point_to_cluster(self, vertices: np.ndarray) -> np.ndarray:
        """Batched point-to-cluster lookup (−1 for unclustered)."""
        out = self.index.point_to_cluster(vertices)
        _obs.count("serve.point_queries", int(np.asarray(out).size))
        _obs.count("serve.batches")
        return out

    def clusters_within_radius(
        self, sources: np.ndarray, radius: int
    ) -> List[np.ndarray]:
        """Per source: sorted cluster ids reachable within ``radius`` hops.

        One batched BFS over the CSR kernels, capped at ``radius``
        levels; unclustered reachable vertices contribute nothing.  The
        cost is not proportional to the balls: every packed level
        expands all n rows (O(n·W) for W = ⌈sources/64⌉ words), and each
        source's label read scans its whole (n,) distance row.  Only the
        distance write-back scales with the frontier.
        """
        batch = np.asarray(sources, dtype=np.int64)
        dist = self.csr.distances_from(batch, radius=radius)
        out: List[np.ndarray] = []
        for row in dist:
            touched = self.index.labels[row >= 0]
            out.append(np.unique(touched[touched >= 0]))
        _obs.count("serve.radius_queries", int(batch.size))
        _obs.count("serve.batches")
        return out
