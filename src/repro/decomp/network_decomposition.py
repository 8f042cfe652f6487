"""(C, D) network decompositions: structure and validation.

A ``(C, D)`` network decomposition partitions the vertex set into
clusters of (weak) diameter at most ``D``, each colored from
``{1..C}`` so that no two adjacent clusters share a color (Section
1.2).  The GKM17 baseline computes one on the power graph ``G^{2k}``
and processes color classes sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.util.validation import require


@dataclass
class NetworkDecomposition:
    """Clusters with colors; ``colors[i]`` is the color of ``clusters[i]``."""

    clusters: List[Set[int]]
    colors: List[int]
    ledger: RoundLedger = field(default_factory=RoundLedger)

    def __post_init__(self) -> None:
        require(
            len(self.clusters) == len(self.colors),
            "one color per cluster required",
        )

    @property
    def num_colors(self) -> int:
        return max(self.colors, default=0)

    def clusters_of_color(self, color: int) -> List[Set[int]]:
        return [
            c
            for c, col in zip(self.clusters, self.colors, strict=True)
            if col == color
        ]

    def max_weak_diameter(self, graph: Graph) -> float:
        csr = graph.csr()
        return max((csr.weak_diameter(c) for c in self.clusters), default=0.0)


def validate_network_decomposition(
    graph: Graph, nd: NetworkDecomposition
) -> None:
    """Assert the decomposition is a proper colored partition.

    Checks: clusters partition ``V``; no edge joins two same-color
    clusters.  Raises ``AssertionError`` on the first violation.
    """
    owner: Dict[int, int] = {}
    for idx, cluster in enumerate(nd.clusters):
        require(bool(cluster), f"cluster {idx} is empty")
        for v in cluster:
            if v in owner:
                raise AssertionError(
                    f"vertex {v} is in clusters {owner[v]} and {idx}"
                )
            owner[v] = idx
    if len(owner) != graph.n:
        raise AssertionError(
            f"decomposition covers {len(owner)}/{graph.n} vertices"
        )
    for u, v in graph.edges():
        cu, cv = owner[u], owner[v]
        if cu != cv and nd.colors[cu] == nd.colors[cv]:
            raise AssertionError(
                f"edge ({u},{v}) joins same-color clusters {cu},{cv}"
            )
