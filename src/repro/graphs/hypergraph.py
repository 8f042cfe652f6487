"""Hypergraphs modelling packing/covering ILPs (Definition 1.3).

Given an ILP instance ``(A, b, w)``, the associated hypergraph ``H`` has
one vertex per variable and one hyperedge per constraint, containing the
variables with non-zero coefficient.  The LOCAL model on a hypergraph
lets a vertex talk to every vertex it shares a hyperedge with, so all
distance computations happen in the *primal graph* (two vertices
adjacent when they co-occur in a hyperedge).
"""

from __future__ import annotations

from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.graphs.graph import Graph
from repro.util.validation import check_vertex, require


class Hypergraph:
    """Hypergraph on vertices ``0..n-1`` with hyperedges as frozensets.

    Empty hyperedges are rejected; singleton hyperedges are allowed
    (they model constraints touching one variable).  Duplicate hyperedges
    are kept — distinct constraints may have identical support.
    """

    __slots__ = ("n", "_edges", "_incidence", "_primal")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        require(n >= 0, f"n must be non-negative, got {n}")
        self.n = n
        edge_list: List[FrozenSet[int]] = []
        incidence: List[List[int]] = [[] for _ in range(n)]
        for idx, edge in enumerate(edges):
            members = frozenset(check_vertex("member", v, n) for v in edge)
            require(len(members) > 0, f"hyperedge {idx} is empty")
            edge_list.append(members)
            for v in members:
                incidence[v].append(len(edge_list) - 1)
        self._edges: Tuple[FrozenSet[int], ...] = tuple(edge_list)
        self._incidence: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in incidence
        )
        self._primal: Optional[Graph] = None

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of hyperedges."""
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Tuple[FrozenSet[int], ...]:
        return self._edges

    def edge(self, j: int) -> FrozenSet[int]:
        return self._edges[j]

    def incident_edges(self, v: int) -> Tuple[int, ...]:
        """Indices of hyperedges containing ``v``."""
        return self._incidence[v]

    def rank(self) -> int:
        """Maximum hyperedge size."""
        return max((len(e) for e in self._edges), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypergraph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------
    # Primal graph and distances
    # ------------------------------------------------------------------
    def primal_graph(self) -> Graph:
        """Graph with an edge between every pair sharing a hyperedge.

        A round of LOCAL communication on the hypergraph is exactly one
        round on this graph, so all neighborhoods/balls below delegate
        to it.  Cached after first construction.
        """
        if self._primal is None:
            pairs: Set[Tuple[int, int]] = set()
            for members in self._edges:
                ms = sorted(members)
                for i, u in enumerate(ms):
                    for w in ms[i + 1:]:
                        pairs.add((u, w))
            self._primal = Graph(self.n, pairs)
        return self._primal

    def ball(self, center: int, radius: int) -> Set[int]:
        return self.primal_graph().ball(center, radius)

    def ball_of_set(self, centers: Iterable[int], radius: int) -> Set[int]:
        return self.primal_graph().ball_of_set(centers, radius)

    def bfs_layers(
        self, sources: Iterable[int], radius: Optional[int] = None
    ) -> List[Set[int]]:
        return self.primal_graph().bfs_layers(sources, radius)

    def connected_components(
        self, within: Optional[Iterable[int]] = None
    ) -> List[Set[int]]:
        return self.primal_graph().connected_components(within)

    # ------------------------------------------------------------------
    # Edge/vertex classification helpers used by the algorithms
    # ------------------------------------------------------------------
    def edges_inside(self, subset: Set[int]) -> List[int]:
        """Hyperedge indices fully contained in ``subset``."""
        return [j for j, e in enumerate(self._edges) if e <= subset]

    def edges_touching(self, subset: Set[int]) -> List[int]:
        """Hyperedge indices intersecting ``subset``."""
        touched: Set[int] = set()
        for v in subset:
            touched.update(self._incidence[v])
        return sorted(touched)

    def restrict_edges(self, keep: Iterable[int]) -> "Hypergraph":
        """Sub-hypergraph with only the hyperedges indexed by ``keep``
        (same vertex set)."""
        keep_list = sorted(set(keep))
        return Hypergraph(self.n, [self._edges[j] for j in keep_list])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph_edges(cls, graph: Graph) -> "Hypergraph":
        """One hyperedge per graph edge (e.g. MIS / vertex-cover ILPs)."""
        return cls(graph.n, [set(e) for e in graph.edges()])
