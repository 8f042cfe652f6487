"""Undirected graph data structure used throughout the library.

The LOCAL model simulator, decomposition algorithms and ILP constructors
all operate on this class.  Vertices are integers ``0..n-1``.  The class
is intentionally small and predictable: adjacency lists of sorted
tuples, BFS-based distance primitives, induced subgraphs with explicit
relabelling maps, and power graphs (needed by the GKM17 baseline and the
Section 1.6 blackbox construction).

``networkx`` interoperability is provided for cross-validation in tests
but no algorithm in the library depends on it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.util.validation import check_int_array, check_vertex, require


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges are collapsed.
    """

    __slots__ = ("n", "_adj", "_edges", "_frozen_edge_set", "_csr")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        require(n >= 0, f"n must be non-negative, got {n}")
        self.n = n
        self._csr = None
        adj: List[Set[int]] = [set() for _ in range(n)]
        edge_set: Set[Tuple[int, int]] = set()
        for u, v in edges:
            u = check_vertex("u", u, n)
            v = check_vertex("v", v, n)
            require(u != v, f"self-loop at vertex {u} is not allowed")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in edge_set:
                continue
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors)) for neighbors in adj
        )
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(edge_set))
        self._frozen_edge_set: FrozenSet[Tuple[int, int]] = frozenset(edge_set)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self._frozen_edge_set

    def csr(self):
        """The cached :class:`~repro.graphs.csr.CsrGraph` view.

        Built lazily on first use; the graph is immutable, so the CSR
        arrays stay valid for its lifetime.
        """
        if self._csr is None:
            from repro.graphs.csr import CsrGraph

            self._csr = CsrGraph(self)
        return self._csr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    # ------------------------------------------------------------------
    # BFS primitives
    # ------------------------------------------------------------------
    def bfs_distances(
        self,
        sources: Iterable[int],
        radius: Optional[int] = None,
        within: Optional[Iterable[int]] = None,
    ) -> Dict[int, int]:
        """Distances from the nearest vertex of ``sources``.

        Only vertices within ``radius`` hops (all reachable vertices when
        ``radius`` is ``None``) appear in the result.  Multi-source BFS:
        ``dist[v] = min over s in sources of dist(s, v)``.  ``within``
        restricts the search to the subgraph it induces (sources outside
        it are dropped).  This is the reference that
        :meth:`~repro.graphs.csr.CsrGraph.bfs_distances` and the gathers
        built on it are tested against.
        """
        allowed = None if within is None else set(within)
        dist: Dict[int, int] = {}
        queue: deque[int] = deque()
        for s in sources:
            if s not in dist and (allowed is None or s in allowed):
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            d = dist[u]
            if radius is not None and d >= radius:
                continue
            for w in self._adj[u]:
                if w not in dist and (allowed is None or w in allowed):
                    dist[w] = d + 1
                    queue.append(w)
        return dist

    def ball(self, center: int, radius: int) -> Set[int]:
        """The ``radius``-radius neighborhood ``N^r(center)`` (inclusive)."""
        return set(self.bfs_distances([center], radius))

    def ball_of_set(self, centers: Iterable[int], radius: int) -> Set[int]:
        """``N^r(S)`` — vertices within ``radius`` of any center."""
        return set(self.bfs_distances(centers, radius))

    def bfs_layers(
        self, sources: Iterable[int], radius: Optional[int] = None
    ) -> List[Set[int]]:
        """BFS layers ``[S_0, S_1, ...]`` with ``S_j`` = vertices at distance j."""
        dist = self.bfs_distances(sources, radius)
        if not dist:
            return []
        depth = max(dist.values())
        layers: List[Set[int]] = [set() for _ in range(depth + 1)]
        for v, d in dist.items():
            layers[d].add(v)
        return layers

    def distance(self, u: int, v: int) -> float:
        """Hop distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        dist = self.bfs_distances([u])
        return dist.get(v, float("inf"))

    def eccentricity(self, v: int) -> float:
        """Maximum distance from ``v`` to any reachable vertex; ``inf`` when
        the graph is disconnected (taken over all vertices)."""
        dist = self.bfs_distances([v])
        if len(dist) < self.n:
            return float("inf")
        return max(dist.values(), default=0)

    def diameter(self) -> float:
        """Graph diameter (``inf`` when disconnected, 0 when n <= 1)."""
        if self.n == 0:
            return 0
        best = 0.0
        for v in range(self.n):
            ecc = self.eccentricity(v)
            if ecc == float("inf"):
                return float("inf")
            best = max(best, ecc)
        return best

    # ------------------------------------------------------------------
    # Components and subgraphs
    # ------------------------------------------------------------------
    def connected_components(
        self, within: Optional[Iterable[int]] = None
    ) -> List[Set[int]]:
        """Connected components, optionally of the subgraph induced by
        ``within`` (components computed using only edges inside it)."""
        if within is None:
            allowed: Optional[Set[int]] = None
            universe: Iterable[int] = range(self.n)
        else:
            allowed = set(within)
            universe = sorted(allowed)
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in universe:
            if start in seen:
                continue
            comp = {start}
            seen.add(start)
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w in seen:
                        continue
                    if allowed is not None and w not in allowed:
                        continue
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
            components.append(comp)
        return components

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping`` sends original
        labels to subgraph labels ``0..k-1`` (sorted order).  Built on
        the CSR arrays: the kept vertices' neighbor segments are gathered
        in one pass and relabelled through an (n,) array, and the edges
        that land inside the subset with ``u < w`` are already the
        subgraph's sorted edge list.
        """
        vs = sorted(set(vertices))
        mapping = {v: i for i, v in enumerate(vs)}
        keep = check_int_array("vertices", vs)
        require(
            not keep.size or (int(keep[0]) >= 0 and int(keep[-1]) < self.n),
            "induced subgraph vertices out of range",
        )
        csr = self.csr()
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[keep] = np.arange(keep.size, dtype=np.int64)
        tails = relabel[csr._neighbors_of(keep)]
        heads = np.repeat(
            np.arange(keep.size, dtype=np.int64), csr.degrees[keep]
        )
        inside = tails > heads
        sub = Graph.from_edge_arrays(keep.size, heads[inside], tails[inside])
        return sub, mapping

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def power(self, k: int) -> "Graph":
        """The k-th power graph ``G^k``: edge when ``1 <= dist <= k``.

        The pure-Python reference for
        :meth:`~repro.graphs.csr.CsrGraph.power`, which the algorithms
        call.
        """
        require(k >= 1, f"power k must be >= 1, got {k}")
        edges: List[Tuple[int, int]] = []
        for v in range(self.n):
            for u, d in self.bfs_distances([v], k).items():
                if 0 < d and v < u:
                    edges.append((v, u))
        return Graph(self.n, edges)

    def weak_diameter(self, subset: Iterable[int]) -> float:
        """Weak diameter: ``max_{u,v in subset} dist_G(u, v)`` measured in
        the *full* graph (Definition 1.4)."""
        vs = sorted(set(subset))
        if len(vs) <= 1:
            return 0
        best = 0.0
        for v in vs:
            dist = self.bfs_distances([v])
            for u in vs:
                d = dist.get(u, float("inf"))
                if d == float("inf"):
                    return float("inf")
                best = max(best, d)
        return best

    def strong_diameter(self, subset: Iterable[int]) -> float:
        """Strong diameter: diameter of the induced subgraph ``G[subset]``."""
        sub, _ = self.induced_subgraph(subset)
        return sub.diameter()

    def girth(self, upper_bound: Optional[int] = None) -> float:
        """Length of the shortest cycle (``inf`` for forests).

        BFS from every vertex; a non-tree edge seen at depth d closes a
        cycle of length at most ``2d + 1``.  ``upper_bound`` allows early
        exit once a cycle at most that long is ruled in.
        """
        best = float("inf")
        for root in range(self.n):
            dist = {root: 0}
            parent = {root: -1}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                if 2 * dist[u] >= best - 1:
                    continue
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif parent[u] != w:
                        cycle = dist[u] + dist[w] + 1
                        if cycle < best:
                            best = cycle
            if upper_bound is not None and best <= upper_bound:
                return best
        return best

    def is_bipartite(self) -> bool:
        """Two-colorability check via BFS."""
        color: Dict[int, int] = {}
        for start in range(self.n):
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True

    def is_regular(self) -> bool:
        degrees = {len(a) for a in self._adj}
        return len(degrees) <= 1

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for cross-validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edges)
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a networkx graph with integer-convertible labels.

        Integer-convertible labels are relabelled in *numeric* order
        (``2 < 10 < 30``, not the lexicographic ``"10" < "2" < "30"``),
        so a path ``2–10–30`` imports as the path ``0–1–2``; labels
        ``0..n-1`` map to themselves.  Other labels are relabelled by
        ``repr`` order.
        """
        nodes = list(nxg.nodes())
        try:
            numeric = sorted(nodes, key=lambda v: (int(v), repr(v)))
        except (TypeError, ValueError):
            numeric = None
        if numeric is not None and [int(v) for v in numeric] == list(
            range(len(nodes))
        ):
            mapping = {v: int(v) for v in nodes}
        elif numeric is not None:
            mapping = {v: i for i, v in enumerate(numeric)}
        else:
            mapping = {v: i for i, v in enumerate(sorted(nodes, key=repr))}
        edges = [(mapping[u], mapping[v]) for u, v in nxg.edges()]
        return cls(len(nodes), edges)

    @classmethod
    def from_edge_arrays(cls, n: int, us, vs) -> "Graph":
        """Build from endpoint arrays in bulk (the array constructor).

        ``us``/``vs`` hold integer endpoints in any order and
        orientation.  Each edge is oriented ``u < v`` and keyed
        ``u * n + v``; the keys are sorted and deduplicated (skipped
        when they already increase strictly), with out-of-range
        endpoints, non-integral values and self-loops rejected.  The
        one sorted key array then yields ``_edges``, the ``_adj`` tuples
        and the CSR arrays that :meth:`csr` returns, with no per-edge
        validation loop and no per-vertex CSR rebuild.
        """
        from repro.graphs.csr import CsrGraph

        require(n >= 0, f"n must be non-negative, got {n}")
        us = check_int_array("edge endpoints", us).ravel()
        vs = check_int_array("edge endpoints", vs).ravel()
        require(us.shape == vs.shape, "endpoint arrays must have equal length")
        if us.size:
            require(
                int(min(us.min(), vs.min())) >= 0
                and int(max(us.max(), vs.max())) < n,
                "edge endpoints out of range",
            )
            require(not bool((us == vs).any()), "self-loops are not allowed")
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        key = lo * n + hi
        if key.size > 1 and not bool((key[1:] > key[:-1]).all()):
            # Sort and drop repeats (np.unique takes ~20x longer here).
            key = np.sort(key)
            fresh = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=fresh[1:])
            key = key[fresh]
            lo, hi = np.divmod(key, n)
        graph = object.__new__(cls)
        graph.n = n
        # Both orientations sorted by (head, tail) are the CSR rows.
        arcs = np.sort(np.concatenate((key, hi * n + lo)))
        indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        indptr = indptr.astype(np.int64, copy=False)
        tails = np.remainder(arcs, max(n, 1), out=arcs)
        graph._csr = CsrGraph._from_arrays(indptr, tails)
        edges = tuple(zip(lo.tolist(), hi.tolist(), strict=True))
        graph._edges = edges
        graph._frozen_edge_set = frozenset(edges)
        flat = tuple(tails.tolist())
        bounds = indptr.tolist()
        graph._adj = tuple(
            [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:], strict=True)]
        )
        return graph

    @classmethod
    def from_edges(cls, edges: Sequence[Tuple[int, int]]) -> "Graph":
        """Build with ``n`` inferred as ``max vertex + 1``."""
        n = 0
        for u, v in edges:
            n = max(n, u + 1, v + 1)
        return cls(n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        edges = list(self._edges)
        edges.extend((u + self.n, v + self.n) for u, v in other._edges)
        return Graph(self.n + other.n, edges)
