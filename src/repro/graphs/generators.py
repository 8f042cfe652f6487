"""Seeded graph generators for workloads and tests.

All generators return :class:`repro.graphs.graph.Graph` and take an
explicit RNG (or seed) so every experiment is reproducible.  The
families here are the ones the paper's motivating problems live on:
bounded-degree networks (random regular), sparse random networks
(Erdős–Rényi), meshes (grids/tori), low-diameter trees, and rings.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.util.rng import RngStream, ensure_rng
from repro.util.validation import require


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices ``0 - 1 - ... - (n-1)``."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices (array-backed construction)."""
    require(n >= 3, f"cycle needs n >= 3, got {n}")
    us = np.arange(n, dtype=np.int64)
    return Graph.from_edge_arrays(n, us, (us + 1) % n)


def complete_graph(n: int) -> Graph:
    """Clique ``K_n``."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star: center 0 joined to ``n - 1`` leaves."""
    require(n >= 1, f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """``K_{a,b}`` with left part ``0..a-1`` and right part ``a..a+b-1``."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int, torus: bool = False) -> Graph:
    """2-D grid (optionally wrapped into a torus).

    Array-backed: edge arrays are assembled with numpy index grids so a
    ~10^5-vertex mesh no longer pays a per-edge Python loop.  Wrap
    edges are skipped along a dimension of size <= 2 (they would
    duplicate existing edges), matching the historical behaviour.
    """
    require(rows >= 1 and cols >= 1, "grid needs positive dimensions")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    us = [idx[:, :-1], idx[:-1, :]]
    vs = [idx[:, 1:], idx[1:, :]]
    if torus and cols > 2:
        us.append(idx[:, -1])
        vs.append(idx[:, 0])
    if torus and rows > 2:
        us.append(idx[-1, :])
        vs.append(idx[0, :])
    return Graph.from_edge_arrays(
        rows * cols,
        np.concatenate([a.ravel() for a in us]),
        np.concatenate([a.ravel() for a in vs]),
    )


def balanced_tree(branching: int, height: int) -> Graph:
    """Complete ``branching``-ary tree of the given ``height``."""
    require(branching >= 1, "branching must be >= 1")
    require(height >= 0, "height must be >= 0")
    edges: List[Tuple[int, int]] = []
    frontier = [0]
    next_id = 1
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph(next_id, edges)


def random_tree(n: int, rng: Optional[RngStream] = None) -> Graph:
    """Uniform random labelled tree via a random Prüfer-like attachment."""
    rng = ensure_rng(rng)
    require(n >= 1, f"tree needs n >= 1, got {n}")
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return Graph(n, edges)


def erdos_renyi(n: int, p: float, rng: Optional[RngStream] = None) -> Graph:
    """G(n, p) random graph."""
    rng = ensure_rng(rng)
    require(0.0 <= p <= 1.0, f"p must be in [0,1], got {p}")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def erdos_renyi_connected(
    n: int, p: float, rng: Optional[RngStream] = None, max_tries: int = 200
) -> Graph:
    """G(n, p) conditioned on connectivity (rejection sampling).

    Falls back to patching components with random edges if rejection
    fails repeatedly (keeps the generator total for small ``p``).
    """
    rng = ensure_rng(rng)
    g = erdos_renyi(n, p, rng)
    for _ in range(max_tries):
        if len(g.connected_components()) <= 1:
            return g
        g = erdos_renyi(n, p, rng)
    components = g.connected_components()
    extra = []
    reps = [min(c) for c in components]
    for i in range(1, len(reps)):
        extra.append((reps[i - 1], reps[i]))
    return Graph(n, list(g.edges()) + extra)


def random_regular(n: int, d: int, rng: Optional[RngStream] = None) -> Graph:
    """Random ``d``-regular simple graph.

    Small degrees (d <= 3) use the pairing model with rejection (O(1)
    expected retries); larger degrees delegate to networkx's generator
    — the pairing model's success probability decays like
    ``exp(-(d²-1)/4)`` and becomes impractical beyond d ≈ 4.
    Deterministic given ``rng``.
    """
    rng = ensure_rng(rng)
    require(n * d % 2 == 0, f"n*d must be even, got n={n}, d={d}")
    require(0 <= d < n, f"need 0 <= d < n, got d={d}, n={n}")
    if d == 0:
        return Graph(n, [])
    if d > 3:
        import networkx as nx

        seed = int(rng.integers(0, 2**31 - 1))
        return Graph.from_networkx(nx.random_regular_graph(d, n, seed=seed))
    for _ in range(2000):
        # Fresh sorted stubs each attempt: shuffle draws the same swap
        # indices regardless of content, so this consumes the RNG stream
        # exactly as the historical list-based implementation did.
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        u, w = stubs[0::2], stubs[1::2]
        if bool((u == w).any()):
            continue
        lo = np.minimum(u, w)
        hi = np.maximum(u, w)
        if np.unique(lo * n + hi).size != lo.size:
            continue
        return Graph.from_edge_arrays(n, lo, hi)
    raise RuntimeError(f"failed to sample a {d}-regular graph on {n} vertices")


def random_bipartite_regular(
    half: int, d: int, rng: Optional[RngStream] = None
) -> Graph:
    """Random ``d``-regular bipartite graph with ``half`` vertices a side.

    Union of ``d`` random perfect matchings between the sides, resampled
    until simple.  Bipartite regular graphs are the "case 1" instances
    of the Appendix B lower bound (maximum independent set = n/2).
    """
    rng = ensure_rng(rng)
    require(0 <= d <= half, f"need 0 <= d <= half, got d={d}, half={half}")
    for _ in range(2000):
        pairs = set()
        ok = True
        for _ in range(d):
            perm = rng.permutation(half)
            for i in range(half):
                e = (i, half + int(perm[i]))
                if e in pairs:
                    ok = False
                    break
                pairs.add(e)
            if not ok:
                break
        if ok:
            return Graph(2 * half, pairs)
    raise RuntimeError("failed to sample a simple bipartite regular graph")


def _geometric_edges_blocked(
    xs: np.ndarray, ys: np.ndarray, r2: float
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs within radius by blocked O(n²) pairwise distances.

    The reference enumeration: row blocks of bounded memory, the same
    float64 ``dx·dx + dy·dy <= r²`` predicate per pair as the original
    scalar loop.  Kept as the small-n / large-radius path and as the
    property-test oracle for the cell-grid scan.
    """
    n = len(xs)
    block = max(1, (4 << 20) // max(1, n))  # ~32 MB of float64 scratch
    us_parts: List[np.ndarray] = []
    vs_parts: List[np.ndarray] = []
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        # Columns start at lo: pairs with j < lo were already evaluated
        # from j's own row block, so the lower triangle is never built.
        dx = xs[lo:hi, None] - xs[None, lo:]
        dy = ys[lo:hi, None] - ys[None, lo:]
        within = dx * dx + dy * dy <= r2
        # keep each pair once, oriented i < j
        i_idx, j_idx = np.nonzero(within)
        i_idx += lo
        j_idx += lo
        keep = i_idx < j_idx
        us_parts.append(i_idx[keep])
        vs_parts.append(j_idx[keep])
    if not us_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(us_parts), np.concatenate(vs_parts)


#: Cell pair offsets covering every unordered pair of touching cells
#: exactly once: the cell itself, east, north, north-east, south-east.
_CELL_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))

#: :func:`random_geometric` uses the cell-grid scan at and above this
#: point count, with a grid of at least ``_CELL_MIN_GRID`` cells per
#: side and an average cell occupancy of at most ``_CELL_MAX_LOAD``
#: (a coarse grid over many points degenerates toward all-pairs, where
#: the blocked kernel's fixed memory blocks win).  Both paths produce
#: identical edge sets — tests force each explicitly.
_CELL_MIN_POINTS = 512
_CELL_MIN_GRID = 4
_CELL_MAX_LOAD = 64

#: Candidate pairs flattened per batch by the cell scan (~32 MB of
#: int64 scratch) — the cells counterpart of the blocked row blocks.
_CELL_BATCH_CANDIDATES = 4 << 20


def _geometric_edges_cells(
    xs: np.ndarray, ys: np.ndarray, radius: float, r2: float
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs within radius by an O(n)-expected neighbor-cell scan.

    Points are hashed into a grid of cells of side ``>= radius``, so
    any pair within ``radius`` lies in the same or in touching cells;
    enumerating each touching cell pair once (:data:`_CELL_OFFSETS`)
    and distance-testing the cross pairs visits O(1) expected
    candidates per point at benchmark densities — against the blocked
    scan's n²/2.  The per-pair predicate is the identical float64
    ``dx·dx + dy·dy <= r²`` (squaring makes the sign of the difference
    irrelevant), so the edge set matches the blocked enumeration
    exactly for any draw of positions.
    """
    n = len(xs)
    ncells = max(1, int(1.0 / radius)) if radius < 1.0 else 1
    cell_x = np.minimum((xs * ncells).astype(np.int64), ncells - 1)
    cell_y = np.minimum((ys * ncells).astype(np.int64), ncells - 1)
    cell_id = cell_x * ncells + cell_y
    order = np.argsort(cell_id, kind="stable")
    occupied, starts, counts = np.unique(
        cell_id[order], return_index=True, return_counts=True
    )
    us_parts: List[np.ndarray] = []
    vs_parts: List[np.ndarray] = []
    for dx_cell, dy_cell in _CELL_OFFSETS:
        if dx_cell == 0 and dy_cell == 0:
            a_pos = np.arange(len(occupied), dtype=np.int64)
            b_pos = a_pos
        else:
            # Valid only where the shifted cell stays on the grid (the
            # y coordinate wraps inside the flat id otherwise).
            a_keep = np.ones(len(occupied), dtype=bool)
            cy = occupied % ncells
            if dy_cell > 0:
                a_keep &= cy + dy_cell < ncells
            elif dy_cell < 0:
                a_keep &= cy + dy_cell >= 0
            neighbor = occupied + dx_cell * ncells + dy_cell
            b_pos = np.searchsorted(occupied, neighbor)
            found = (b_pos < len(occupied)) & a_keep
            found &= occupied[np.minimum(b_pos, len(occupied) - 1)] == neighbor
            a_pos = np.nonzero(found)[0]
            b_pos = b_pos[found]
        ka, kb = counts[a_pos], counts[b_pos]
        totals = ka * kb
        if int(totals.sum()) == 0:
            continue
        # Flatten the (cell a, cell b) cross products in candidate-count
        # bounded batches — within pair p, candidate t decomposes as
        # (t // kb, t % kb).  Batching keeps the scratch arrays at the
        # same ~tens-of-MB scale as the blocked kernel's row blocks even
        # when a coarse grid concentrates thousands of points per cell.
        batch_edges = np.cumsum(totals)
        budget = _CELL_BATCH_CANDIDATES
        cuts = [0]
        while cuts[-1] < len(totals):
            consumed = batch_edges[cuts[-1] - 1] if cuts[-1] else 0
            nxt = int(np.searchsorted(batch_edges, consumed + budget, "left"))
            cuts.append(max(nxt, cuts[-1] + 1))
        for lo, hi in itertools.pairwise(cuts):
            tot = totals[lo:hi]
            grand = int(tot.sum())
            if grand == 0:
                continue
            offsets = np.concatenate(([0], np.cumsum(tot)))[:-1]
            t = np.arange(grand, dtype=np.int64) - np.repeat(offsets, tot)
            kb_rep = np.repeat(kb[lo:hi], tot)
            left = order[np.repeat(starts[a_pos[lo:hi]], tot) + t // kb_rep]
            right = order[np.repeat(starts[b_pos[lo:hi]], tot) + t % kb_rep]
            if dx_cell == 0 and dy_cell == 0:
                keep = left < right  # within-cell: each unordered pair once
                left, right = left[keep], right[keep]
            dx = xs[left] - xs[right]
            dy = ys[left] - ys[right]
            within = dx * dx + dy * dy <= r2
            us_parts.append(left[within])
            vs_parts.append(right[within])
    if not us_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(us_parts), np.concatenate(vs_parts)


def random_geometric(
    n: int,
    radius: float,
    rng: Optional[RngStream] = None,
    connect: bool = True,
) -> Graph:
    """Random geometric (unit-disk) graph on the unit square.

    The standard wireless-network topology model: vertices at uniform
    positions, edges between pairs within ``radius``.  ``connect=True``
    patches disconnected components with an edge between their closest
    representatives (keeps the generator total for benchmark use); the
    patched pair is the distance-minimizing one, ties broken toward the
    lexicographically smallest ``(a, b)`` — a deterministic rule that
    does not depend on set iteration order.

    Pair enumeration is a cell-grid spatial hash at benchmark scale
    (:func:`_geometric_edges_cells`, O(n) expected) and blocked
    pairwise distances below it; both evaluate the identical float64
    predicate per candidate pair, so the edge set is exactly the one
    the historical scalar loop produced for a given draw of positions
    regardless of the path taken.
    """
    rng = ensure_rng(rng)
    require(radius > 0, f"radius must be positive, got {radius}")
    xs = rng.random(n)
    ys = rng.random(n)
    r2 = radius * radius
    ncells = max(1, int(1.0 / radius)) if radius < 1.0 else 1
    if (
        n >= _CELL_MIN_POINTS
        and ncells >= _CELL_MIN_GRID
        and n <= _CELL_MAX_LOAD * ncells * ncells
    ):
        us, vs = _geometric_edges_cells(xs, ys, radius, r2)
    else:
        us, vs = _geometric_edges_blocked(xs, ys, r2)
    g = Graph.from_edge_arrays(n, us, vs)
    if not connect or n == 0:
        return g
    components = g.connected_components()
    if len(components) <= 1:
        return g
    # Iteratively bridge the first two components (ordered by smallest
    # vertex, exactly the discovery order a recomputation would yield).
    components = sorted(components, key=min)
    extra_us: List[int] = []
    extra_vs: List[int] = []
    while len(components) > 1:
        a_idx = np.fromiter(sorted(components[0]), dtype=np.int64)
        b_idx = np.fromiter(sorted(components[1]), dtype=np.int64)
        dx = xs[a_idx, None] - xs[None, b_idx]
        dy = ys[a_idx, None] - ys[None, b_idx]
        d2 = dx * dx + dy * dy
        flat = int(np.argmin(d2))  # row-major: lexicographic (d, a, b) tie-break
        a = int(a_idx[flat // len(b_idx)])
        b = int(b_idx[flat % len(b_idx)])
        extra_us.append(a)
        extra_vs.append(b)
        components[0] = components[0] | components[1]
        del components[1]
    return Graph.from_edge_arrays(
        n,
        np.concatenate([us, np.asarray(extra_us, dtype=np.int64)]),
        np.concatenate([vs, np.asarray(extra_vs, dtype=np.int64)]),
    )


def caterpillar(spine: int, legs: int) -> Graph:
    """Caterpillar tree: a path of length ``spine`` with ``legs`` pendant
    vertices per spine vertex.  Exercises the dominating-set failure mode
    of Section 1.4.3 (one hub with many degree-1 neighbors)."""
    edges: List[Tuple[int, int]] = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, next_id))
            next_id += 1
    return Graph(next_id, edges)


def hub_and_spokes(num_hubs: int, spokes: int) -> Graph:
    """Disjoint stars joined in a path through their centers.

    The Section 1.4.3 example: a vertex adjacent to many degree-one
    vertices, where deleting the hub is catastrophic for covering.
    """
    require(num_hubs >= 1, "need at least one hub")
    edges: List[Tuple[int, int]] = []
    hubs = list(range(num_hubs))
    for i in range(num_hubs - 1):
        edges.append((hubs[i], hubs[i + 1]))
    next_id = num_hubs
    for h in hubs:
        for _ in range(spokes):
            edges.append((h, next_id))
            next_id += 1
    return Graph(next_id, edges)


def standard_families(
    n: int, rng: Optional[RngStream] = None
) -> List[Tuple[str, Graph]]:
    """The benchmark workload suite: one graph per family at scale ~n.

    Returns (name, graph) pairs; used by the E1/E3/E4 benches so every
    experiment sweeps the same families.
    """
    rng = ensure_rng(rng)
    side = max(2, int(math.isqrt(n)))
    even_n = n if (n * 3) % 2 == 0 else n + 1
    return [
        ("random-3-regular", random_regular(even_n, 3, rng)),
        ("erdos-renyi", erdos_renyi_connected(n, min(1.0, 2.5 / max(n - 1, 1)), rng)),
        ("grid", grid_graph(side, side)),
        ("random-tree", random_tree(n, rng)),
    ]
