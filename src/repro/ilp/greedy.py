"""Greedy baselines for packing and covering instances.

The experiments use these as quality references on instances too large
for exact solving, as warm starts for the branch-and-bound solvers, and
as the trivially-local comparison points in the round-complexity plots
(greedy is sequential, so its appearance in benchmarks is purely as an
objective-value baseline, not a LOCAL algorithm).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.ilp.instance import (
    FEASIBILITY_TOL,
    CoveringInstance,
    PackingInstance,
    entries_by_line,
)


def greedy_packing(instance: PackingInstance) -> Set[int]:
    """Insert variables in decreasing weight while feasibility allows.

    Runs in O(n log n + nnz); produces a maximal feasible solution.
    """
    usage = [0.0] * instance.m
    rows = entries_by_line(instance.columns)
    chosen: Set[int] = set()
    bounds = instance.bounds.tolist()
    for v in sorted(range(instance.n), key=lambda v: -instance.weights[v]):
        if instance.weights[v] <= 0:
            continue
        entries = rows[v]
        if all(usage[j] + c <= bounds[j] + FEASIBILITY_TOL for j, c in entries):
            chosen.add(v)
            for j, c in entries:
                usage[j] += c
    return chosen


def greedy_mis(graph: Graph, weights: Optional[Sequence[float]] = None) -> Set[int]:
    """Minimum-degree greedy independent set (weighted: weight/degree)."""
    w = [1.0] * graph.n if weights is None else list(weights)
    alive = set(range(graph.n))
    degree = {v: graph.degree(v) for v in alive}
    chosen: Set[int] = set()
    while alive:
        v = max(alive, key=lambda u: (w[u] / (degree[u] + 1.0), -u))
        chosen.add(v)
        removed = {v} | (set(graph.neighbors(v)) & alive)
        alive -= removed
        for r in removed:
            for u in graph.neighbors(r):
                if u in alive:
                    degree[u] -= 1
    return chosen


def greedy_covering(instance: CoveringInstance) -> Set[int]:
    """Classic cost-effectiveness greedy for covering.

    Repeatedly picks the variable minimizing ``weight / residual
    coverage``; ln(m)-approximate for set cover and a safe upper bound
    everywhere.  Raises ``ValueError`` on unsatisfiable instances.
    """
    deficits = instance.bounds.tolist()
    rows = entries_by_line(instance.columns)
    chosen: Set[int] = set()
    candidates = {v for v, entries in enumerate(rows) if entries}

    def gain(v: int) -> float:
        return sum(
            min(c, deficits[j]) for j, c in rows[v] if deficits[j] > FEASIBILITY_TOL
        )

    while any(d > FEASIBILITY_TOL for d in deficits):
        best_v = None
        best_score = float("inf")
        for v in candidates - chosen:
            g = gain(v)
            if g <= 0:
                continue
            score = instance.weights[v] / g if instance.weights[v] > 0 else 0.0
            if score < best_score:
                best_score = score
                best_v = v
        if best_v is None:
            raise ValueError("greedy covering stalled: instance unsatisfiable")
        chosen.add(best_v)
        for j, c in rows[best_v]:
            deficits[j] = max(0.0, deficits[j] - c)
    return chosen


def greedy_dominating_set(
    graph: Graph, weights: Optional[Sequence[float]] = None, k: int = 1
) -> Set[int]:
    """Greedy k-distance dominating set (coverage-per-cost rule)."""
    w = [1.0] * graph.n if weights is None else list(weights)
    balls = [graph.ball(v, k) for v in range(graph.n)]
    uncovered = set(range(graph.n))
    chosen: Set[int] = set()
    while uncovered:
        def score(v: int) -> float:
            covered = len(balls[v] & uncovered)
            if covered == 0:
                return float("inf")
            return (w[v] / covered) if w[v] > 0 else 0.0

        v = min(range(graph.n), key=score)
        if not (balls[v] & uncovered):
            raise ValueError("graph has an undominatable vertex")
        chosen.add(v)
        uncovered -= balls[v]
    return chosen


def matching_vertex_cover(graph: Graph) -> Set[int]:
    """2-approximate vertex cover from a greedy maximal matching."""
    cover: Set[int] = set()
    for u, v in graph.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    return cover


def greedy_maximal_matching(graph: Graph) -> Set[Tuple[int, int]]:
    """Greedy maximal matching (1/2-approximate maximum matching)."""
    used: Set[int] = set()
    matching: Set[Tuple[int, int]] = set()
    for u, v in graph.edges():
        if u not in used and v not in used:
            matching.add((u, v))
            used.add(u)
            used.add(v)
    return matching
