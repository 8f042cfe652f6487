"""Dependency-degree estimation for bounded-dependence Chernoff bounds.

The heart of the Theorem 1.1 analysis (Section 1.4.1): for a k-round
LOCAL algorithm, the local outputs of two vertices at distance > 2k are
independent, so the dependency graph of the per-vertex deletion
indicators has maximum degree ``max_v |N^{2k}(v)| − 1``.  The whole
point of the sparsification phases is to drive this quantity below
``O(ε n / log n)`` so Lemma A.3 applies.

This module measures those quantities on concrete graphs/residuals so
tests and benches can check the *premise* of the concentration step,
not only its conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set

from repro.graphs.graph import Graph
from repro.util.validation import require


@dataclass(frozen=True)
class DependencyProfile:
    """Dependency structure of k-round outputs on (a subset of) a graph."""

    radius: int
    max_ball_size: int
    mean_ball_size: float
    n: int

    @property
    def max_dependency_degree(self) -> int:
        """Maximum degree of the dependency graph (ball size minus self)."""
        return max(0, self.max_ball_size - 1)

    def lemma_a3_premise(self, eps: float, ntilde: Optional[int] = None) -> bool:
        """Check ``d <= eps * n / ln(ñ)`` — the Phase-3 requirement."""
        ntilde = ntilde if ntilde is not None else max(self.n, 2)
        return self.max_dependency_degree <= eps * self.n / math.log(ntilde)


def dependency_profile(
    graph: Graph,
    radius: int,
    within: Optional[Set[int]] = None,
) -> DependencyProfile:
    """Measure ``|N^{2·radius}(v)|`` over ``within`` (default: all).

    ``radius`` is the algorithm's round count k; the dependency range
    is 2k (two outputs correlate only when their views overlap).
    """
    require(radius >= 0, f"radius must be >= 0, got {radius}")
    vertices = sorted(within) if within is not None else list(range(graph.n))
    if not vertices:
        return DependencyProfile(
            radius=radius, max_ball_size=0, mean_ball_size=0.0, n=0
        )
    sizes, _ = graph.csr().all_ball_sizes(
        2 * radius, within=within, sources=vertices
    )
    return DependencyProfile(
        radius=radius,
        max_ball_size=int(sizes.max()),
        mean_ball_size=float(sizes.sum()) / len(vertices),
        n=len(vertices),
    )


def sparsification_progress(
    graph: Graph,
    residuals: list,
    radius: int,
) -> list:
    """Dependency profiles across a sequence of residual vertex sets.

    Used to visualize how each Phase-1 iteration shrinks the relevant
    ball sizes (the ``O(n / 2^i)`` trajectory of Section 1.4.1).
    """
    return [
        dependency_profile(graph, radius, within=set(residual))
        for residual in residuals
    ]
