"""Per-op correctness gate: every check raises :class:`CheckFailed`.

The harness counts an op whose check raises (or whose call raised) as a
failed op; nothing is dropped.  Each check recomputes its verdict from
the op's raw output and an independent reference — labels rebuilt from
the decomposition rather than read from the served index, a plain BFS
rather than the batched kernel, the setup optimum rather than anything
the solver reported about itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs import validate_partition
from repro.ilp import MwuProblem, verify_certificate


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def check_partition(graph, decomposition) -> None:
    """LDD/repair output is a partition with mutually non-adjacent
    clusters (Definition 1.4)."""
    try:
        validate_partition(graph, decomposition.clusters, decomposition.deleted)
    except AssertionError as exc:
        raise CheckFailed(f"invalid decomposition: {exc}") from None


def reference_labels(decomposition, n: int) -> np.ndarray:
    """Cluster id per vertex (−1 unclustered), in cluster order."""
    labels = np.full(n, -1, dtype=np.int64)
    for cid, cluster in enumerate(decomposition.clusters):
        for v in cluster:
            labels[v] = cid
    return labels


def check_points(
    labels: np.ndarray,
    batches: Sequence[np.ndarray],
    answers: Sequence[np.ndarray],
) -> None:
    """Every point answer equals the reference label of its vertex."""
    if len(batches) != len(answers):
        raise CheckFailed(f"{len(answers)} point answers for {len(batches)} batches")
    for b, (vertices, answer) in enumerate(zip(batches, answers, strict=True)):
        if not np.array_equal(np.asarray(answer), labels[vertices]):
            raise CheckFailed(f"point batch {b} disagrees with the labels")


def check_radius(
    graph,
    labels: np.ndarray,
    batches: Sequence[np.ndarray],
    radius: int,
    answers: Sequence[Sequence[np.ndarray]],
    sample: int,
) -> None:
    """The first ``sample`` sources of every radius batch reach exactly
    the clusters a reference BFS reaches within ``radius`` hops."""
    if len(batches) != len(answers):
        raise CheckFailed(f"{len(answers)} radius answers for {len(batches)} batches")
    for b, (sources, answer) in enumerate(zip(batches, answers, strict=True)):
        if len(answer) != len(sources):
            raise CheckFailed(f"radius batch {b} has {len(answer)} answers")
        for j in range(min(sample, len(sources))):
            reached = graph.bfs_distances([int(sources[j])], radius)
            found = labels[np.fromiter(reached, dtype=np.int64, count=len(reached))]
            expected = np.unique(found[found >= 0])
            if not np.array_equal(np.asarray(answer[j]), expected):
                raise CheckFailed(f"radius batch {b} source {j} disagrees with BFS")


def check_packing(instance, chosen, opt: float, eps: float) -> float:
    """Feasible and within (1−ε) of the optimum; returns opt/weight."""
    if not instance.is_feasible(set(chosen)):
        raise CheckFailed("packing solution is infeasible")
    weight = instance.weight(chosen)
    if weight < (1.0 - eps) * opt - 1e-9 or weight <= 0:
        raise CheckFailed(f"packing weight {weight} below (1-eps) * {opt}")
    return opt / weight


def check_covering(instance, chosen, opt: float, eps: float) -> float:
    """Feasible and within (1+ε) of the optimum; returns cost/opt."""
    if not instance.is_feasible(set(chosen)):
        raise CheckFailed("covering solution is infeasible")
    cost = instance.weight(chosen)
    if cost > (1.0 + eps) * opt + 1e-9:
        raise CheckFailed(f"covering cost {cost} above (1+eps) * {opt}")
    return cost / opt


def check_certificate(problem: MwuProblem, certificate, eps: float) -> float:
    """The certificate re-verifies from its raw vectors with gap ≤ 1+ε;
    returns the re-derived gap."""
    report = verify_certificate(problem, certificate, require_gap=1.0 + eps)
    if not report.ok:
        raise CheckFailed("certificate rejected: " + "; ".join(report.failures))
    if report.gap > 1.0 + eps + 1e-9:
        raise CheckFailed(f"certified gap {report.gap} above 1+eps")
    return report.gap


def check_rounding(problem: MwuProblem, chosen, weight: float) -> None:
    """The rounded 0/1 solution satisfies ``A·pick ≥ b`` (covering) or
    ``A·pick ≤ b`` (packing) on the problem's own matrix, and its
    reported weight is ``w·pick``."""
    if chosen is None or weight is None:
        raise CheckFailed("no rounded solution")
    index = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    if index.size and (index.min() < 0 or index.max() >= problem.n):
        raise CheckFailed("rounded solution picks a variable out of range")
    pick = np.zeros(problem.n)
    pick[index] = 1.0
    load = problem.matrix @ pick
    tol = 1e-9 * np.maximum(1.0, problem.bounds)
    if problem.kind == "covering":
        short = np.flatnonzero(load < problem.bounds - tol)
        if short.size:
            raise CheckFailed(f"rounded cover leaves {short.size} rows uncovered")
    else:
        over = np.flatnonzero(load > problem.bounds + tol)
        if over.size:
            raise CheckFailed(f"rounded packing overfills {over.size} rows")
    expected = float(problem.weights @ pick)
    if not np.isclose(weight, expected, rtol=1e-12, atol=1e-9):
        raise CheckFailed(f"rounded weight {weight} is not w·pick = {expected}")
