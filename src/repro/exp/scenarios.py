"""Declarative scenario registry for the experiment subsystem.

A *scenario* is a named experiment: a parameter grid (graph family ×
algorithm knobs) plus a trial function that runs one seeded trial of
one grid point and returns a flat dict of JSON-serializable metrics.
Registering one is a decorator away:

    @scenario(
        name="ldd-quality",
        description="Theorem 1.1 LDD quality across families and eps",
        grid={"family": ("grid-10x10", "cycle-600"), "eps": (0.4, 0.3)},
        trials=8,
    )
    def _ldd_quality(params, ctx):
        graph = build_family(params["family"], ctx.rng())
        ...
        return {"unclustered_fraction": ..., "within_eps": ...}

The sharded runner (:mod:`repro.exp.runner`) enumerates the grid,
derives one independent :class:`numpy.random.SeedSequence` per
(scenario, params, trial) and fans trials out across worker processes;
the JSONL store (:mod:`repro.exp.store`) persists rows and skips
already-computed trials on rerun.  ``python -m repro.exp list`` shows
everything registered here.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.util.rng import stable_seed_from

TrialFunc = Callable[[Dict[str, Any], "TrialContext"], Dict[str, Any]]


@dataclass
class TrialContext:
    """Per-trial seeding context handed to scenario functions.

    Wraps the trial's private :class:`~numpy.random.SeedSequence`.
    Successive :meth:`spawn`/:meth:`rng` calls yield fresh independent
    streams; since a trial function runs its calls in a fixed order,
    every stream is reproducible from the (root_seed, params, trial)
    triple alone — independent of worker count and execution order.
    """

    seed_seq: np.random.SeedSequence

    def spawn(self, count: int) -> List[np.random.SeedSequence]:
        """``count`` fresh child sequences (pass as ``seed=`` to algorithms)."""
        return self.seed_seq.spawn(count)

    def rng(self) -> np.random.Generator:
        """A fresh independent generator."""
        return np.random.default_rng(self.spawn(1)[0])

    def solve_cache(self):
        """The per-process exact-solver memo (:class:`repro.ilp.SolveCache`).

        Exact local solves are pure functions of the (content-
        fingerprinted) instance and variable subset, so the memo is
        shared across every trial a worker process executes — the
        sharded counterpart of the bench session's ``SolveCache``
        fixture.  Rows stay bit-identical at any worker count because a
        cache hit returns exactly what recomputation would.
        """
        return process_solve_cache()


_PROCESS_SOLVE_CACHE = None


def process_solve_cache():
    """Lazily-created process-wide :class:`repro.ilp.SolveCache`."""
    global _PROCESS_SOLVE_CACHE
    if _PROCESS_SOLVE_CACHE is None:
        from repro.ilp import SolveCache

        _PROCESS_SOLVE_CACHE = SolveCache()
    return _PROCESS_SOLVE_CACHE


@dataclass(frozen=True)
class Scenario:
    """A registered experiment: grid × trial function."""

    name: str
    description: str
    func: TrialFunc
    grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    trials: int = 8
    timeout: Optional[float] = None
    tags: Tuple[str, ...] = ()
    #: Scale scenarios whose single trial saturates the machine through
    #: the chunk-sharded CSR kernels (``kernel_workers``) declare True:
    #: the runner then executes trials one at a time and hands the whole
    #: worker budget to the kernels instead of sharding trials — so
    #: ``trials x kernel_workers`` never oversubscribes (see
    #: ``runner.coordinate_parallelism``).
    prefer_kernel_parallelism: bool = False

    def param_points(
        self, overrides: Optional[Mapping[str, Sequence[Any]]] = None
    ) -> List[Dict[str, Any]]:
        """Cartesian product of the grid, in declared key order.

        ``overrides`` replaces the value list of existing grid keys
        (unknown keys raise — a typo should not silently run the full
        grid).
        """
        grid = {k: tuple(v) for k, v in self.grid.items()}
        for key, values in (overrides or {}).items():
            if key not in grid:
                raise KeyError(
                    f"scenario {self.name!r} has no grid key {key!r} "
                    f"(available: {sorted(grid)})"
                )
            grid[key] = tuple(values)
        points: List[Dict[str, Any]] = [{}]
        for key, values in grid.items():
            points = [{**p, key: v} for p in points for v in values]
        return points

    def __call__(self, params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
        return self.func(params, ctx)


_REGISTRY: Dict[str, Scenario] = {}


def register(scn: Scenario) -> Scenario:
    if scn.name in _REGISTRY:
        raise ValueError(f"scenario {scn.name!r} is already registered")
    _REGISTRY[scn.name] = scn
    return scn


def scenario(
    name: str,
    description: str = "",
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    trials: int = 8,
    timeout: Optional[float] = None,
    tags: Sequence[str] = (),
    prefer_kernel_parallelism: bool = False,
) -> Callable[[TrialFunc], Scenario]:
    """Decorator: register the function as a scenario trial runner."""

    def decorate(func: TrialFunc) -> Scenario:
        doc = (func.__doc__ or "").strip()
        return register(
            Scenario(
                name=name,
                description=description or (doc.splitlines()[0] if doc else ""),
                func=func,
                grid={k: tuple(v) for k, v in (grid or {}).items()},
                trials=trials,
                timeout=timeout,
                tags=tuple(tags),
                prefer_kernel_parallelism=prefer_kernel_parallelism,
            )
        )

    return decorate


def get(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(names()) or '(none)'}"
        ) from None


def names() -> List[str]:
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    return [_REGISTRY[n] for n in names()]


def trial_seed_sequence(
    root_seed: int, params: Dict[str, Any], trial: int
) -> np.random.SeedSequence:
    """The trial's private seed sequence.

    Mirrors ``SeedSequence(root_seed).spawn(...)`` — children are
    addressed directly through ``spawn_key`` so the derivation depends
    only on ``(root_seed, params, trial)``, never on how many trials
    are enumerated, which are already cached, or how many workers run.
    """
    from repro.exp.store import canonical_params

    point_key = stable_seed_from(canonical_params(params).encode("utf-8"))
    return np.random.SeedSequence(root_seed, spawn_key=(point_key, trial))


# ----------------------------------------------------------------------
# Graph family specs ("grid-10x10", "random-3-regular-100000", ...)
# ----------------------------------------------------------------------

_FAMILY_PATTERNS: List[Tuple[re.Pattern, Callable[..., Any]]] = []


def _family(pattern: str):
    def decorate(builder):
        _FAMILY_PATTERNS.append((re.compile(pattern + r"\Z"), builder))
        return builder

    return decorate


@_family(r"grid-(\d+)x(\d+)")
def _f_grid(rng, rows, cols):
    from repro.graphs import grid_graph

    return grid_graph(int(rows), int(cols))


@_family(r"torus-(\d+)x(\d+)")
def _f_torus(rng, rows, cols):
    from repro.graphs import grid_graph

    return grid_graph(int(rows), int(cols), torus=True)


@_family(r"cycle-(\d+)")
def _f_cycle(rng, n):
    from repro.graphs import cycle_graph

    return cycle_graph(int(n))


@_family(r"path-(\d+)")
def _f_path(rng, n):
    from repro.graphs import path_graph

    return path_graph(int(n))


@_family(r"clique-(\d+)")
def _f_clique(rng, n):
    from repro.graphs import complete_graph

    return complete_graph(int(n))


@_family(r"caterpillar-(\d+)x(\d+)")
def _f_caterpillar(rng, spine, legs):
    from repro.graphs import caterpillar

    return caterpillar(int(spine), int(legs))


@_family(r"random-(\d+)-regular-(\d+)")
def _f_regular(rng, d, n):
    from repro.graphs import random_regular

    return random_regular(int(n), int(d), rng)


@_family(r"random-tree-(\d+)")
def _f_tree(rng, n):
    from repro.graphs import random_tree

    return random_tree(int(n), rng)


@_family(r"er-(\d+)")
def _f_er(rng, n):
    from repro.graphs import erdos_renyi_connected

    n = int(n)
    return erdos_renyi_connected(n, min(1.0, 2.5 / max(n - 1, 1)), rng)


@_family(r"hubspokes-(\d+)x(\d+)")
def _f_hub(rng, hubs, spokes):
    from repro.graphs import hub_and_spokes

    return hub_and_spokes(int(hubs), int(spokes))


@_family(r"pockets-(\d+)x(\d+)x(\d+)")
def _f_pockets(rng, num_pockets, pocket, bridge):
    """Cliques ("dense pockets") joined by long bridge paths — the graph
    shape the LDD's Phase 2 exists for (E12a's ablation family)."""
    from repro.graphs import Graph

    num_pockets, pocket, bridge = int(num_pockets), int(pocket), int(bridge)
    edges = []
    offset = 0
    anchors = []
    for _ in range(num_pockets):
        for i in range(pocket):
            for j in range(i + 1, pocket):
                edges.append((offset + i, offset + j))
        anchors.append(offset)
        offset += pocket
    for a, b in itertools.pairwise(anchors):
        prev = a
        for _ in range(bridge):
            edges.append((prev, offset))
            prev = offset
            offset += 1
        edges.append((prev, b))
    return Graph(offset, edges)


@_family(r"geometric-(\d+)")
def _f_geometric(rng, n):
    """Unit-disk graph at constant expected degree (~6: the connectivity
    sweet spot for wireless-topology benchmarks), patched connected."""
    from repro.graphs import random_geometric

    n = int(n)
    radius = math.sqrt(6.0 / (math.pi * max(n, 1)))
    return random_geometric(n, radius, rng, connect=True)


def family_names_help() -> str:
    return (
        "grid-RxC, torus-RxC, cycle-N, path-N, clique-N, caterpillar-SxL, "
        "random-D-regular-N, random-tree-N, er-N, hubspokes-HxS, "
        "pockets-PxSxB, geometric-N"
    )


def build_family(spec: str, rng: np.random.Generator):
    """Build the graph named by a family spec string.

    Random families consume ``rng``; deterministic ones ignore it.
    Known specs: grid-RxC, torus-RxC, cycle-N, path-N, clique-N,
    caterpillar-SxL, random-D-regular-N, random-tree-N, er-N
    (connected G(n, 2.5/(n-1))), hubspokes-HxS.
    """
    for pattern, builder in _FAMILY_PATTERNS:
        match = pattern.match(spec)
        if match:
            return builder(rng, *match.groups())
    raise ValueError(
        f"unknown graph family spec {spec!r}; known: {family_names_help()}"
    )


# ----------------------------------------------------------------------
# First-party scenario registrations
# ----------------------------------------------------------------------


def ldd_diameter_budget(params) -> float:
    """The Lemma 3.2 weak-diameter budget for a parameterization."""
    return 2 * (params.t + 2) * params.interval_length + math.ceil(
        8 * math.log(params.ntilde) / params.phase3_lambda
    )


@scenario(
    name="ldd-quality",
    description="Theorem 1.1 LDD quality: unclustered fraction and weak "
    "diameter vs the (eps, O(log n/eps)) guarantee across graph families",
    grid={
        "family": (
            "grid-10x10",
            "random-3-regular-100",
            "random-tree-100",
            "cycle-600",
            "caterpillar-150x2",
        ),
        "eps": (0.4, 0.3, 0.2),
    },
    trials=8,
)
def _ldd_quality_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import LddParams, chang_li_ldd
    from repro.decomp.quality import summarize_decomposition

    graph_seq, algo_seq = ctx.spawn(2)
    with _obs.span("trial.build_graph"):
        graph = build_family(params["family"], np.random.default_rng(graph_seq))
    ldd_params = LddParams.practical(params["eps"], graph.n)
    with _obs.span("trial.ldd"):
        decomposition = chang_li_ldd(graph, ldd_params, seed=algo_seq)
    with _obs.span("trial.validate"):
        summary = summarize_decomposition(graph, decomposition)
    budget = ldd_diameter_budget(ldd_params)
    return {
        "n": graph.n,
        "m": graph.m,
        "unclustered_fraction": summary.unclustered_fraction,
        "max_weak_diameter": summary.max_weak_diameter,
        "diameter_budget": budget,
        "within_eps": summary.unclustered_fraction <= params["eps"],
        "within_diameter_budget": summary.max_weak_diameter <= budget,
        "num_clusters": summary.num_clusters,
        "effective_rounds": summary.effective_rounds,
    }


@scenario(
    name="ldd-scale",
    description="LDD trial sweep at n = 10^5..3*10^5 plus unit-disk "
    "families (array-backed generators + saturation-aware CSR kernels; "
    "weak-diameter audit skipped at these sizes).  geometric-100000 is "
    "the high-diameter point: the n_v estimate certifies its ~500-hop "
    "max depth in 27 BFS rounds and sweeps no source, so one trial "
    "takes ~12 s on a 2-core container (6.0 s graph build, 5.0 s LDD; "
    "python -m repro.obs trace ldd-scale --set "
    "family=geometric-100000).  The 3-regular points still sweep every "
    "source — prefer_kernel_parallelism hands each trial the whole "
    "worker budget through the chunk-sharded sweep; the timeout covers "
    "the serial worst case",
    grid={
        "family": (
            "random-3-regular-100000",
            "random-3-regular-300000",
            "geometric-30000",
            "geometric-100000",
        ),
        "eps": (0.2,),
    },
    trials=2,
    timeout=7200.0,
    tags=("scale",),
    prefer_kernel_parallelism=True,
)
def _ldd_scale_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import LddParams, chang_li_ldd
    from repro.graphs.metrics import validate_partition

    graph_seq, algo_seq = ctx.spawn(2)
    with _obs.span("trial.build_graph"):
        graph = build_family(params["family"], np.random.default_rng(graph_seq))
    ldd_params = LddParams.practical(params["eps"], graph.n)
    with _obs.span("trial.ldd"):
        decomposition = chang_li_ldd(graph, ldd_params, seed=algo_seq)
    # Full partition audit is O(n + m); the all-pairs weak-diameter
    # sweep is not, so it is the one check skipped at this size.
    with _obs.span("trial.validate"):
        validate_partition(graph, decomposition.clusters, decomposition.deleted)
    fraction = len(decomposition.deleted) / graph.n if graph.n else 0.0
    return {
        "n": graph.n,
        "m": graph.m,
        "unclustered_fraction": fraction,
        "within_eps": fraction <= params["eps"],
        "num_clusters": len(decomposition.clusters),
        "largest_cluster": max(
            (len(c) for c in decomposition.clusters), default=0
        ),
        "effective_rounds": decomposition.ledger.effective_rounds,
    }


@lru_cache(maxsize=None)
def _packing_opt(spec: str) -> float:
    """Exact packing optimum — a pure function of the instance spec, so
    cached per process (trials re-solve it otherwise)."""
    from repro.ilp import solve_packing_exact

    return solve_packing_exact(
        _packing_instance(spec), cache=process_solve_cache()
    ).weight


@lru_cache(maxsize=None)
def _covering_opt_solution(spec: str):
    """Exact covering optimum *solution* (weight + chosen set), cached
    per process — E9b's Lemma C.3 certificate sums multiplicities over
    the optimal chosen set."""
    from repro.ilp import solve_covering_exact

    return solve_covering_exact(
        _covering_instance(spec), cache=process_solve_cache()
    )


def _covering_opt(spec: str) -> float:
    """Exact covering optimum, cached per process like :func:`_packing_opt`."""
    return _covering_opt_solution(spec).weight


def _packing_instance(spec: str):
    from repro.graphs import cycle_graph, erdos_renyi_connected, grid_graph, path_graph
    from repro.ilp import Constraint, PackingInstance, max_independent_set_ilp, max_matching_ilp

    # Fixed construction seeds: the instance is part of the parameter
    # point, so it must be identical across trials and processes.
    match = re.fullmatch(r"mis-cycle-(\d+)", spec)
    if match:
        return max_independent_set_ilp(cycle_graph(int(match.group(1))))
    match = re.fullmatch(r"mis-grid-(\d+)x(\d+)", spec)
    if match:
        return max_independent_set_ilp(
            grid_graph(int(match.group(1)), int(match.group(2)))
        )
    if spec == "mis-er-56":
        return max_independent_set_ilp(
            erdos_renyi_connected(56, 0.07, np.random.default_rng(3))
        )
    if spec == "mis-er-40":
        # E11's shared instance: the alternative-approach comparison.
        return max_independent_set_ilp(
            erdos_renyi_connected(40, 0.09, np.random.default_rng(6))
        )
    if spec == "wmis-grid-7x9":
        gr = grid_graph(7, 9)
        rng = np.random.default_rng(3)
        weights = [float(w) for w in rng.integers(1, 9, size=gr.n)]
        return max_independent_set_ilp(gr, weights=weights)
    if spec == "wmis-path-60":
        # E12b's ensemble-ablation instance.
        gr = path_graph(60)
        rng = np.random.default_rng(8)
        weights = [float(w) for w in rng.integers(1, 10, size=gr.n)]
        return max_independent_set_ilp(gr, weights=weights)
    if spec == "matching-grid-7x9":
        return max_matching_ilp(grid_graph(7, 9)).instance
    if spec == "ring-capacity-2":
        # General-form packing (neither MIS nor matching): each ring
        # vertex limits itself + both neighbors with capacity 2.
        n = 40
        ring = cycle_graph(n)
        constraints = []
        for v in range(n):
            u, w = ring.neighbors(v)
            constraints.append(Constraint({v: 1.0, u: 1.0, w: 1.0}, 2.0))
        return PackingInstance([1.0] * n, constraints, name="ring-capacity-2")
    raise ValueError(f"unknown packing instance spec {spec!r}")


@scenario(
    name="packing-approx",
    description="Theorem 1.2 packing: per-seed approximation ratio vs the "
    "(1-eps) target on MIS/matching instances",
    grid={
        "instance": (
            "mis-cycle-80",
            "mis-grid-7x9",
            "mis-er-56",
            "wmis-grid-7x9",
            "matching-grid-7x9",
            "ring-capacity-2",
        ),
        "eps": (0.4, 0.3, 0.2),
    },
    trials=4,
)
def _packing_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import solve_packing

    instance = _packing_instance(params["instance"])
    opt = _packing_opt(params["instance"])
    (algo_seq,) = ctx.spawn(1)
    result = solve_packing(
        instance, params["eps"], seed=algo_seq, cache=ctx.solve_cache()
    )
    ratio = result.weight / opt if opt else 1.0
    return {
        "opt": opt,
        "weight": result.weight,
        "ratio": ratio,
        "feasible": instance.is_feasible(result.chosen),
        "meets_target": ratio >= (1 - params["eps"]) - 1e-9,
    }


def _covering_instance(spec: str):
    from repro.graphs import (
        caterpillar,
        cycle_graph,
        erdos_renyi_connected,
        grid_graph,
        hub_and_spokes,
    )
    from repro.ilp import min_dominating_set_ilp, min_vertex_cover_ilp

    rng = np.random.default_rng(5)
    match = re.fullmatch(r"mds-cycle-(\d+)", spec)
    if match:
        return min_dominating_set_ilp(cycle_graph(int(match.group(1))))
    if spec == "mds-grid-6x7":
        return min_dominating_set_ilp(grid_graph(6, 7))
    if spec == "mds-grid-8x8":
        # E9a's sparse-cover host instance.
        return min_dominating_set_ilp(grid_graph(8, 8))
    if spec == "mds-er-36":
        # E5b's head-to-head instance.
        return min_dominating_set_ilp(
            erdos_renyi_connected(36, 0.1, np.random.default_rng(2))
        )
    if spec == "mds-er-40":
        # E9b's Lemma C.3 instance.
        return min_dominating_set_ilp(
            erdos_renyi_connected(40, 0.08, np.random.default_rng(4))
        )
    if spec == "wmds-grid-6x7":
        gr = grid_graph(6, 7)
        weights = [float(w) for w in rng.integers(1, 8, size=gr.n)]
        return min_dominating_set_ilp(gr, weights=weights)
    if spec == "mds-hubspokes-5x5":
        return min_dominating_set_ilp(hub_and_spokes(5, 5))
    if spec == "mds2-caterpillar-14x2":
        return min_dominating_set_ilp(caterpillar(14, 2), k=2)
    if spec == "mvc-grid-6x7":
        return min_vertex_cover_ilp(grid_graph(6, 7))
    raise ValueError(f"unknown covering instance spec {spec!r}")


@scenario(
    name="covering-approx",
    description="Theorem 1.3 covering: per-seed approximation ratio vs the "
    "(1+eps) target on dominating-set/vertex-cover instances",
    grid={
        "instance": (
            "mds-cycle-60",
            "mds-grid-6x7",
            "wmds-grid-6x7",
            "mds-hubspokes-5x5",
            "mds2-caterpillar-14x2",
            "mvc-grid-6x7",
        ),
        "eps": (0.4, 0.25),
    },
    trials=4,
)
def _covering_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import solve_covering

    instance = _covering_instance(params["instance"])
    opt = _covering_opt(params["instance"])
    (algo_seq,) = ctx.spawn(1)
    result = solve_covering(
        instance, params["eps"], seed=algo_seq, cache=ctx.solve_cache()
    )
    ratio = result.weight / opt if opt else 1.0
    return {
        "opt": opt,
        "weight": result.weight,
        "ratio": ratio,
        "feasible": instance.is_feasible(result.chosen),
        "meets_target": ratio <= (1 + params["eps"]) + 1e-9,
    }


@scenario(
    name="en-failure",
    description="Claim C.1 probe: Elkin-Neiman catastrophic collapse rate "
    "on cliques vs the 1-e^-eps analytic event, with the Theorem 1.1 "
    "algorithm on the same family as control",
    grid={"n": (32,), "eps": (0.4, 0.3, 0.2, 0.1)},
    trials=100,
)
def _en_failure_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import low_diameter_decomposition
    from repro.decomp import elkin_neiman_ldd, sample_shifts
    from repro.graphs import clique_family, en_failure_event

    n, eps = params["n"], params["eps"]
    graph = clique_family(n)
    shift_seq, cl_seq = ctx.spawn(2)
    shifts = sample_shifts(n, eps, n, seed=shift_seq)
    decomposition = elkin_neiman_ldd(graph, eps, shifts=shifts)
    collapsed = len(decomposition.deleted) >= n - 1
    event = en_failure_event(graph, list(shifts))
    cl = low_diameter_decomposition(graph, eps=eps, seed=cl_seq)
    return {
        "collapsed": collapsed,
        "event": event,
        "event_implies_collapse": (not event) or collapsed,
        "theory_rate": 1 - math.exp(-eps),
        "cl_fraction": len(cl.deleted) / n,
        "cl_within_eps": len(cl.deleted) / n <= eps,
    }


@scenario(
    name="mpx-failure",
    description="Claim C.2 probe: MPX heavy-cut rate on the adversarial "
    "S_L/S_R/L/R family vs the analytic event frequency",
    grid={"t": (8,), "lam": (0.4, 0.3, 0.2, 0.1)},
    trials=100,
)
def _mpx_failure_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.decomp import mpx_decomposition, sample_shifts
    from repro.graphs import mpx_bad_family, mpx_failure_event

    bad = mpx_bad_family(params["t"])
    graph = bad.graph
    bipartite = {tuple(sorted(e)) for e in bad.bipartite_edges}
    (shift_seq,) = ctx.spawn(1)
    shifts = sample_shifts(graph.n, params["lam"], graph.n, seed=shift_seq)
    decomposition = mpx_decomposition(graph, params["lam"], shifts=shifts)
    cut = {tuple(sorted(e)) for e in decomposition.cut_edges}
    event = mpx_failure_event(bad, list(shifts))
    return {
        "event": event,
        "heavy_cut": len(cut) >= len(bipartite),
        "event_implies_bipartite_cut": (not event) or bipartite <= cut,
        "cut_fraction": decomposition.cut_fraction(graph),
    }


@scenario(
    name="congest-bandwidth",
    description="Section 6 CONGEST audit: message-passing Elkin-Neiman "
    "max message bits vs the c*log2(n) budget as n grows",
    grid={"n": (16, 32, 64, 128), "lam": (0.4,)},
    trials=3,
)
def _congest_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.decomp.elkin_neiman import _EnNode
    from repro.decomp.shifts import sample_shifts, shift_cap
    from repro.graphs import cycle_graph
    from repro.local import audit_congest
    from repro.local.engine import run_synchronous

    n, lam = params["n"], params["lam"]
    graph = cycle_graph(n)
    shift_seq, engine_seq = ctx.spawn(2)
    shifts = sample_shifts(n, lam, n, seed=shift_seq)
    deadline = int(math.floor(shift_cap(lam, n))) + 2
    counter = iter(range(n))

    def factory():
        v = next(counter)
        return _EnNode(v, shifts[v], deadline)

    result = run_synchronous(
        graph,
        factory,
        seed=engine_seq,
        max_rounds=deadline + 2,
        anonymous=False,
        measure_bits=True,
    )
    audit = audit_congest(result, n)
    return {
        "max_message_bits": audit.max_message_bits,
        "budget_bits": audit.budget_bits,
        "overhead_factor": audit.overhead_factor,
        "fits_budget": audit.fits,
        # Per-round bandwidth via the unified CommMeter path — the same
        # totals semantics the mpc-comm scenario reports in bytes.
        "total_bits": audit.total_bits,
        "total_messages": audit.total_messages,
        "comm_rounds": len(audit.round_bits),
        "round_bits": list(audit.round_bits),
    }


@scenario(
    name="mpc-comm",
    description="Partitioned-execution audit: the Theorem 1.1 LDD over "
    "simulated MPC ranks (repro.mpc) — per-round per-rank communication "
    "vs the measured O(S) memory budget, with the partition checked "
    "bit-identical against the single-box backend at every rank count",
    grid={"family": ("random-3-regular-30000",), "ranks": (1, 4, 16)},
    trials=1,
    timeout=7200.0,
    tags=("scale",),
)
def _mpc_comm_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import LddParams, chang_li_ldd
    from repro.mpc import MpcConfig

    graph_seq, algo_seq = ctx.spawn(2)
    # One integer seed reused verbatim by both executions: SeedSequence
    # spawning is stateful, so the arms must not share a live sequence.
    algo_seed = int(algo_seq.generate_state(1)[0])
    with _obs.span("trial.build_graph"):
        graph = build_family(params["family"], np.random.default_rng(graph_seq))
    ldd_params = LddParams.practical(0.2, graph.n)
    with _obs.span("trial.ldd_local"):
        local = chang_li_ldd(graph, ldd_params, seed=algo_seed)
    run = MpcConfig(ranks=params["ranks"]).start(graph.csr())
    with _obs.span("trial.ldd_mpc"):
        partitioned = chang_li_ldd(graph, ldd_params, seed=algo_seed, mpc=run)
    totals = run.meter.totals()
    series = run.meter.max_rank_series()
    budget = run.comm_budget_bytes
    within = run.within_comm_budget()
    identical = (
        partitioned.deleted == local.deleted
        and partitioned.clusters == local.clusters
    )
    peak = int(totals["max_round_rank_bytes"])
    return {
        "n": graph.n,
        "m": graph.m,
        "ranks": params["ranks"],
        "partition_identical": identical,
        "comm_bytes_total": totals["bytes"],
        "comm_messages_total": totals["messages"],
        "comm_rounds": totals["rounds"],
        "max_round_rank_bytes": peak,
        "comm_budget_bytes": budget,
        "within_comm_budget": within,
        "budget_overhead_factor": (peak / budget) if budget else 0.0,
        "round_max_rank_bytes": series,
    }


@scenario(
    name="kernel-speed",
    description="E15 smoke: reference Graph methods vs the CSR kernels on "
    "the 40x40 grid (n_v ball sizes and G^4), plus the LDD wall time "
    "(wall-clock metrics; inherently machine-dependent)",
    grid={"grid": ("40x40",), "eps": (0.3,)},
    trials=1,
    tags=("timing",),
)
def _kernel_speed_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import low_diameter_decomposition
    from repro.graphs import grid_graph

    rows, cols = (int(x) for x in params["grid"].split("x"))

    def best_of(repeats, fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    timings: Dict[str, float] = {
        "ldd_s": best_of(
            3,
            lambda: low_diameter_decomposition(
                grid_graph(rows, cols), eps=params["eps"], seed=0
            ),
        )
    }
    graph = grid_graph(rows, cols)
    # A quarter of the grid's diameter: no ball saturates, which is the
    # regime where the n_v estimate still runs the packed sweep (above
    # the diameter it reads component sizes instead).
    radius = (rows + cols - 2) // 4

    def estimate_python():
        for v in range(graph.n):
            graph.bfs_distances([v], radius)

    timings["estimate_nv_python_s"] = best_of(1, estimate_python)
    timings["estimate_nv_csr_s"] = best_of(
        3, lambda: graph.csr().all_ball_sizes(radius)
    )
    timings["power4_python_s"] = best_of(2, lambda: graph.power(4))
    timings["power4_csr_s"] = best_of(3, lambda: graph.csr().power(4))
    return {
        **timings,
        "estimate_nv_speedup": timings["estimate_nv_python_s"]
        / max(timings["estimate_nv_csr_s"], 1e-12),
    }


@scenario(
    name="kernel-parallel",
    description="E15b: serial vs process-sharded all_ball_sizes wall time "
    "(multiprocessing.shared_memory chunk sharding) with a bit-identity "
    "gate; geometric-100000 is the acceptance point (~3x on 4 cores)",
    grid={"family": ("random-3-regular-20000", "geometric-100000")},
    trials=1,
    timeout=7200.0,
    tags=("timing",),
    prefer_kernel_parallelism=True,
)
def _kernel_parallel_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    import multiprocessing
    import os

    from repro.graphs.parallel import resolve_kernel_workers
    from repro.util.validation import require

    (graph_seq,) = ctx.spawn(1)
    graph = build_family(params["family"], np.random.default_rng(graph_seq))
    csr = graph.csr()
    # Under runner coordination (prefer_kernel_parallelism) the resolved
    # count is the trial's whole worker budget; standalone runs force at
    # least 2 so the sharded path is actually exercised (a 1-core box
    # oversubscribes — wall parity, not speedup, is expected there).
    workers = max(2, resolve_kernel_workers(None))
    # The first sharded call of a process spawns the cached worker pool
    # and attaches the workers to the CSR segments (~1 s on 2 cores).
    # An untimed radius-1 sweep pays that here, so the timed pair below
    # compares the kernels, not pool start-up.
    csr.all_ball_sizes(1, kernel_workers=workers)
    pool_processes = len(multiprocessing.active_children())
    require(
        pool_processes >= workers,
        f"the warm-up sweep started {pool_processes} of {workers} workers",
    )
    start = time.perf_counter()
    serial = csr.all_ball_sizes(None, kernel_workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = csr.all_ball_sizes(None, kernel_workers=workers)
    parallel_s = time.perf_counter() - start
    identical = (
        serial[0].tobytes() == parallel[0].tobytes()
        and serial[1].tobytes() == parallel[1].tobytes()
    )
    return {
        "n": graph.n,
        "m": graph.m,
        "kernel_workers": workers,
        "pool_processes": pool_processes,
        "cpu_count": os.cpu_count() or 1,
        "ball_serial_s": serial_s,
        "ball_parallel_s": parallel_s,
        "parallel_speedup": serial_s / max(parallel_s, 1e-12),
        "bit_identical": identical,
    }


# ----------------------------------------------------------------------
# Registry-completing registrations (E2, E5, E8–E12, E14)
# ----------------------------------------------------------------------


@scenario(
    name="round-complexity",
    description="E2 / Theorems 1.1-1.2 round complexity: CL nominal "
    "O(log^3(1/eps) log n/eps) vs the GKM17 network-decomposition route "
    "(measured ledgers on cycle MIS at n <= 128, formula extrapolation above)",
    grid={"n": (32, 64, 128, 256, 512), "eps": (0.4, 0.3, 0.2, 0.1)},
    trials=2,
)
def _round_complexity_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.core import LddParams, chang_li_ldd
    from repro.decomp import gkm_solve_packing
    from repro.graphs import cycle_graph
    from repro.ilp import max_independent_set_ilp

    n, eps = params["n"], params["eps"]
    ldd_params = LddParams.practical(eps, n)
    cl_nominal = ldd_params.nominal_rounds()
    metrics: Dict[str, Any] = {"cl_nominal_rounds": cl_nominal}
    if n <= 128:
        # Build the cycle and its MIS instance only on the measured
        # branch — the extrapolation path below never touches either
        # (the historical bench built ``cycle_graph(min(n, 128))``
        # unconditionally inside the sizes loop).
        graph = cycle_graph(n)
        gkm_seq, ldd_seq = ctx.spawn(2)
        instance = max_independent_set_ilp(graph)
        gkm = gkm_solve_packing(
            instance, eps, seed=gkm_seq, scale=0.35, cache=ctx.solve_cache()
        )
        decomposition = chang_li_ldd(graph, ldd_params, seed=ldd_seq)
        metrics.update(
            gkm_nominal_rounds=gkm.ledger.nominal_rounds,
            gkm_measured=True,
            cl_effective_rounds=decomposition.ledger.effective_rounds,
            diameter=n // 2,
        )
    else:
        # Extrapolate GKM's formula: ND phases ~ log n on G^{2k}, each
        # costing 2k = Theta(log n / eps) base rounds, times O(log n)
        # colors: k * log^2 n.
        k = max(2, math.ceil(0.35 * math.log(n) / eps))
        metrics.update(
            gkm_nominal_rounds=int(k * (math.ceil(math.log2(n)) ** 2) * 4),
            gkm_measured=False,
        )
    metrics["gkm_over_cl"] = metrics["gkm_nominal_rounds"] / cl_nominal
    return metrics


@scenario(
    name="packing-vs-gkm",
    description="E5a head-to-head: CL (Thm 1.2) vs GKM17 on cycle MIS — "
    "quality parity at 1-eps and nominal/effective round growth",
    grid={"n": (40, 80, 120), "eps": (0.3,)},
    trials=2,
)
def _packing_vs_gkm_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.core import solve_packing
    from repro.decomp import gkm_solve_packing

    n, eps = params["n"], params["eps"]
    spec = f"mis-cycle-{n}"
    instance = _packing_instance(spec)
    opt = _packing_opt(spec)
    cl_seq, gkm_seq = ctx.spawn(2)
    cache = ctx.solve_cache()
    cl = solve_packing(instance, eps, seed=cl_seq, cache=cache)
    gkm = gkm_solve_packing(instance, eps, seed=gkm_seq, scale=0.35, cache=cache)
    gkm_weight = instance.weight(gkm.chosen)
    return {
        "opt": opt,
        "cl_ratio": cl.weight / opt,
        "gkm_ratio": gkm_weight / opt,
        "cl_meets_target": cl.weight >= (1 - eps) * opt - 1e-9,
        "gkm_meets_target": gkm_weight >= (1 - eps) * opt - 1e-9,
        "cl_nominal_rounds": cl.ledger.nominal_rounds,
        "gkm_nominal_rounds": gkm.ledger.nominal_rounds,
        "cl_effective_rounds": cl.ledger.effective_rounds,
        "gkm_effective_rounds": gkm.ledger.effective_rounds,
    }


@scenario(
    name="covering-vs-gkm",
    description="E5b head-to-head: CL (Thm 1.3) vs the GKM17 analog on "
    "dominating-set instances — both within 1+eps",
    grid={"instance": ("mds-cycle-45", "mds-er-36"), "eps": (0.3,)},
    trials=2,
)
def _covering_vs_gkm_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.core import solve_covering
    from repro.decomp import gkm_solve_covering

    eps = params["eps"]
    instance = _covering_instance(params["instance"])
    opt = _covering_opt(params["instance"])
    cl_seq, gkm_seq = ctx.spawn(2)
    cache = ctx.solve_cache()
    cl = solve_covering(instance, eps, seed=cl_seq, cache=cache)
    gkm = gkm_solve_covering(instance, eps, seed=gkm_seq, scale=0.5, cache=cache)
    gkm_weight = instance.weight(gkm.chosen)
    return {
        "opt": opt,
        "cl_ratio": cl.weight / opt,
        "gkm_ratio": gkm_weight / opt,
        "cl_meets_target": cl.weight <= (1 + eps) * opt + 1e-9,
        "gkm_meets_target": gkm_weight <= (1 + eps) * opt + 1e-9,
        "cl_nominal_rounds": cl.ledger.nominal_rounds,
        "gkm_nominal_rounds": gkm.ledger.nominal_rounds,
    }


@lru_cache(maxsize=None)
def _mcgee_pair():
    """(base, double cover, exact independence number) of the McGee cage
    — fixed instances of the E8a comparison, built once per process."""
    from repro.graphs import bipartite_double_cover, mcgee_graph
    from repro.ilp import max_independent_set_ilp, solve_packing_exact

    base = mcgee_graph()
    cover = bipartite_double_cover(base)
    alpha = solve_packing_exact(
        max_independent_set_ilp(base), cache=process_solve_cache()
    ).weight
    return base, cover, alpha


@scenario(
    name="lower-bound",
    description="E8a / Theorem B.2 mechanism: Luby-t output marginals on "
    "the McGee cage vs its bipartite double cover — identical while "
    "radius-t views are trees, capping the bipartite ratio below 1",
    grid={"rounds": (0, 1, 2, 3)},
    trials=4,
)
def _lower_bound_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.lower_bounds import compare_on_pair

    base, cover, alpha = _mcgee_pair()
    (algo_seq,) = ctx.spawn(1)
    report = compare_on_pair(
        bipartite=cover,
        ramanujan=base,
        independence_fraction_ramanujan=alpha / base.n,
        rounds=params["rounds"],
        trials=20,
        seed=algo_seq,
    )
    views_tree = report.views_tree_bipartite and report.views_tree_ramanujan
    return {
        "views_tree": views_tree,
        "frac_bipartite": report.mean_fraction_bipartite,
        "frac_ramanujan": report.mean_fraction_ramanujan,
        "marginal_gap": report.marginal_gap,
        "ratio_cap_bipartite": report.implied_bipartite_ratio,
        "independence_fraction": alpha / base.n,
    }


@lru_cache(maxsize=None)
def _covering_hypergraph(spec: str):
    """Constraint hypergraph of a covering instance spec (per-process)."""
    return _covering_instance(spec).hypergraph()


@scenario(
    name="sparse-cover-multiplicity",
    description="E9a / Lemma C.2: sparse-cover coverage success and "
    "per-vertex multiplicity tail vs the Geometric(e^-lam) survival on "
    "the 8x8-grid MDS hypergraph",
    grid={"lam": (math.log(21 / 20), 0.1, 0.25)},
    trials=20,
)
def _sparse_cover_multiplicity_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.decomp import sparse_cover, verify_edge_coverage

    hyper = _covering_hypergraph("mds-grid-8x8")
    n = _covering_instance("mds-grid-8x8").n
    (cover_seq,) = ctx.spawn(1)
    cover = sparse_cover(hyper, params["lam"], seed=cover_seq)
    uncovered = verify_edge_coverage(hyper, cover)
    mult = cover.multiplicity(n)
    hist = [0] * (max(mult) + 1)
    for x in mult:
        hist[x] += 1
    return {
        "covered": not uncovered,
        "uncovered_edges": len(uncovered),
        "mean_multiplicity": sum(mult) / len(mult),
        "max_multiplicity": max(mult),
        "frac_ge_2": sum(1 for x in mult if x >= 2) / len(mult),
        # hist[k] = number of vertices contained in exactly k clusters;
        # benches pool these across trials to run the Lemma C.2
        # geometric-domination check on the full sample.
        "multiplicity_hist": hist,
    }


@scenario(
    name="sparse-cover-weight",
    description="E9b / Lemma C.3: covering via sparse cover — per-run "
    "certificate weight <= sum_v X_v Q*(v) w_v, landing within 1+eps "
    "of OPT at lam = ln(1+eps/5)",
    grid={"eps": (0.5, 0.3, 0.2)},
    trials=10,
)
def _sparse_cover_weight_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.decomp import solve_covering_by_sparse_cover

    eps = params["eps"]
    lam = math.log(1 + eps / 5)
    instance = _covering_instance("mds-er-40")
    opt_solution = _covering_opt_solution("mds-er-40")
    (cover_seq,) = ctx.spawn(1)
    chosen, cover = solve_covering_by_sparse_cover(
        instance, lam, seed=cover_seq, cache=ctx.solve_cache()
    )
    mult = cover.multiplicity(instance.n)
    bound = sum(mult[v] * instance.weights[v] for v in opt_solution.chosen)
    weight = instance.weight(chosen)
    return {
        "lam": lam,
        "opt": opt_solution.weight,
        "weight": weight,
        "certificate_bound": bound,
        "feasible": instance.is_feasible(chosen),
        "certificate_holds": weight <= bound + 1e-9,
        "within_budget": weight <= (1 + eps) * opt_solution.weight + 1e-9,
    }


@scenario(
    name="blackbox",
    description="E10 / Section 1.6 boosting: blackbox (eps, O(log n/eps)) "
    "LDD vs the direct Theorem 1.1 algorithm on cycle-128 — same "
    "quality, nominal-round advantage growing as eps shrinks",
    grid={"family": ("cycle-128",), "eps": (0.3, 0.2, 0.1, 0.05)},
    trials=8,
)
def _blackbox_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import blackbox_ldd, low_diameter_decomposition
    from repro.graphs.metrics import validate_partition

    eps = params["eps"]
    graph = build_family(params["family"], ctx.rng())
    bb_seq, direct_seq = ctx.spawn(2)
    bb = blackbox_ldd(graph, eps=eps, seed=bb_seq)
    validate_partition(graph, bb.clusters, bb.deleted)
    direct = low_diameter_decomposition(graph, eps=eps, seed=direct_seq)
    bb_frac = len(bb.deleted) / graph.n
    direct_frac = len(direct.deleted) / graph.n
    return {
        "bb_fraction": bb_frac,
        "direct_fraction": direct_frac,
        "bb_nominal_rounds": bb.ledger.nominal_rounds,
        "direct_nominal_rounds": direct.ledger.nominal_rounds,
        "round_advantage": direct.ledger.nominal_rounds / bb.ledger.nominal_rounds,
        # The blackbox composition pays a small additive quality slack
        # (the half-decomposition's own deletions) — the historical
        # bench allowed eps + 0.06.
        "bb_within_slack": bb_frac <= eps + 0.06,
        "direct_within_eps": direct_frac <= eps,
    }


@scenario(
    name="alternative-packing",
    description="E11 / Section 4 alternative approach: EN-ensemble "
    "reweighting + weighted LDD vs the main Theorem 1.2 pipeline on "
    "shared MIS instances",
    grid={"instance": ("mis-cycle-60", "mis-grid-6x8", "mis-er-40"), "eps": (0.3,)},
    trials=4,
)
def _alternative_packing_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.core import alternative_packing, solve_packing

    eps = params["eps"]
    instance = _packing_instance(params["instance"])
    opt = _packing_opt(params["instance"])
    main_seq, alt_seq = ctx.spawn(2)
    cache = ctx.solve_cache()
    main = solve_packing(instance, eps, seed=main_seq, cache=cache)
    alt = alternative_packing(
        instance, eps, seed=alt_seq, ensemble_cap=16, cache=cache
    )
    ensemble_mean = sum(alt.ensemble_weights) / len(alt.ensemble_weights)
    return {
        "opt": opt,
        "main_ratio": main.weight / opt,
        "alt_ratio": alt.weight / opt,
        "ensemble_mean_ratio": ensemble_mean / opt,
        "alt_feasible": instance.is_feasible(alt.chosen),
        "main_meets_target": main.weight / opt >= (1 - eps) - 1e-9,
        # The alternative analysis gives (1 - O(eps)): allow the 2x
        # constant, as the paper's Section 4 sketch does.
        "alt_meets_target": alt.weight / opt >= (1 - 2 * eps) - 1e-9,
        "ensemble_meets_target": ensemble_mean / opt >= 1 - 2 * eps,
    }


@scenario(
    name="phase2-ablation",
    description="E12a ablation: skipping the LDD's dense-pocket clearing "
    "pass (Phase 2) degrades the unclustered-fraction tail on the "
    "pocket graph while both variants stay correct partitions",
    grid={"family": ("pockets-4x18x12",), "eps": (0.2,)},
    trials=30,
)
def _phase2_ablation_trial(
    params: Dict[str, Any], ctx: TrialContext
) -> Dict[str, Any]:
    from repro.core import LddParams, chang_li_ldd
    from repro.graphs.metrics import validate_partition

    graph = build_family(params["family"], ctx.rng())
    ldd_params = LddParams.practical(params["eps"], graph.n)
    full_seq, skip_seq = ctx.spawn(2)
    full = chang_li_ldd(graph, ldd_params, seed=full_seq)
    validate_partition(graph, full.clusters, full.deleted)
    skipped = chang_li_ldd(graph, ldd_params, seed=skip_seq, skip_phase2=True)
    validate_partition(graph, skipped.clusters, skipped.deleted)
    return {
        "n": graph.n,
        "full_fraction": len(full.deleted) / graph.n,
        "skip_fraction": len(skipped.deleted) / graph.n,
        "full_within_eps": len(full.deleted) / graph.n <= params["eps"],
    }


@scenario(
    name="prep-ablation",
    description="E12b ablation: starving the packing preparation ensemble "
    "(prep_factor) — the guarantee is robust (exact local solves), the "
    "carving-activity estimates get noisier",
    grid={"prep_factor": (0.3, 4.0)},
    trials=5,
)
def _prep_ablation_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import PackingParams, chang_li_packing

    eps = 0.3
    instance = _packing_instance("wmis-path-60")
    opt = _packing_opt("wmis-path-60")
    pack_params = PackingParams.practical(
        eps, instance.n, prep_factor=params["prep_factor"]
    )
    (algo_seq,) = ctx.spawn(1)
    result = chang_li_packing(
        instance, pack_params, seed=algo_seq, cache=ctx.solve_cache()
    )
    return {
        "eps": eps,
        "opt": opt,
        "ratio": result.weight / opt,
        "feasible": instance.is_feasible(result.chosen),
        "meets_target": result.weight / opt >= (1 - eps) - 1e-9,
        "prep_clusters": result.num_prep_clusters,
        "carve_centers": sum(result.centers_per_iteration),
    }


@lru_cache(maxsize=None)
def _spanner_graph(spec: str):
    """Fixed spanner-input graphs (E14): the graph is part of the
    parameter point — only the spanner's shifts vary across trials."""
    from repro.graphs import complete_graph, erdos_renyi_connected, random_regular

    if spec == "clique-36":
        return complete_graph(36)
    if spec == "er-48-p30":
        return erdos_renyi_connected(48, 0.3, np.random.default_rng(9))
    if spec == "6-regular-48":
        return random_regular(48, 6, np.random.default_rng(10))
    raise ValueError(f"unknown spanner graph spec {spec!r}")


@scenario(
    name="spanner",
    description="E14 / [EN18] shift spanners: (2k-1)-stretch always holds "
    "(worst-case), size falls with k on dense inputs; the size "
    "*distribution* across seeds is the [FGdV22] open-question tail",
    grid={"graph": ("clique-36", "er-48-p30", "6-regular-48"), "k": (3, 6)},
    trials=8,
)
def _spanner_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.decomp.spanner import shift_spanner, verify_stretch

    graph = _spanner_graph(params["graph"])
    k = params["k"]
    (shift_seq,) = ctx.spawn(1)
    result = shift_spanner(graph, k, seed=shift_seq)
    violations = verify_stretch(graph, result.edges, 2 * k - 1)
    return {
        "n": graph.n,
        "m": graph.m,
        "size": result.size,
        "stretch_violations": len(violations),
        "size_bound": result.size_bound(graph.n),
        "max_multiplicity": max(result.multiplicities, default=0),
    }


# ----------------------------------------------------------------------
# Decomposition-as-a-service scenarios (ldd-churn, ldd-serve)
# ----------------------------------------------------------------------


@scenario(
    name="ldd-churn",
    description="Serving-layer maintenance: incremental repair "
    "(recarve dirty clusters only) vs full rebuild under seeded "
    "edge-churn batches at n ~ 3*10^4 — wall-clock ratio per round, "
    "with the repaired partition passing the rebuild's validators "
    "(full partition audit + C1).  r_scale shrinks the carve radius so "
    "the decomposition actually fragments at this size (an expander "
    "under the default budget is one cluster and nothing to repair)",
    grid={
        "family": ("grid-173x173", "geometric-30000"),
        "eps": (0.2,),
        "r_scale": (0.15,),
        "dirty_fraction": (0.05, 0.1),
    },
    trials=1,
    timeout=7200.0,
    tags=("timing",),
)
def _ldd_churn_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.core import (
        LddParams,
        apply_churn,
        chang_li_ldd,
        repair_decomposition,
        sample_churn,
    )
    from repro.graphs.metrics import validate_partition

    rounds = 2
    graph_seq, algo_seq, churn_seq = ctx.spawn(3)
    round_seqs = ctx.spawn(2 * rounds)
    with _obs.span("trial.build_graph"):
        graph = build_family(params["family"], np.random.default_rng(graph_seq))
    ldd_params = LddParams.practical(
        params["eps"], graph.n, r_scale=params["r_scale"]
    )
    with _obs.span("trial.ldd"):
        current = chang_li_ldd(graph, ldd_params, seed=algo_seq)
    base_clusters = len(current.clusters)
    churn_rng = np.random.default_rng(churn_seq)
    repair_walls: List[float] = []
    rebuild_walls: List[float] = []
    dirty_fractions: List[float] = []
    recarved: List[int] = []
    within_eps = True
    for rnd in range(rounds):
        clusters_before = len(current.clusters)
        target = max(1, round(params["dirty_fraction"] * clusters_before))
        batch = sample_churn(
            graph,
            current,
            churn_rng,
            clusters=target,
            additions=2 * target,
            removals=target,
        )
        graph = apply_churn(graph, batch)
        start = time.perf_counter()
        with _obs.span("trial.rebuild"):
            rebuilt = chang_li_ldd(graph, ldd_params, seed=round_seqs[2 * rnd])
        rebuild_walls.append(time.perf_counter() - start)
        start = time.perf_counter()
        with _obs.span("trial.repair"):
            result = repair_decomposition(
                graph,
                current,
                batch.edges,
                ldd_params,
                seed=round_seqs[2 * rnd + 1],
            )
        repair_walls.append(time.perf_counter() - start)
        # The repaired partition must pass exactly the validators the
        # rebuild passes (the ldd-scale audit: partition + non-adjacency,
        # plus the C1 unclustered-fraction bound below).
        with _obs.span("trial.validate"):
            validate_partition(graph, rebuilt.clusters, rebuilt.deleted)
            validate_partition(
                graph,
                result.decomposition.clusters,
                result.decomposition.deleted,
            )
        current = result.decomposition
        within_eps = (
            within_eps and len(current.deleted) / graph.n <= params["eps"]
        )
        dirty_fractions.append(
            len(result.dirty_clusters) / max(clusters_before, 1)
        )
        recarved.append(result.recarved_vertices)
    repair_total = sum(repair_walls)
    rebuild_total = sum(rebuild_walls)
    return {
        "n": graph.n,
        "m": graph.m,
        "rounds": rounds,
        "base_clusters": base_clusters,
        "final_clusters": len(current.clusters),
        "unclustered_fraction": len(current.deleted) / graph.n,
        "within_eps": within_eps,
        "max_dirty_fraction": max(dirty_fractions),
        "recarved_vertices": sum(recarved),
        "repair_wall_s": repair_total,
        "rebuild_wall_s": rebuild_total,
        "repair_over_rebuild": repair_total / max(rebuild_total, 1e-12),
        "repair_round_walls_s": repair_walls,
        "rebuild_round_walls_s": rebuild_walls,
    }


@lru_cache(maxsize=None)
def _serve_graph(spec: str):
    """Fixed per-point serving graphs: the artifact is addressed by the
    graph's content hash, so the graph must be identical across trials,
    reruns and worker processes — seeded from the spec, like E14's
    fixed spanner inputs."""
    seed = stable_seed_from(spec.encode("utf-8"), salt=101)
    return build_family(spec, np.random.default_rng(seed))


@scenario(
    name="ldd-serve",
    description="Decomposition-as-a-service read path: cold build into "
    "the persistent artifact store (REPRO_ARTIFACT_STORE, else a "
    "private tempdir), warm mmap reload through a fresh cache (zero "
    "rebuilds), then seeded point-to-cluster and within-radius query "
    "traffic — persists p50/p99 batch latency and the artifact hit "
    "rate so the trend dashboard tracks the serving tier",
    grid={
        "family": ("grid-173x173", "geometric-30000"),
        "eps": (0.2,),
        "r_scale": (0.15,),
    },
    trials=1,
    timeout=7200.0,
    tags=("timing",),
)
def _ldd_serve_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    import os
    import tempfile

    from repro.artifacts import (
        ArtifactCache,
        ArtifactStore,
        artifact_digest,
        encode_decomposition,
        graph_fingerprint,
    )
    from repro.core import LddParams, chang_li_ldd
    from repro.exp.store import canonical_params
    from repro.serve import DecompositionIndex, QueryService, query_workload

    with _obs.span("trial.build_graph"):
        graph = _serve_graph(params["family"])
    ldd_params = LddParams.practical(
        params["eps"], graph.n, r_scale=params["r_scale"]
    )
    # The artifact identity is the param point: fixed algorithm seed
    # (derived from the point, not the trial), content-hashed graph,
    # params and code version.
    algo_seed = stable_seed_from(
        canonical_params(params).encode("utf-8"), salt=7
    )
    digest = artifact_digest(
        "decomposition",
        graph_fingerprint(graph),
        {
            "eps": params["eps"],
            "r_scale": params["r_scale"],
            "profile": "practical",
        },
        algo_seed,
    )

    def build():
        decomposition = chang_li_ldd(graph, ldd_params, seed=algo_seed)
        return encode_decomposition(decomposition, graph.n)

    root = os.environ.get("REPRO_ARTIFACT_STORE", "").strip()
    private = None
    if not root:
        private = tempfile.TemporaryDirectory(prefix="repro-artifacts-")
        root = private.name
    try:
        cold = ArtifactCache(ArtifactStore(root))
        start = time.perf_counter()
        with _obs.span("trial.cold_pass"):
            artifact = cold.get_or_build(digest, build)
        cold_s = time.perf_counter() - start
        # A fresh cache over the same root simulates a new serving
        # process: the artifact must come back from disk (mmap reload),
        # never be rebuilt.
        warm = ArtifactCache(ArtifactStore(root))
        start = time.perf_counter()
        with _obs.span("trial.warm_reload"):
            artifact = warm.get_or_build(digest, build)
        warm_load_s = time.perf_counter() - start
        index = DecompositionIndex.from_artifact(artifact)
        service = QueryService(graph, index)

        point_seq, radius_seq = ctx.spawn(2)
        point_batches = query_workload(
            point_seq, graph.n, batches=64, batch_size=512
        )
        radius_batches = query_workload(
            radius_seq, graph.n, batches=8, batch_size=16, radius=4
        )
        point_walls: List[float] = []
        with _obs.span("trial.point_queries"):
            for batch in point_batches:
                start = time.perf_counter()
                warm.get(digest)  # per-batch artifact resolution (hit path)
                service.point_to_cluster(batch.vertices)
                point_walls.append(time.perf_counter() - start)
        radius_walls: List[float] = []
        with _obs.span("trial.radius_queries"):
            for batch in radius_batches:
                start = time.perf_counter()
                warm.get(digest)
                service.clusters_within_radius(batch.vertices, batch.radius)
                radius_walls.append(time.perf_counter() - start)
    finally:
        if private is not None:
            private.cleanup()
    return {
        "n": graph.n,
        "m": graph.m,
        "num_clusters": index.num_clusters,
        "artifact_nbytes": artifact.nbytes,
        "store_persistent": private is None,
        "cold_pass_s": cold_s,
        "warm_reload_s": warm_load_s,
        "artifact_builds": cold.builds,
        "warm_rebuilds": warm.builds,
        "artifact_loads": warm.loads,
        "artifact_hits": warm.hits,
        "artifact_hit_rate": warm.hit_rate(),
        "point_batches": len(point_walls),
        "point_p50_s": float(np.percentile(point_walls, 50)),
        "point_p99_s": float(np.percentile(point_walls, 99)),
        "radius_batches": len(radius_walls),
        "radius_p50_s": float(np.percentile(radius_walls, 50)),
        "radius_p99_s": float(np.percentile(radius_walls, 99)),
    }


# ----------------------------------------------------------------------
# MWU solver tier (repro.ilp.mwu)
# ----------------------------------------------------------------------

_MWU_PACKING_SPECS = (
    "mis-cycle-80",
    "mis-grid-7x9",
    "mis-er-56",
    "wmis-grid-7x9",
    "matching-grid-7x9",
    "ring-capacity-2",
)
_MWU_COVERING_SPECS = (
    "mds-cycle-60",
    "mds-grid-6x7",
    "wmds-grid-6x7",
    "mds-hubspokes-5x5",
    "mds2-caterpillar-14x2",
    "mvc-grid-6x7",
)


@scenario(
    name="mwu-quality",
    description="MWU tier vs exact optimum on every small instance family: "
    "certificate-verified (1+eps) fractional gap, oriented ratio vs the "
    "exact optimum, and the rounded integral solution",
    grid={
        "instance": _MWU_PACKING_SPECS + _MWU_COVERING_SPECS,
        "eps": (0.3, 0.1),
    },
    trials=2,
)
def _mwu_quality_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.ilp.certificates import MwuProblem, verify_certificate
    from repro.ilp.mwu import solve_covering_mwu, solve_packing_mwu

    spec, eps = params["instance"], params["eps"]
    kind = "packing" if spec in _MWU_PACKING_SPECS else "covering"
    (round_seq,) = ctx.spawn(1)
    if kind == "packing":
        instance = _packing_instance(spec)
        opt = _packing_opt(spec)
        sol = solve_packing_mwu(instance, eps, seed=round_seq)
    else:
        instance = _covering_instance(spec)
        opt = _covering_opt(spec)
        sol = solve_covering_mwu(instance, eps, seed=round_seq)
    cert = sol.certificate
    report = verify_certificate(
        MwuProblem.from_instance(instance), cert, require_gap=1.0 + eps
    )
    # Oriented >=1 like the certified gap: opt/frac for packing (how far
    # the fractional value may sit *below* the optimum), frac/opt for
    # covering (how far above).  certified gap >= ratio always, so
    # meeting the target is implied by a verified certificate.
    if kind == "packing":
        ratio = opt / cert.primal_value if cert.primal_value else 1.0
    else:
        ratio = cert.primal_value / opt if opt else 1.0
    assert sol.chosen is not None and sol.weight is not None
    int_ratio = (
        (opt / sol.weight if sol.weight else math.inf)
        if kind == "packing"
        else (sol.weight / opt if opt else 1.0)
    )
    return {
        "opt": opt,
        "fractional_value": cert.primal_value,
        "dual_bound": cert.dual_bound,
        "certified_gap": cert.gap,
        "certificate_ok": report.ok,
        "iterations": cert.iterations,
        "oracle_calls": cert.oracle_calls,
        "ratio": ratio,
        "meets_target": report.ok and ratio <= (1.0 + eps) + 1e-9,
        "int_weight": sol.weight,
        "int_ratio": int_ratio,
        "int_feasible": instance.is_feasible(sol.chosen),
    }


@scenario(
    name="mwu-scale",
    description="MWU tier at n in {1e5, 1e6} on generated row-sparse "
    "instances: certified fractional gap and solve wall time, nightly",
    grid={
        "kind": ("covering", "packing"),
        "n": (100_000, 1_000_000),
        "eps": (0.1,),
    },
    trials=1,
    timeout=3600.0,
    tags=("scale", "timing"),
)
def _mwu_scale_trial(params: Dict[str, Any], ctx: TrialContext) -> Dict[str, Any]:
    from repro.ilp.certificates import verify_certificate
    from repro.ilp.mwu import mwu_fractional, random_row_sparse_problem

    kind, n, eps = params["kind"], params["n"], params["eps"]
    (gen_seq,) = ctx.spawn(1)
    problem = random_row_sparse_problem(kind, n, seed=gen_seq)
    start = time.perf_counter()
    with _obs.span("trial.mwu_solve"):
        cert = mwu_fractional(problem, eps)
    solve_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    report = verify_certificate(problem, cert, require_gap=1.0 + eps)
    verify_wall_s = time.perf_counter() - start
    return {
        "n": n,
        "m": problem.m,
        "nnz": problem.nnz,
        "fractional_value": cert.primal_value,
        "dual_bound": cert.dual_bound,
        "certified_gap": cert.gap,
        "certificate_ok": report.ok,
        "meets_target": report.ok and cert.gap <= (1.0 + eps) + 1e-9,
        "iterations": cert.iterations,
        "oracle_calls": cert.oracle_calls,
        "solve_wall_s": solve_wall_s,
        "verify_wall_s": verify_wall_s,
    }
