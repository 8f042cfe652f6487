"""The four benchmark workloads.

Each workload is a closed loop over a fixed op list: ``setup`` builds
every input before timing starts (from the workload seed, or from
:data:`FIXED_SEED` for the inputs every run shares), ``run`` is one
timed op (op ``i`` takes the algorithm seed ``op_seed(seed, i)``), and
``check`` verifies that op's output (untimed) and returns the quality
figures it contributes.  Ops are grouped (``group`` ops of alternating
kinds) so every timed run covers whole groups and the kind mix never
skews ``ops_per_s``.  The library is reached only through the public
``repro`` packages, by attribute at call time, so the traced run's
wrappers see every call.

Sizes: ``full`` is what ``run.py`` measures; ``tiny`` is the smoke size
the benchmark's own tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Tuple

import numpy as np

import repro.artifacts as artifacts
import repro.core as core
import repro.graphs as graphs
import repro.ilp as ilp
import repro.serve as serve
from repro.ilp.mwu import random_row_sparse_problem

from perfbench import checks

# Salts separating the seed streams derived from the workload seed.
_GRAPH, _OP, _CHURN, _POINTS, _RADIUS, _WEIGHTS, _MWU, _WARMUP = range(8)

#: Seed of the inputs that do not vary with the workload seed (README,
#: "Decisions"): the served base decomposition of ``ldd-churn-serve``,
#: the weighted instances of ``chang-li-ilp``, the instances of
#: ``mwu-certified``, and the warm-up ops.
FIXED_SEED = 0


def derive(seed: int, *path: int) -> int:
    """A 64-bit seed derived from ``(seed, *path)``."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0])


def op_seed(seed: int, i: int) -> int:
    return derive(seed, _OP, i)


class Workload:
    name: str
    #: Ops per group; the op list alternates kinds within a group.
    group: int = 1
    #: Nominal wall time of one full-size group on the reference box
    #: (README); a run's op list is ``round(seconds / group_seconds)``
    #: groups, fixed before timing starts.
    group_seconds: float = 1.0
    #: Set-ups per timed run; ``setup_s`` is their median.
    setups: int = 3
    #: The kind of work the ops, and the set-up, spend their time in,
    #: which picks the speed probe that scales their wall time
    #: (``harness.PROBES``).
    probe: str = "interpreter"
    setup_probe: str = "interpreter"
    #: The quality metrics (beyond set-up, throughput and memory) this
    #: workload measures.
    quality: ClassVar[Tuple[str, ...]] = ()
    sizes: ClassVar[Dict[str, Dict[str, Any]]] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.cfg = self.sizes[size]

    def setup(self, workdir: Path) -> Any:
        """Build every input (and any reference) before timing starts."""
        raise NotImplementedError

    def run(self, state: Any, i: int) -> Any:
        raise NotImplementedError

    def check(self, state: Any, i: int, output: Any) -> Dict[str, float]:
        raise NotImplementedError

    def layer_extras(self, state: Any) -> Dict[str, float]:
        """Per-layer figures read from the workload's own objects."""
        return {}


# ----------------------------------------------------------------------
# ldd-saturated
# ----------------------------------------------------------------------


@dataclass
class LddState:
    expanders: List[Any]
    grid: Any
    params: Any
    grid_params: Any


class LddSaturated(Workload):
    name = "ldd-saturated"
    group = 2
    group_seconds = 7.0
    probe = setup_probe = "array"
    quality: ClassVar[Tuple[str, ...]] = ("local_rounds_mean",)
    sizes: ClassVar[Dict[str, Dict[str, Any]]] = {
        "full": {"regular_n": 20000, "expanders": 2, "grid": (100, 100), "eps": 0.2},
        "tiny": {"regular_n": 200, "expanders": 2, "grid": (10, 10), "eps": 0.2},
    }

    def setup(self, workdir: Path) -> LddState:
        cfg, seed = self.cfg, self.seed
        expanders = [
            graphs.random_regular(
                cfg["regular_n"], 3, np.random.default_rng(derive(seed, _GRAPH, k))
            )
            for k in range(cfg["expanders"])
        ]
        grid = graphs.grid_graph(*cfg["grid"])
        for g in [*expanders, grid]:
            g.csr()
        state = LddState(
            expanders=expanders,
            grid=grid,
            params=core.LddParams.practical(cfg["eps"], cfg["regular_n"]),
            grid_params=core.LddParams.practical(cfg["eps"], grid.n),
        )
        # Untimed warm-up op on an expander: the natural set-up (the
        # generators and their CSR views) is too short to time steadily.
        core.chang_li_ldd(expanders[0], state.params, seed=derive(FIXED_SEED, _WARMUP))
        return state

    def _instance(self, state: LddState, i: int):
        """Op ``i``: even ops cycle the expanders, odd ops take the grid."""
        if i % 2:
            return state.grid, state.grid_params
        return state.expanders[(i // 2) % len(state.expanders)], state.params

    def run(self, state: LddState, i: int):
        graph, params = self._instance(state, i)
        return core.chang_li_ldd(graph, params, seed=op_seed(self.seed, i))

    def check(self, state: LddState, i: int, output) -> Dict[str, float]:
        checks.check_partition(self._instance(state, i)[0], output)
        return {"local_rounds_mean": float(output.ledger.effective_rounds)}


# ----------------------------------------------------------------------
# ldd-churn-serve
# ----------------------------------------------------------------------


@dataclass
class ChurnState:
    graph: Any
    params: Any
    base: Any
    batches: List[Any]
    point_batches: List[List[Any]]
    radius_batches: List[List[Any]]
    store: Any
    executions: int = 0
    #: Summed over the fresh serving cache of every op.
    cache_hits: int = 0
    cache_accesses: int = 0


@dataclass
class ChurnOutput:
    graph: Any
    repaired: Any
    points: List[np.ndarray]
    radius: List[List[np.ndarray]]


class LddChurnServe(Workload):
    name = "ldd-churn-serve"
    group = 1
    group_seconds = 0.15
    # The set-up is the cold LDD sweep, array work like ldd-saturated's.
    setup_probe = "array"
    quality: ClassVar[Tuple[str, ...]] = ("unclustered_frac_mean",)
    sizes: ClassVar[Dict[str, Dict[str, Any]]] = {
        "full": {
            "grid": (50, 200), "eps": 0.2, "r_scale": 0.15, "dirty": 0.05,
            "batches": 24, "points": (64, 512), "radius": (8, 16, 4),
            "radius_sample": 2,
        },
        "tiny": {
            "grid": (20, 40), "eps": 0.2, "r_scale": 0.15, "dirty": 0.05,
            "batches": 3, "points": (4, 32), "radius": (2, 4, 2),
            "radius_sample": 2,
        },
    }

    def _digest(self, graph, execution: int) -> str:
        # ``execution`` makes every put a new artifact, so a re-run op
        # (the traced run repeats each op) still writes.
        return artifacts.artifact_digest(
            "decomposition",
            artifacts.graph_fingerprint(graph),
            {"eps": self.cfg["eps"], "r_scale": self.cfg["r_scale"]},
            execution,
            code_version="",
        )

    def setup(self, workdir: Path) -> ChurnState:
        cfg, seed = self.cfg, self.seed
        graph = graphs.grid_graph(*cfg["grid"])
        graph.csr()
        params = core.LddParams.practical(cfg["eps"], graph.n, r_scale=cfg["r_scale"])
        base = core.chang_li_ldd(graph, params, seed=FIXED_SEED)
        # Persist the cold build, then reload it warm through a fresh
        # cache over the same private store (a new serving process).
        digest = self._digest(graph, 0)
        arrays, meta = artifacts.encode_decomposition(base, graph.n)
        store = artifacts.ArtifactStore(workdir)
        store.put(digest, arrays, meta)
        cache = artifacts.ArtifactCache(artifacts.ArtifactStore(workdir))
        warm = cache.get(digest)
        if warm is None or cache.loads != 1:
            raise checks.CheckFailed("base artifact was not reloaded from the store")
        if not np.array_equal(warm.arrays["labels"], arrays["labels"]):
            raise checks.CheckFailed("reloaded base artifact differs from the build")
        target = max(1, round(cfg["dirty"] * len(base.clusters)))
        batches = [
            core.sample_churn(
                graph,
                base,
                np.random.default_rng(derive(seed, _CHURN, k)),
                clusters=target,
                additions=2 * target,
                removals=target,
            )
            for k in range(cfg["batches"])
        ]
        points, radius = cfg["points"], cfg["radius"]
        return ChurnState(
            graph=graph,
            params=params,
            base=base,
            batches=batches,
            point_batches=[
                serve.query_workload(derive(seed, _POINTS, k), graph.n, *points)
                for k in range(cfg["batches"])
            ],
            radius_batches=[
                serve.query_workload(
                    derive(seed, _RADIUS, k), graph.n, radius[0], radius[1],
                    radius=radius[2],
                )
                for k in range(cfg["batches"])
            ],
            store=store,
        )

    def run(self, state: ChurnState, i: int) -> ChurnOutput:
        k = i % len(state.batches)
        batch = state.batches[k]
        graph = core.apply_churn(state.graph, batch)
        repaired = core.repair_decomposition(
            graph, state.base, batch.edges, state.params, seed=op_seed(self.seed, i)
        )
        state.executions += 1
        digest = self._digest(graph, state.executions)
        arrays, meta = artifacts.encode_decomposition(repaired.decomposition, graph.n)
        state.store.put(digest, arrays, meta)
        # Serve from a fresh cache over the store, as a new serving
        # process would: the artifact comes back through the store's
        # (mmap) load, not from the writer's memory.
        cache = artifacts.ArtifactCache(state.store)
        artifact = cache.get(digest)
        state.cache_hits += cache.hits
        state.cache_accesses += cache.accesses
        service = serve.QueryService(
            graph, serve.DecompositionIndex.from_artifact(artifact)
        )
        points = [
            service.point_to_cluster(query.vertices) for query in state.point_batches[k]
        ]
        radius = [
            service.clusters_within_radius(query.vertices, query.radius)
            for query in state.radius_batches[k]
        ]
        return ChurnOutput(graph, repaired, points, radius)

    def check(self, state: ChurnState, i: int, output: ChurnOutput) -> Dict[str, float]:
        k = i % len(state.batches)
        decomposition = output.repaired.decomposition
        checks.check_partition(output.graph, decomposition)
        labels = checks.reference_labels(decomposition, output.graph.n)
        checks.check_points(
            labels, [q.vertices for q in state.point_batches[k]], output.points
        )
        checks.check_radius(
            output.graph,
            labels,
            [q.vertices for q in state.radius_batches[k]],
            self.cfg["radius"][2],
            output.radius,
            self.cfg["radius_sample"],
        )
        return {
            "unclustered_frac_mean": len(decomposition.deleted) / output.graph.n
        }

    def layer_extras(self, state: ChurnState) -> Dict[str, float]:
        accesses = state.cache_accesses
        return {"artifacts.hit_rate": state.cache_hits / accesses if accesses else 0.0}


# ----------------------------------------------------------------------
# chang-li-ilp
# ----------------------------------------------------------------------


@dataclass
class IlpState:
    #: Alternating packing, covering instances; op ``i`` solves ``i % len``.
    instances: List[Any]
    optima: List[float]


class ChangLiIlp(Workload):
    name = "chang-li-ilp"
    group = 2
    group_seconds = 0.6
    # A set-up is ≈1 s, so more of them cost little (README, "Decisions").
    setups = 5
    quality: ClassVar[Tuple[str, ...]] = ("approx_ratio_mean",)
    sizes: ClassVar[Dict[str, Dict[str, Any]]] = {
        "full": {"grid": (10, 10), "eps": 0.3, "instances": 16},
        "tiny": {"grid": (4, 4), "eps": 0.3, "instances": 2},
    }

    def setup(self, workdir: Path) -> IlpState:
        cfg = self.cfg
        state = IlpState(instances=[], optima=[])
        for k in range(cfg["instances"]):
            graph = graphs.grid_graph(*cfg["grid"])
            # Fixed integer vertex weights: unweighted grid MDS is
            # degenerate for HiGHS (README), one op costing 0.8-4 s.
            weights = np.random.default_rng(derive(FIXED_SEED, _WEIGHTS, k)).integers(
                1, 10, graph.n
            ).tolist()
            if k % 2 == 0:
                instance = ilp.max_independent_set_ilp(graph, weights=weights)
                optimum = ilp.solve_packing_exact(instance).weight
            else:
                instance = ilp.min_dominating_set_ilp(graph, weights=weights)
                optimum = ilp.solve_covering_exact(instance).weight
            state.instances.append(instance)
            state.optima.append(optimum)
        # Untimed warm-up group: the exact optima alone take tens of ms.
        for k in range(2):
            self._solve(state, k, derive(FIXED_SEED, _WARMUP, k))
        return state

    def _solve(self, state: IlpState, i: int, algo_seed: int):
        solve = core.solve_packing if i % 2 == 0 else core.solve_covering
        return solve(
            state.instances[i % len(state.instances)],
            self.cfg["eps"],
            seed=algo_seed,
            cache=ilp.SolveCache(),
        )

    def run(self, state: IlpState, i: int):
        return self._solve(state, i, op_seed(self.seed, i))

    def check(self, state: IlpState, i: int, output) -> Dict[str, float]:
        k = i % len(state.instances)
        verify = checks.check_packing if k % 2 == 0 else checks.check_covering
        ratio = verify(
            state.instances[k], output.chosen, state.optima[k], self.cfg["eps"]
        )
        return {"approx_ratio_mean": ratio}


# ----------------------------------------------------------------------
# mwu-certified
# ----------------------------------------------------------------------


@dataclass
class MwuState:
    problems: List[Any]


@dataclass
class MwuOutput:
    solution: Any
    report: Any


class MwuCertified(Workload):
    name = "mwu-certified"
    group = 2
    group_seconds = 8.5
    setups = 4
    probe = setup_probe = "array"
    quality: ClassVar[Tuple[str, ...]] = ("approx_ratio_mean",)
    sizes: ClassVar[Dict[str, Dict[str, Any]]] = {
        "full": {"n": 10000, "eps": 0.1, "instances": 8},
        "tiny": {"n": 200, "eps": 0.1, "instances": 2},
    }

    def setup(self, workdir: Path) -> MwuState:
        cfg = self.cfg
        state = MwuState(
            problems=[
                random_row_sparse_problem(
                    "covering" if k % 2 == 0 else "packing",
                    cfg["n"],
                    seed=derive(FIXED_SEED, _MWU, k),
                )
                for k in range(cfg["instances"])
            ]
        )
        # Untimed warm-up op: generating the instances takes milliseconds.
        warm = random_row_sparse_problem(
            "covering", cfg["n"], seed=derive(FIXED_SEED, _WARMUP)
        )
        ilp.solve_covering_mwu(warm, cfg["eps"], seed=derive(FIXED_SEED, _WARMUP, 1))
        return state

    def run(self, state: MwuState, i: int) -> MwuOutput:
        problem = state.problems[i % len(state.problems)]
        solve = ilp.solve_covering_mwu if i % 2 == 0 else ilp.solve_packing_mwu
        solution = solve(problem, self.cfg["eps"], seed=op_seed(self.seed, i))
        report = ilp.verify_certificate(
            problem, solution.certificate, require_gap=1.0 + self.cfg["eps"]
        )
        return MwuOutput(solution, report)

    def check(self, state: MwuState, i: int, output: MwuOutput) -> Dict[str, float]:
        problem = state.problems[i % len(state.problems)]
        solution = output.solution
        gap = checks.check_certificate(problem, solution.certificate, self.cfg["eps"])
        checks.check_rounding(problem, solution.chosen, solution.weight)
        return {"approx_ratio_mean": gap}


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (LddSaturated, LddChurnServe, ChangLiIlp, MwuCertified)
}
