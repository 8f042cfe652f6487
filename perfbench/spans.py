"""Per-layer tracing from outside the library: timing wrappers + spans.

:class:`Tracer` installs a wrapper around each public function listed
in :data:`FUNCTIONS` and :data:`METHODS`, at every binding a caller can
resolve: the defining module, every ``repro`` (or ``perfbench``) module
that imported the name with ``from … import``, and the class attribute
for methods.  Each call records a :class:`Span` (name, start, end,
parent span, phase, optional counters) in memory; :meth:`Tracer.
uninstall` puts every original object back, and :func:`layer_metrics`
folds the spans into the per-layer table of ``perfbench/README.md``.

Nothing in ``src/`` changes: spans are taken around the calls into each
layer, so a layer's self time is its span minus the spans of the
wrapped calls it made.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(span name, defining module, function name)`` for plain functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.generate", "repro.graphs.generators", "grid_graph"),
    ("graphs.generate", "repro.graphs.generators", "random_regular"),
    ("core.ldd", "repro.core.ldd", "chang_li_ldd"),
    ("core.carve", "repro.core.carve", "grow_and_carve"),
    ("core.carve", "repro.core.carve", "grow_and_carve_packing"),
    ("core.carve", "repro.core.carve", "grow_and_carve_covering"),
    ("core.repair", "repro.core.repair", "repair_decomposition"),
    ("core.packing", "repro.core.packing", "solve_packing"),
    ("core.covering", "repro.core.covering", "solve_covering"),
    ("decomp.elkin_neiman", "repro.decomp.elkin_neiman", "elkin_neiman_ldd"),
    ("decomp.sparse_cover", "repro.decomp.sparse_cover", "sparse_cover"),
    ("local.gather_ball", "repro.local.gather", "gather_ball"),
    ("ilp.exact", "repro.ilp.exact", "solve_packing_exact"),
    ("ilp.exact", "repro.ilp.exact", "solve_covering_exact"),
    ("ilp.milp", "repro.ilp.lp", "milp_solve"),
    ("ilp.mwu.solve", "repro.ilp.mwu", "solve_covering_mwu"),
    ("ilp.mwu.solve", "repro.ilp.mwu", "solve_packing_mwu"),
    ("ilp.mwu.fractional", "repro.ilp.mwu", "mwu_fractional"),
    ("ilp.verify", "repro.ilp.certificates", "verify_certificate"),
)

#: ``(span name, defining module, class name, method name)``.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("graphs.all_ball_sizes", "repro.graphs.csr", "CsrGraph", "all_ball_sizes"),
    ("graphs.bfs_distances", "repro.graphs.csr", "CsrGraph", "bfs_distances"),
    ("graphs.bfs_distances", "repro.graphs.graph", "Graph", "bfs_distances"),
    ("graphs.connected_components", "repro.graphs.csr", "CsrGraph",
     "connected_components"),
    ("graphs.connected_components", "repro.graphs.graph", "Graph",
     "connected_components"),
    ("ilp.restrict", "repro.ilp.instance", "PackingInstance", "restrict"),
    ("ilp.restrict", "repro.ilp.instance", "CoveringInstance", "restrict"),
    ("ilp.solve_cache", "repro.artifacts.cache", "SolveCache", "lookup"),
    ("artifacts.put", "repro.artifacts.store", "ArtifactStore", "put"),
    ("artifacts.load", "repro.artifacts.store", "ArtifactStore", "load"),
    ("serve.index", "repro.serve.service", "DecompositionIndex", "from_artifact"),
    ("serve.point", "repro.serve.service", "QueryService", "point_to_cluster"),
    ("serve.radius", "repro.serve.service", "QueryService",
     "clusters_within_radius"),
)

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("graphs.all_ball_sizes.calls", "count"),
    ("graphs.all_ball_sizes.s", "s"),
    ("graphs.all_ball_sizes.sources", "count"),
    ("graphs.all_ball_sizes.saturated_frac", "fraction"),
    ("graphs.bfs_distances.calls", "count"),
    ("graphs.bfs_distances.s", "s"),
    ("graphs.connected_components.s", "s"),
    ("graphs.generate.s", "s"),
    ("core.ldd.calls", "count"),
    ("core.ldd.s", "s"),
    ("core.ldd.self_s", "s"),
    ("core.carve.calls", "count"),
    ("core.carve.s", "s"),
    ("core.repair.s", "s"),
    ("core.repair.recarved_vertices", "count"),
    ("core.repair.dirty_clusters", "count"),
    ("core.packing.s", "s"),
    ("core.covering.s", "s"),
    ("decomp.elkin_neiman.calls", "count"),
    ("decomp.elkin_neiman.s", "s"),
    ("decomp.sparse_cover.s", "s"),
    ("local.gather_ball.calls", "count"),
    ("local.gather_ball.s", "s"),
    ("ilp.exact.calls", "count"),
    ("ilp.exact.s", "s"),
    ("ilp.restrict.calls", "count"),
    ("ilp.restrict.s", "s"),
    ("ilp.milp.calls", "count"),
    ("ilp.milp.s", "s"),
    ("ilp.solve_cache.hit_ratio", "fraction"),
    ("ilp.mwu.fractional_s", "s"),
    ("ilp.mwu.rounding_s", "s"),
    ("ilp.mwu.iterations", "count"),
    ("ilp.mwu.oracle_calls", "count"),
    ("ilp.verify.s", "s"),
    ("artifacts.put.calls", "count"),
    ("artifacts.put.s", "s"),
    ("artifacts.put.bytes", "bytes"),
    ("artifacts.load.s", "s"),
    ("artifacts.hit_rate", "fraction"),
    ("serve.index.s", "s"),
    ("serve.point.p50_s", "s"),
    ("serve.point.pNN_s", "s"),
    ("serve.radius.p50_s", "s"),
    ("serve.radius.pNN_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    phase: str
    data: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- counters taken from a call's arguments and result (outside its span) --


def _ball_counters(args, kwargs, result) -> Dict[str, float]:
    """Sources swept, and how many came back equal to their component
    size — a saturated ball, i.e. sweep work that computed a constant."""
    # Positional layout: (self, radius, weights, within, sources, ...).
    csr = args[0]
    sizes = np.asarray(result[0])
    if kwargs.get("weights") is not None or (len(args) > 2 and args[2] is not None):
        return {"sources": float(sizes.size), "saturated": 0.0}
    within = kwargs.get("within", args[3] if len(args) > 3 else None)
    sources = kwargs.get("sources", args[4] if len(args) > 4 else None)
    comp_size = np.zeros(csr.n, dtype=np.int64)
    for comp in csr.connected_components(within):
        members = np.fromiter(comp, dtype=np.int64, count=len(comp))
        comp_size[members] = members.size
    if sources is None:
        src = np.arange(csr.n, dtype=np.int64)
    else:
        src = np.fromiter(sources, dtype=np.int64)
    full = comp_size[src]
    saturated = int(np.count_nonzero((sizes == full) & (full > 0)))
    return {"sources": float(sizes.size), "saturated": float(saturated)}


def _repair_counters(args, kwargs, result) -> Dict[str, float]:
    return {
        "recarved_vertices": float(result.recarved_vertices),
        "dirty_clusters": float(len(result.dirty_clusters)),
    }


def _lookup_counters(args, kwargs, result) -> Dict[str, float]:
    return {"hit": 0.0 if result is None else 1.0}


def _put_counters(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": float(result.nbytes)}


def _mwu_counters(args, kwargs, result) -> Dict[str, float]:
    return {
        "iterations": float(result.iterations),
        "oracle_calls": float(result.oracle_calls),
    }


_COUNTERS: Dict[str, Callable[..., Dict[str, float]]] = {
    "graphs.all_ball_sizes": _ball_counters,
    "core.repair": _repair_counters,
    "ilp.solve_cache": _lookup_counters,
    "artifacts.put": _put_counters,
    "ilp.mwu.fractional": _mwu_counters,
}


class Tracer:
    """Install/uninstall timing wrappers; spans accumulate in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.paused = False
        self._stack: List[int] = []
        # (owner, attribute, original object) in installation order.
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.phase)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                self.paused = True
                try:
                    span.data = counters(args, kwargs, result)
                finally:
                    self.paused = False
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == "repro" or key.startswith(("repro.", "perfbench")))
        ]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def tail_percentile(samples: int) -> int:
    """The highest integer percentile with at least ten samples beyond it
    (50 when there are too few samples for any tail)."""
    if samples <= 20:
        return 50
    return max(50, math.floor(100.0 * (1.0 - 10.0 / samples)))


def layer_metrics(
    spans: List[Span], ops: int
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold spans into the per-layer metrics (per traced op;
    ``graphs.generate.s`` over the run's single traced set-up).  Only the outermost span of a name
    counts, so a wrapper reached through another binding of the same
    layer (``Graph.connected_components`` delegating to the CSR kernel)
    is not counted twice.  Returns the metrics and the percentile used
    for each ``pNN`` figure."""
    outermost: List[bool] = []
    for span in spans:
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        outermost.append(not nested)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def select(name: str, phase: str = "ops") -> List[int]:
        return [
            i
            for i, s in enumerate(spans)
            if s.name == name and s.phase == phase and outermost[i]
        ]

    def total(name: str, phase: str = "ops") -> float:
        return sum(spans[i].duration for i in select(name, phase))

    def data_sum(name: str, key: str) -> float:
        return sum((spans[i].data or {}).get(key, 0.0) for i in select(name))

    per_op = 1.0 / max(ops, 1)
    out: Dict[str, float] = {}
    for layer in (
        "graphs.all_ball_sizes",
        "graphs.bfs_distances",
        "core.ldd",
        "core.carve",
        "decomp.elkin_neiman",
        "local.gather_ball",
        "ilp.exact",
        "ilp.restrict",
        "ilp.milp",
        "artifacts.put",
    ):
        out[f"{layer}.calls"] = len(select(layer)) * per_op
        out[f"{layer}.s"] = total(layer) * per_op
    for layer in (
        "graphs.connected_components",
        "core.repair",
        "core.packing",
        "core.covering",
        "decomp.sparse_cover",
        "ilp.verify",
        "serve.index",
    ):
        out[f"{layer}.s"] = total(layer) * per_op
    sources = data_sum("graphs.all_ball_sizes", "sources")
    out["graphs.all_ball_sizes.sources"] = sources * per_op
    out["graphs.all_ball_sizes.saturated_frac"] = (
        data_sum("graphs.all_ball_sizes", "saturated") / sources if sources else 0.0
    )
    out["graphs.generate.s"] = total("graphs.generate", "setup")
    out["core.ldd.self_s"] = (
        sum(spans[i].duration - child_time[i] for i in select("core.ldd")) * per_op
    )
    out["core.repair.recarved_vertices"] = (
        data_sum("core.repair", "recarved_vertices") * per_op
    )
    out["core.repair.dirty_clusters"] = (
        data_sum("core.repair", "dirty_clusters") * per_op
    )
    lookups = len(select("ilp.solve_cache"))
    out["ilp.solve_cache.hit_ratio"] = (
        data_sum("ilp.solve_cache", "hit") / lookups if lookups else 0.0
    )
    out["ilp.mwu.fractional_s"] = total("ilp.mwu.fractional") * per_op
    out["ilp.mwu.rounding_s"] = (
        sum(spans[i].duration - child_time[i] for i in select("ilp.mwu.solve"))
        * per_op
    )
    out["ilp.mwu.iterations"] = data_sum("ilp.mwu.fractional", "iterations") * per_op
    out["ilp.mwu.oracle_calls"] = (
        data_sum("ilp.mwu.fractional", "oracle_calls") * per_op
    )
    out["artifacts.put.bytes"] = data_sum("artifacts.put", "bytes") * per_op
    out["artifacts.load.s"] = total("artifacts.load") * per_op
    percentiles: Dict[str, int] = {}
    for kind in ("point", "radius"):
        walls = [spans[i].duration for i in select(f"serve.{kind}")]
        pct = tail_percentile(len(walls))
        percentiles[f"serve.{kind}.pNN_s"] = pct
        out[f"serve.{kind}.p50_s"] = float(np.percentile(walls, 50)) if walls else 0.0
        out[f"serve.{kind}.pNN_s"] = float(np.percentile(walls, pct)) if walls else 0.0
    return out, percentiles
