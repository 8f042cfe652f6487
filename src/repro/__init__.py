"""repro — distributed approximation of packing and covering ILPs.

A complete Python implementation of Chang & Li, *The Complexity of
Distributed Approximation of Packing and Covering Integer Linear
Programs* (PODC 2023, arXiv:2305.01324), together with every substrate
the paper depends on:

* a LOCAL-model simulator (:mod:`repro.local`),
* graph/hypergraph structures, generators, adversarial families and
  LPS Ramanujan graphs (:mod:`repro.graphs`),
* packing/covering ILP machinery with exact local solvers
  (:mod:`repro.ilp`),
* the classical decompositions — Elkin–Neiman, Miller–Peng–Xu, sparse
  covers, Linial–Saks — and the GKM17 baseline (:mod:`repro.decomp`),
* the paper's algorithms — Theorem 1.1 LDD, Theorem 1.2 packing,
  Theorem 1.3 covering, plus the Section 1.6 blackbox and Section 4
  alternative approach (:mod:`repro.core`),
* Appendix B lower-bound machinery (:mod:`repro.lower_bounds`) and
  concentration/statistics helpers (:mod:`repro.analysis`),
* sharded experiment orchestration — scenario registry, parallel
  trial runner, JSONL result store, ``python -m repro.exp`` CLI
  (:mod:`repro.exp`),
* span tracing, counters and gauges — the only clock in the algorithm
  packages (:mod:`repro.obs`),
* partitioned execution over simulated machines with per-round
  communication metering (:mod:`repro.mpc`),
* a content-addressed persistent artifact store (:mod:`repro.artifacts`)
  and the batched query front end over it (:mod:`repro.serve`),
* repro-lint, the AST invariant checker for the determinism contract,
  plus the docs link checker (:mod:`repro.devtools`).

The package map with one line per subsystem is in the top-level
``README.md``; the layer diagram and determinism boundaries are in
``docs/ARCHITECTURE.md``.

Quickstart::

    import repro
    g = repro.random_regular(60, 3, rng=0)
    mis = repro.max_independent_set_ilp(g)
    result = repro.solve_packing(mis, eps=0.2, seed=1)
    print(result.weight, repro.solve_packing_exact(mis).weight)
"""

from repro.graphs import (
    Graph,
    Hypergraph,
    clique_family,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_connected,
    grid_graph,
    lps_graph,
    mpx_bad_family,
    path_graph,
    random_regular,
    random_tree,
    standard_families,
)
from repro.ilp import (
    Constraint,
    CoveringInstance,
    PackingInstance,
    max_independent_set_ilp,
    max_matching_ilp,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
    solve_covering_exact,
    solve_packing_exact,
    verify_covering,
    verify_packing,
)
from repro.decomp import (
    elkin_neiman_ldd,
    gkm_solve_covering,
    gkm_solve_packing,
    linial_saks_decomposition,
    mpx_decomposition,
    solve_covering_by_sparse_cover,
    sparse_cover,
)
from repro.core import (
    CoveringParams,
    LddParams,
    PackingParams,
    alternative_packing,
    blackbox_ldd,
    chang_li_covering,
    chang_li_ldd,
    chang_li_packing,
    low_diameter_decomposition,
    solve_covering,
    solve_packing,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Hypergraph",
    "clique_family",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "erdos_renyi_connected",
    "grid_graph",
    "lps_graph",
    "mpx_bad_family",
    "path_graph",
    "random_regular",
    "random_tree",
    "standard_families",
    "Constraint",
    "CoveringInstance",
    "PackingInstance",
    "max_independent_set_ilp",
    "max_matching_ilp",
    "min_dominating_set_ilp",
    "min_vertex_cover_ilp",
    "set_cover_ilp",
    "solve_covering_exact",
    "solve_packing_exact",
    "verify_covering",
    "verify_packing",
    "elkin_neiman_ldd",
    "gkm_solve_covering",
    "gkm_solve_packing",
    "linial_saks_decomposition",
    "mpx_decomposition",
    "solve_covering_by_sparse_cover",
    "sparse_cover",
    "CoveringParams",
    "LddParams",
    "PackingParams",
    "alternative_packing",
    "blackbox_ldd",
    "chang_li_covering",
    "chang_li_ldd",
    "chang_li_packing",
    "low_diameter_decomposition",
    "solve_covering",
    "solve_packing",
    "__version__",
]
