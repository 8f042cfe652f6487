"""Graph and hypergraph substrate.

Everything the decomposition and ILP algorithms run on: the
:class:`Graph` / :class:`Hypergraph` data structures, seeded generators,
the Appendix C adversarial families, LPS Ramanujan graphs for the
Appendix B lower bounds, and the reduction transforms.
"""

from repro.graphs.graph import Graph
from repro.graphs.csr import CsrGraph
from repro.graphs.hypergraph import Hypergraph
from repro.graphs.generators import (
    balanced_tree,
    caterpillar,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_connected,
    grid_graph,
    hub_and_spokes,
    path_graph,
    random_bipartite_regular,
    random_geometric,
    random_regular,
    random_tree,
    standard_families,
    star_graph,
)
from repro.graphs.adversarial import (
    MpxBadGraph,
    clique_family,
    en_failure_event,
    mpx_bad_family,
    mpx_failure_event,
)
from repro.graphs.transforms import (
    DominatingGadget,
    SubdividedGraph,
    attach_path,
    dominating_gadget,
    subdivide,
)
from repro.graphs.ramanujan import (
    LpsGraph,
    find_lps_q,
    girth_vertex_transitive,
    lps_generators,
    lps_graph,
)
from repro.graphs.highgirth import (
    bipartite_double_cover,
    heawood_graph,
    mcgee_graph,
    pappus_graph,
    petersen_graph,
)
from repro.graphs.metrics import (
    DecompositionStats,
    cut_size,
    decomposition_stats,
    is_dominating_set,
    is_independent_set,
    is_matching,
    is_vertex_cover,
    validate_partition,
)

__all__ = [
    "Graph",
    "CsrGraph",
    "Hypergraph",
    "balanced_tree",
    "caterpillar",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "erdos_renyi_connected",
    "grid_graph",
    "hub_and_spokes",
    "path_graph",
    "random_bipartite_regular",
    "random_geometric",
    "random_regular",
    "random_tree",
    "standard_families",
    "star_graph",
    "MpxBadGraph",
    "clique_family",
    "en_failure_event",
    "mpx_bad_family",
    "mpx_failure_event",
    "DominatingGadget",
    "SubdividedGraph",
    "attach_path",
    "dominating_gadget",
    "subdivide",
    "LpsGraph",
    "find_lps_q",
    "girth_vertex_transitive",
    "lps_generators",
    "lps_graph",
    "bipartite_double_cover",
    "heawood_graph",
    "mcgee_graph",
    "pappus_graph",
    "petersen_graph",
    "DecompositionStats",
    "cut_size",
    "decomposition_stats",
    "is_dominating_set",
    "is_independent_set",
    "is_matching",
    "is_vertex_cover",
    "validate_partition",
]
