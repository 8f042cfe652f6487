"""Packing/covering ILP substrate: instances, problems, three solver tiers.

Instances (:mod:`repro.ilp.instance`, :mod:`repro.ilp.problems`) feed
three tiers of solvers:

* **exact** (:mod:`repro.ilp.exact`) — enumeration, branch-and-bound
  and a MILP cutover; optimal by construction, toy/small sizes only;
* **greedy** (:mod:`repro.ilp.greedy`) — classic cost-effectiveness
  baselines with their textbook ratio bounds, any size;
* **mwu** (:mod:`repro.ilp.mwu`) — the scalable certified tier: a
  vectorized (1+ε) multiplicative-weights solver for the fractional
  relaxation plus randomized rounding, whose every result carries a
  re-verifiable duality-gap certificate
  (:mod:`repro.ilp.certificates`).

``solve_packing_tiered`` / ``solve_covering_tiered`` dispatch exact
below a size cutoff and MWU beyond it.  :mod:`repro.ilp.lp` holds the
LP-relaxation helpers and :mod:`repro.ilp.verify` the guarantee
assertions used by the benches.
"""

from repro.artifacts.cache import SolveCache
from repro.ilp.instance import (
    FEASIBILITY_TOL,
    Constraint,
    CoveringInstance,
    PackingInstance,
)
from repro.ilp.problems import (
    ProblemEncoding,
    b_matching_ilp,
    general_covering_ilp,
    knapsack_packing_ilp,
    max_independent_set_ilp,
    max_matching_ilp,
    min_dominating_set_ilp,
    min_edge_cover_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
)
from repro.ilp.exact import (
    ExactSolution,
    max_weight_independent_set,
    solve_covering_exact,
    solve_mwis,
    solve_packing_exact,
)
from repro.ilp.greedy import (
    greedy_covering,
    greedy_dominating_set,
    greedy_maximal_matching,
    greedy_mis,
    greedy_packing,
    matching_vertex_cover,
)
from repro.ilp.lp import lp_relaxation_value, milp_solve
from repro.ilp.certificates import (
    Certificate,
    CertificateReport,
    MwuProblem,
    verify_certificate,
)
from repro.ilp.mwu import (
    MwuSolution,
    TieredSolution,
    mwu_fractional,
    solve_covering_mwu,
    solve_covering_tiered,
    solve_packing_mwu,
    solve_packing_tiered,
)
from repro.ilp.integer import (
    IntegerReduction,
    integer_covering_to_binary,
    integer_packing_to_binary,
)
from repro.ilp.verify import (
    VerifiedSolution,
    assert_covering_guarantee,
    assert_packing_guarantee,
    verify_covering,
    verify_packing,
)

__all__ = [
    "FEASIBILITY_TOL",
    "Constraint",
    "CoveringInstance",
    "PackingInstance",
    "ProblemEncoding",
    "b_matching_ilp",
    "general_covering_ilp",
    "knapsack_packing_ilp",
    "max_independent_set_ilp",
    "max_matching_ilp",
    "min_dominating_set_ilp",
    "min_edge_cover_ilp",
    "min_vertex_cover_ilp",
    "set_cover_ilp",
    "ExactSolution",
    "SolveCache",
    "max_weight_independent_set",
    "solve_covering_exact",
    "solve_mwis",
    "solve_packing_exact",
    "greedy_covering",
    "greedy_dominating_set",
    "greedy_maximal_matching",
    "greedy_mis",
    "greedy_packing",
    "matching_vertex_cover",
    "lp_relaxation_value",
    "milp_solve",
    "Certificate",
    "CertificateReport",
    "MwuProblem",
    "verify_certificate",
    "MwuSolution",
    "TieredSolution",
    "mwu_fractional",
    "solve_covering_mwu",
    "solve_covering_tiered",
    "solve_packing_mwu",
    "solve_packing_tiered",
    "IntegerReduction",
    "integer_covering_to_binary",
    "integer_packing_to_binary",
    "VerifiedSolution",
    "assert_covering_guarantee",
    "assert_packing_guarantee",
    "verify_covering",
    "verify_packing",
]
