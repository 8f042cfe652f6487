"""Solution verification and approximation-ratio certificates.

Every experiment funnels its output through these checkers so that a
reported ratio is always backed by (a) a feasibility proof and (b) an
optimum or optimum-bound of stated provenance (exact solve, MILP, or LP
relaxation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.ilp.exact import solve_covering_exact, solve_packing_exact
from repro.ilp.instance import CoveringInstance, PackingInstance
from repro.ilp.lp import lp_relaxation_value
from repro.ilp.mwu import MWU_COVERING_EXACT_LIMIT, MWU_PACKING_EXACT_LIMIT
from repro.util.validation import require

Instance = Union[PackingInstance, CoveringInstance]


@dataclass(frozen=True)
class VerifiedSolution:
    """A feasibility-checked solution with an approximation certificate.

    ``ratio`` is ``weight / reference`` for packing (want close to 1
    from below) and for covering (want close to 1 from above);
    ``reference_kind`` records how the reference optimum was obtained
    ("exact", "lp-bound", or "given").
    """

    feasible: bool
    weight: float
    reference: float
    reference_kind: str

    @property
    def ratio(self) -> float:
        if self.reference == 0:
            return 1.0 if self.weight == 0 else float("inf")
        return self.weight / self.reference


def verify_packing(
    instance: PackingInstance,
    chosen: Iterable[int],
    reference: Optional[float] = None,
    exact_limit: int = MWU_PACKING_EXACT_LIMIT,
) -> VerifiedSolution:
    """Check feasibility and compute the ratio to the optimum.

    ``reference`` may be supplied (kind "given"); otherwise the optimum
    is computed exactly when ``n <= exact_limit`` and bounded by the LP
    relaxation above that.  For packing, ratio <= 1 always (up to LP
    slack); the (1-eps) guarantee means ratio >= 1 - eps.
    """
    chosen_set = set(chosen)
    feasible = instance.is_feasible(chosen_set)
    weight = instance.weight(chosen_set)
    if reference is not None:
        kind = "given"
    elif instance.n <= exact_limit:
        reference = solve_packing_exact(instance).weight
        kind = "exact"
    else:
        reference = lp_relaxation_value(instance)
        kind = "lp-bound"
    return VerifiedSolution(
        feasible=feasible, weight=weight, reference=reference, reference_kind=kind
    )


def verify_covering(
    instance: CoveringInstance,
    chosen: Iterable[int],
    reference: Optional[float] = None,
    exact_limit: int = MWU_COVERING_EXACT_LIMIT,
) -> VerifiedSolution:
    """Check feasibility and compute the ratio to the optimum.

    For covering, ratio >= 1 (up to LP slack); the (1+eps) guarantee
    means ratio <= 1 + eps.
    """
    chosen_set = set(chosen)
    feasible = instance.is_feasible(chosen_set)
    weight = instance.weight(chosen_set)
    if reference is not None:
        kind = "given"
    elif instance.n <= exact_limit:
        reference = solve_covering_exact(instance).weight
        kind = "exact"
    else:
        reference = lp_relaxation_value(instance)
        kind = "lp-bound"
    return VerifiedSolution(
        feasible=feasible, weight=weight, reference=reference, reference_kind=kind
    )


def assert_packing_guarantee(
    instance: PackingInstance,
    chosen: Iterable[int],
    eps: float,
    reference: Optional[float] = None,
) -> VerifiedSolution:
    """Raise ``AssertionError`` unless the (1-eps) guarantee holds."""
    verdict = verify_packing(instance, chosen, reference=reference)
    require(0 < eps < 1, f"eps must be in (0,1), got {eps}")
    if not verdict.feasible:
        raise AssertionError("packing solution is infeasible")
    if verdict.weight < (1 - eps) * verdict.reference - 1e-9:
        raise AssertionError(
            f"packing ratio {verdict.ratio:.4f} below 1 - eps = {1 - eps:.4f} "
            f"(reference: {verdict.reference_kind})"
        )
    return verdict


def assert_covering_guarantee(
    instance: CoveringInstance,
    chosen: Iterable[int],
    eps: float,
    reference: Optional[float] = None,
) -> VerifiedSolution:
    """Raise ``AssertionError`` unless the (1+eps) guarantee holds."""
    verdict = verify_covering(instance, chosen, reference=reference)
    require(0 < eps < 1, f"eps must be in (0,1), got {eps}")
    if not verdict.feasible:
        raise AssertionError("covering solution is infeasible")
    if verdict.weight > (1 + eps) * verdict.reference + 1e-9:
        raise AssertionError(
            f"covering ratio {verdict.ratio:.4f} above 1 + eps = {1 + eps:.4f} "
            f"(reference: {verdict.reference_kind})"
        )
    return verdict
