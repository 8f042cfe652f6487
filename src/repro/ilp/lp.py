"""Fractional LP relaxations and the exact HiGHS MILP via scipy.

Two uses:

* **Optimum bounds** — the LP relaxation upper-bounds packing optima and
  lower-bounds covering optima, giving approximation-ratio certificates
  on instances too large for the exact 0/1 solvers (this mirrors the
  role of [KMW16], which solves the *fractional* problem distributedly).
* **Large exact subproblems** — ``milp_solve`` runs scipy's exact
  HiGHS MILP.  :mod:`repro.ilp.exact` routes every restricted
  subproblem above its ``MILP_CUTOVER_*`` size to it in production
  (the bulk of the weighted packing/covering solve time); tests also
  use it to cross-check the built-in branch-and-bound solvers.
"""

from __future__ import annotations

from typing import Set, Tuple, Union

import numpy as np
from scipy import optimize

from repro.ilp.instance import CoveringInstance, PackingInstance

Instance = Union[PackingInstance, CoveringInstance]


def lp_relaxation_value(instance: Instance) -> float:
    """Optimal value of the fractional relaxation over ``[0, 1]^n``.

    For packing this is an upper bound on the ILP optimum; for covering
    a lower bound.  Raises ``RuntimeError`` if the LP solver fails.
    """
    matrix, bounds = instance.matrix, instance.bounds
    weights = np.asarray(instance.weights)
    if isinstance(instance, PackingInstance):
        res = optimize.linprog(
            -weights,
            A_ub=matrix,
            b_ub=bounds,
            bounds=[(0, 1)] * instance.n,
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"packing LP failed: {res.message}")
        return -float(res.fun)
    res = optimize.linprog(
        weights,
        A_ub=-matrix,
        b_ub=-bounds,
        bounds=[(0, 1)] * instance.n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"covering LP failed: {res.message}")
    return float(res.fun)


def milp_solve(instance: Instance) -> Tuple[float, Set[int]]:
    """Exact 0/1 optimum via scipy's HiGHS MILP.

    The production backend of :mod:`repro.ilp.exact` for subproblems
    above ``MILP_CUTOVER_*``, and the tests' cross-check oracle.
    """
    matrix, bounds = instance.matrix, instance.bounds
    weights = np.asarray(instance.weights)
    integrality = np.ones(instance.n)
    var_bounds = optimize.Bounds(0, 1)
    if isinstance(instance, PackingInstance):
        constraints = optimize.LinearConstraint(matrix, ub=bounds)
        res = optimize.milp(
            -weights,
            constraints=constraints,
            integrality=integrality,
            bounds=var_bounds,
        )
        if res.status != 0:
            raise RuntimeError(f"packing MILP failed: {res.message}")
        chosen = {i for i, x in enumerate(res.x) if x > 0.5}
        return float(-res.fun), chosen
    constraints = optimize.LinearConstraint(matrix, lb=bounds)
    res = optimize.milp(
        weights,
        constraints=constraints,
        integrality=integrality,
        bounds=var_bounds,
    )
    if res.status != 0:
        raise RuntimeError(f"covering MILP failed: {res.message}")
    chosen = {i for i, x in enumerate(res.x) if x > 0.5}
    return float(res.fun), chosen
