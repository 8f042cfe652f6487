"""Round accounting and the radius-gather primitive.

A T-round LOCAL algorithm is equivalent to each node computing a
function of its T-radius neighborhood.  The ball-growing algorithms in
the paper are phrased that way ("gather the topology of N^b(v)"), so
the fast execution path simulates gathers directly and *charges* the
rounds they would cost to a :class:`RoundLedger`.

Two round counts are tracked per phase:

* ``nominal`` — the worst-case radius the algorithm requests (what the
  paper's round-complexity formulas count);
* ``effective`` — the depth actually needed before the BFS frontier
  emptied (what an implementation that detects quiescence would pay;
  capped by the graph diameter).

Benchmarks report both; the nominal count reproduces the paper's
O(·) formulas, the effective count is the measurable quantity on
small-diameter test graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.util.validation import require


@dataclass(frozen=True)
class PhaseCharge:
    """One synchronous phase's round cost."""

    label: str
    nominal: int
    effective: int


@dataclass
class RoundLedger:
    """Accumulates the round cost of an algorithm, phase by phase.

    Phases are sequential; parallel work within a phase must be merged
    by the caller into a single charge (all centers gather
    simultaneously, so a phase costs the *maximum* gather depth, not
    the sum).
    """

    charges: List[PhaseCharge] = field(default_factory=list)

    def charge(self, label: str, nominal: int, effective: Optional[int] = None) -> None:
        require(nominal >= 0, f"nominal rounds must be >= 0, got {nominal}")
        eff = nominal if effective is None else effective
        require(eff >= 0, f"effective rounds must be >= 0, got {eff}")
        self.charges.append(PhaseCharge(label, nominal, min(eff, nominal)))

    @property
    def nominal_rounds(self) -> int:
        return sum(c.nominal for c in self.charges)

    @property
    def effective_rounds(self) -> int:
        return sum(c.effective for c in self.charges)

    def by_label(self) -> Dict[str, Tuple[int, int]]:
        """Aggregate (nominal, effective) per label."""
        agg: Dict[str, Tuple[int, int]] = {}
        for c in self.charges:
            nom, eff = agg.get(c.label, (0, 0))
            agg[c.label] = (nom + c.nominal, eff + c.effective)
        return agg

    def merge(self, other: "RoundLedger", prefix: str = "") -> None:
        """Append another ledger's charges (sequential composition)."""
        for c in other.charges:
            self.charges.append(
                PhaseCharge(prefix + c.label, c.nominal, c.effective)
            )

    def merge_parallel(self, others: Sequence["RoundLedger"], label: str) -> None:
        """Merge ledgers of algorithms that ran *simultaneously*.

        A parallel composition costs the maximum total rounds among the
        branches; collapsed into a single charge under ``label``.
        """
        if not others:
            return
        nominal = max(o.nominal_rounds for o in others)
        effective = max(o.effective_rounds for o in others)
        self.charges.append(PhaseCharge(label, nominal, effective))


@dataclass(frozen=True)
class GatherResult:
    """A gathered radius-b neighborhood.

    ``layers[j]`` is the set of vertices at distance exactly j from the
    center set; ``ball`` is their union; ``depth_reached`` the largest
    non-empty layer index (the effective gather cost).
    """

    layers: Tuple[frozenset, ...]
    depth_reached: int

    @property
    def ball(self) -> Set[int]:
        out: Set[int] = set()
        for layer in self.layers:
            out.update(layer)
        return out

    def layer(self, j: int) -> frozenset:
        if j < len(self.layers):
            return self.layers[j]
        return frozenset()


def gather_ball(
    graph: Graph,
    centers: Iterable[int],
    radius: int,
    ledger: Optional[RoundLedger] = None,
    label: str = "gather",
    within=None,
    mpc=None,
) -> GatherResult:
    """Gather ``N^radius(centers)`` as BFS layers, charging the ledger.

    ``within`` restricts the BFS to a residual vertex set (balls in the
    carving phases grow inside the residual graph ``G_i``); it may also
    be a precomputed boolean mask, letting carving drivers amortize the
    set-to-mask conversion across all carves of one residual snapshot.
    Charges ``radius`` nominal rounds and ``depth_reached`` effective
    rounds; callers composing many simultaneous gathers should instead
    charge once via :meth:`RoundLedger.merge_parallel` and pass
    ``ledger=None``.

    The BFS is one multi-source
    :meth:`~repro.graphs.csr.CsrGraph.bfs_distances` call (its levels are
    sequential, so there are no chunks to shard); its reference is
    :meth:`Graph.bfs_distances` with the same ``within``.

    ``mpc`` (an :class:`~repro.mpc.MpcRun` started on *this* graph's
    CSR) runs the BFS over the partitioned ranks instead —
    :func:`repro.mpc.driver.mpc_bfs_distances` is bit-identical to the
    single-box BFS, so the layers are too, and each BFS level becomes
    one metered communication round on ``mpc.meter``.
    """
    require(radius >= 0, f"radius must be >= 0, got {radius}")
    if mpc is not None:
        dist = mpc.bfs_distances(centers, radius=radius, within=within)
    else:
        dist = graph.csr().bfs_distances(centers, radius=radius, within=within)
    reached = np.nonzero(dist >= 0)[0]
    depth = int(dist[reached].max()) if reached.size else 0
    layers: List[Set[int]] = [set() for _ in range(depth + 1)]
    for v, d in zip(reached.tolist(), dist[reached].tolist(), strict=True):
        layers[d].add(v)
    if ledger is not None:
        ledger.charge(label, radius, depth)
    return GatherResult(
        layers=tuple(frozenset(layer) for layer in layers),
        depth_reached=depth,
    )
