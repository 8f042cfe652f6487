"""Deterministic graph sharding across simulated machines.

The MPC/cluster model the ROADMAP targets stores the *graph itself*
across machines of memory budget ``S``: each simulated rank owns a
vertex range (plus the halo of foreign endpoints its rows reference)
and the round driver (:mod:`repro.mpc.driver`) alternates rank-local
CSR compute with explicit inter-rank exchanges.  This module builds
that layout deterministically:

* ``"contiguous"`` — rank ``r`` owns the index range
  ``[r·n/R, (r+1)·n/R)``; the natural layout for vertex-ordered
  families (grids, geometric graphs), where most edges stay local;
* ``"hash"`` — rank ``r`` owns ``{v : v mod R = r}``; the
  load-balancing layout for adversarial orderings.

Both are pure functions of ``(n, ranks)``, so a partition is
bit-reproducible across processes and sessions.  Per-rank rows are the
*same* CSR rows the single-box kernels iterate (neighbor order
preserved, columns remapped to the rank's local index space: owned
vertices first in sorted order, then halo vertices in sorted order),
which is what lets the round driver reproduce the serial kernels
bit-for-bit at any rank count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.util.validation import require

#: Vertex-to-rank assignment schemes.
LAYOUTS = ("contiguous", "hash")


def check_layout(layout: str) -> None:
    """Validate a ``layout=`` argument."""
    require(
        layout in LAYOUTS,
        f"unknown partition layout {layout!r}; expected one of {LAYOUTS}",
    )


class ShardKernel:
    """Rank-local CSR rows plus the derived expansion arrays.

    ``indptr``/``indices`` hold the owned vertices' neighbor lists with
    columns remapped into the local index space: owned vertex ``j`` (in
    sorted-global order) is local index ``j``; halo vertex ``k`` (in
    sorted-global order) is local index ``n_owned + k``.  The derived
    ``gather_index``/``starts``/``zero_degree`` mirror
    :meth:`repro.graphs.csr.CsrGraph._init_from_arrays`, so the packed
    expansion below computes exactly what the single-box reduceat
    computes for the owned rows.

    Everything derived here is O(local size).
    """

    __slots__ = (
        "owned",
        "halo",
        "indptr",
        "indices",
        "degrees",
        "n_owned",
        "n_local",
        "nnz",
        "gather_index",
        "starts",
        "zero_degree",
        "local_to_global",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        owned: np.ndarray,
        halo: np.ndarray,
    ) -> None:
        self.owned = owned
        self.halo = halo
        self.indptr = indptr
        self.indices = indices
        self.n_owned = len(owned)
        self.n_local = len(owned) + len(halo)
        self.nnz = len(indices)
        self.degrees = np.diff(indptr)
        # Mirrors CsrGraph._init_from_arrays: one extra gather row keeps
        # every reduceat start in range for trailing degree-0 vertices;
        # degree-0 rows are zeroed after the reduction.
        if self.n_owned:
            self.gather_index = np.concatenate((indices, [0]))
        else:
            self.gather_index = indices
        self.starts = indptr[:-1]
        zero = self.degrees == 0
        self.zero_degree = np.nonzero(zero)[0] if zero.any() else None
        self.local_to_global = np.concatenate((owned, halo))

    @property
    def storage_bytes(self) -> int:
        """Bytes of graph state resident on this rank (the S accounting)."""
        return int(
            self.indptr.nbytes
            + self.indices.nbytes
            + self.owned.nbytes
            + self.halo.nbytes
        )

    def expand(
        self,
        frontier_local: np.ndarray,
        visited: np.ndarray,
        mask_owned: Optional[np.ndarray],
    ) -> np.ndarray:
        """One packed level over the owned rows: the rank-local half of
        the segmented-reduceat arm of
        :meth:`repro.graphs.csr._PackedSweep.expand`.

        Unlike that engine, which owns its frontier and visited sets,
        this kernel keeps no sweep state: the driver passes them in.
        ``frontier_local`` is the (n_local, W) frontier — owned rows
        first, halo rows as received this round (absent halo rows stay
        zero, exactly the value they carry).  Returns the newly-reached
        bits of the owned rows; the caller ORs them into ``visited``.
        """
        words = frontier_local.shape[1]
        if self.n_owned == 0:
            return np.zeros((0, words), dtype=np.uint64)
        if self.nnz == 0:
            return np.zeros((self.n_owned, words), dtype=np.uint64)
        gathered = frontier_local[self.gather_index]
        gathered[-1] = 0  # padding row: keeps the last segment harmless
        reach = np.bitwise_or.reduceat(gathered, self.starts, axis=0)
        if self.zero_degree is not None:
            reach[self.zero_degree] = 0
        np.bitwise_and(reach, ~visited, out=reach)
        if mask_owned is not None:
            reach[~mask_owned] = 0
        return reach

    def neighbors_global(self, owned_local: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of owned rows, as global ids.

        The rank-local half of
        :meth:`repro.graphs.csr.CsrGraph._neighbors_of` — identical
        neighbor multiset per vertex, mapped back through the local
        index space.
        """
        counts = self.degrees[owned_local]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[owned_local]
        excl = np.cumsum(counts) - counts
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
        return self.local_to_global[self.indices[pos]]


@dataclass
class RankShard:
    """One simulated machine: its kernel plus the exchange plan.

    ``send_to[dst]`` lists the owned-local row indices whose frontier
    rows rank ``dst`` needs (they sit in ``dst``'s halo);
    ``recv_from[src]`` lists the matching positions in *this* rank's
    local frontier (halo slots, ``>= n_owned``).  Both are sorted by
    global id, so the exchange plan — and therefore the metering — is
    deterministic.  Only non-empty entries are stored.
    """

    rank: int
    kernel: ShardKernel
    send_to: Dict[int, np.ndarray] = field(default_factory=dict)
    recv_from: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def storage_bytes(self) -> int:
        plan = sum(int(idx.nbytes) for idx in self.send_to.values())
        plan += sum(int(idx.nbytes) for idx in self.recv_from.values())
        return self.kernel.storage_bytes + plan


@dataclass
class GraphPartition:
    """A deterministic sharding of one CSR graph across ``ranks``.

    ``owner[v]`` is the rank owning vertex ``v``; ``memory_budget`` is
    the per-machine budget S in bytes the communication metering is
    audited against (defaults to the largest rank's resident storage —
    the measured S this partition actually requires).
    """

    n: int
    ranks: int
    layout: str
    owner: np.ndarray
    shards: List[RankShard]
    memory_budget: int = 0

    def __post_init__(self) -> None:
        if self.memory_budget <= 0:
            self.memory_budget = self.max_rank_storage_bytes

    @property
    def max_rank_storage_bytes(self) -> int:
        """The largest rank's resident bytes — the measured S."""
        return max((s.storage_bytes for s in self.shards), default=0)

    @property
    def fits_budget(self) -> bool:
        return self.max_rank_storage_bytes <= self.memory_budget


def _owner_of(n: int, ranks: int, layout: str) -> np.ndarray:
    if layout == "contiguous":
        bounds = np.array(
            [(r * n) // ranks for r in range(ranks + 1)], dtype=np.int64
        )
        return (
            np.searchsorted(bounds, np.arange(n, dtype=np.int64), side="right")
            - 1
        ).astype(np.int64)
    return (np.arange(n, dtype=np.int64) % ranks).astype(np.int64)


def partition_graph(
    csr,
    ranks: Optional[int] = None,
    memory_budget: Optional[int] = None,
    layout: str = "contiguous",
) -> GraphPartition:
    """Shard a :class:`~repro.graphs.csr.CsrGraph` across simulated ranks.

    Either ``ranks`` is given directly, or ``memory_budget`` (bytes per
    machine) drives a doubling search for the smallest power-of-two
    rank count whose largest shard fits the budget (capped at ``n``
    ranks — one vertex per machine is the finest grain a vertex layout
    can reach).  ``ranks`` may exceed the vertex count; surplus ranks
    get empty shards, which the round driver skips (forced-tiny
    partitions are part of the determinism test matrix).
    """
    check_layout(layout)
    require(
        ranks is not None or memory_budget is not None,
        "partition_graph needs ranks= or memory_budget=",
    )
    if ranks is None:
        assert memory_budget is not None
        require(memory_budget > 0, "memory_budget must be positive")
        r = 1
        part = _build(csr, r, layout)
        while part.max_rank_storage_bytes > memory_budget and r < max(csr.n, 1):
            r *= 2
            part = _build(csr, r, layout)
        part.memory_budget = int(memory_budget)
        return part
    require(int(ranks) >= 1, f"ranks must be >= 1, got {ranks}")
    part = _build(csr, int(ranks), layout)
    if memory_budget is not None:
        require(memory_budget > 0, "memory_budget must be positive")
        part.memory_budget = int(memory_budget)
    return part


def _build(csr, ranks: int, layout: str) -> GraphPartition:
    n = csr.n
    owner = _owner_of(n, ranks, layout)
    shards: List[RankShard] = []
    for r in range(ranks):
        owned = np.nonzero(owner == r)[0].astype(np.int64)
        n_owned = len(owned)
        if n_owned:
            counts = csr.degrees[owned]
            indptr = np.zeros(n_owned + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            neigh = csr._neighbors_of(owned)
        else:
            indptr = np.zeros(1, dtype=np.int64)
            neigh = np.empty(0, dtype=np.int64)
        foreign = neigh[owner[neigh] != r] if neigh.size else neigh
        halo = np.unique(foreign)
        local = np.empty(len(neigh), dtype=np.int64)
        if neigh.size:
            mine = owner[neigh] == r
            local[mine] = np.searchsorted(owned, neigh[mine])
            local[~mine] = n_owned + np.searchsorted(halo, neigh[~mine])
        kernel = ShardKernel(indptr, local, owned, halo)
        shards.append(RankShard(rank=r, kernel=kernel))
    # Exchange plan: for each ordered pair, the rows src owns that sit
    # in dst's halo — sorted by global id on both sides, so send rows
    # and recv slots line up element-for-element.
    for src in range(ranks):
        for dst in range(ranks):
            if src == dst:
                continue
            shared = np.intersect1d(
                shards[src].kernel.owned,
                shards[dst].kernel.halo,
                assume_unique=True,
            )
            if shared.size == 0:
                continue
            shards[src].send_to[dst] = np.searchsorted(
                shards[src].kernel.owned, shared
            )
            shards[dst].recv_from[src] = shards[dst].kernel.n_owned + (
                np.searchsorted(shards[dst].kernel.halo, shared)
            )
    return GraphPartition(
        n=n, ranks=ranks, layout=layout, owner=owner, shards=shards
    )
