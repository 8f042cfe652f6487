"""``repro.mpc`` — partitioned execution over simulated machines.

The ROADMAP's third parallelism level: where
:mod:`repro.graphs.parallel` shards *source chunks* across local
processes, this package shards the **graph itself** across simulated
ranks with a per-machine memory budget S, runs the LDD's BFS-shaped
steps as rank-local CSR compute plus explicit inter-rank exchange, and
meters the communication each round actually moves — the quantity the
MPC model bounds and a single-box run cannot measure.

Layering:

* :mod:`repro.mpc.partition` — deterministic vertex sharding
  (contiguous-range or hash layout) with per-rank local CSR rows,
  halo, and the exchange plan;
* :mod:`repro.mpc.metering` — :class:`CommMeter`, the per-round
  per-rank bytes/messages series (shared with the CONGEST audit);
* :mod:`repro.mpc.driver` — the round drivers, bit-identical to the
  serial kernels at any rank count.  Ranks are simulated in process:
  each rank step is a direct call on the shard's
  :class:`~repro.mpc.partition.ShardKernel`, in rank order.

Entry point::

    run = MpcConfig(ranks=4).start(graph.csr())
    sizes, depths = run.all_ball_sizes(radius)
    run.meter.round_table()      # per-round comm series
    run.comm_budget_bytes        # the measured S

or pass ``mpc=run`` to :func:`repro.core.ldd.chang_li_ldd` and
inspect ``run.meter`` after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.mpc.driver import mpc_all_ball_sizes, mpc_bfs_distances
from repro.mpc.metering import CommMeter
from repro.mpc.partition import (
    LAYOUTS,
    GraphPartition,
    RankShard,
    ShardKernel,
    check_layout,
    partition_graph,
)


class MpcRun:
    """One partitioned execution: partition + meter.

    Callers keep the run object across driver calls so the meter
    accumulates the whole execution's round series (the LDD threads it
    through every gather), then read ``run.meter`` afterwards.
    """

    def __init__(self, csr, partition: GraphPartition) -> None:
        self.csr = csr
        self.partition = partition
        self.meter = CommMeter(partition.ranks, prefix="mpc", unit="bytes")

    @property
    def ranks(self) -> int:
        return self.partition.ranks

    @property
    def comm_budget_bytes(self) -> int:
        """The per-machine budget S the round series is audited against."""
        return self.partition.memory_budget

    def within_comm_budget(self) -> bool:
        """Did every round's busiest rank stay within O(S)?"""
        series = self.meter.max_rank_series()
        return all(load <= self.comm_budget_bytes for load in series)

    def all_ball_sizes(
        self,
        radius: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        within=None,
        sources=None,
        chunk_size: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return mpc_all_ball_sizes(
            self,
            radius=radius,
            weights=weights,
            within=within,
            sources=sources,
            chunk_size=chunk_size,
        )

    def bfs_distances(
        self, sources, radius: Optional[int] = None, within=None
    ) -> np.ndarray:
        return mpc_bfs_distances(self, sources, radius=radius, within=within)


@dataclass(frozen=True)
class MpcConfig:
    """Declarative description of a partitioned execution.

    ``ranks=None`` lets ``memory_budget`` (bytes per machine) drive a
    doubling search for the smallest fitting rank count.
    """

    ranks: Optional[int] = 1
    memory_budget: Optional[int] = None
    layout: str = "contiguous"

    def start(self, csr) -> MpcRun:
        """Partition ``csr`` and open a run with a fresh meter."""
        check_layout(self.layout)
        partition = partition_graph(
            csr,
            ranks=self.ranks,
            memory_budget=self.memory_budget,
            layout=self.layout,
        )
        return MpcRun(csr, partition)


__all__ = [
    "LAYOUTS",
    "CommMeter",
    "GraphPartition",
    "MpcConfig",
    "MpcRun",
    "RankShard",
    "ShardKernel",
    "check_layout",
    "mpc_all_ball_sizes",
    "mpc_bfs_distances",
    "partition_graph",
]
