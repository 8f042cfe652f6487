"""Round drivers: the ball-growing sweeps as rank-local compute plus
explicit exchange, bit-identical to the single-box kernels.

Two primitives cover every BFS-shaped step of the LDD pipeline:

* :func:`mpc_all_ball_sizes` — the ``n_v`` estimation sweep
  (:meth:`~repro.graphs.csr.CsrGraph.all_ball_sizes`).  Arguments and
  chunk boundaries are the serial kernel's (both go through
  :meth:`~repro.graphs.csr.CsrGraph.ball_sweep_inputs`); each chunk runs a
  level-synchronous packed sweep whose per-level state is row-sharded
  across the ranks.  One round per BFS level: (1) halo exchange —
  each rank sends the frontier rows its neighbors' owners need (only
  rows with a live bit travel; ids + row words are metered per
  src→dst pair), (2) rank-local reduceat expansion over owned rows,
  (3) a metered OR-allreduce of the live-lane words (rank order) that
  drives depths and termination.  The sweep is the serial
  ``_ball_chunk`` without its word retirement — a full-width
  variant that is bit-identical in sizes and depths, because a retired
  word's lanes never change again — so the final visited matrix,
  depths, and (exact-integer) unweighted sizes equal the single-box
  results at **any** rank count.  Weighted sizes are harvested on the
  coordinator from the reassembled full matrix: identical across rank
  counts by construction, but the serial kernel harvests retirement
  groups, so weighted totals may differ from the single-box run in
  the last ulp.
* :func:`mpc_bfs_distances` — the carve-gather BFS
  (:meth:`~repro.graphs.csr.CsrGraph.bfs_distances`).  One round per
  level: each rank expands the frontier vertices it owns, candidate
  ids are routed to their owners (cross-rank ids metered), and owners
  apply the fresh/mask filters.  All-integer, so distances — and
  therefore gather layers, carves, and the whole decomposition — are
  bit-identical to the serial BFS.

Input distribution (seeds, sources) and output collection are out of
band, as in the standard MPC accounting; phase 3 of the LDD
(Elkin–Neiman + components) stays coordinator-local (see the
partitioned-execution section of ``src/repro/exp/README.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as _obs
from repro.graphs.csr import _column_weights, _vertex_ids
from repro.util.validation import require


def mpc_all_ball_sizes(
    run,
    radius: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    within=None,
    sources=None,
    chunk_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Partitioned ball sizes: the ``all_ball_sizes`` contract under MPC.

    ``run`` is an :class:`~repro.mpc.MpcRun`; see the module docstring
    for the round structure and the bit-identity argument.
    """
    mask, w, sizes, depths, chunks = run.csr.ball_sweep_inputs(
        radius, weights, within, sources, chunk_size
    )
    with _obs.span("mpc.all_ball_sizes"):
        for s_chunk, s_sizes, s_depths in chunks:
            with _obs.span("mpc.ball_chunk"):
                _sweep_chunk(run, s_chunk, radius, w, mask, s_sizes, s_depths)
    return sizes, depths


def _sweep_chunk(
    run,
    s_chunk: np.ndarray,
    radius: Optional[int],
    w: Optional[np.ndarray],
    mask: Optional[np.ndarray],
    sizes_out: np.ndarray,
    depths_out: np.ndarray,
) -> None:
    """Level-synchronous partitioned sweep of one source chunk."""
    csr, part, meter = run.csr, run.partition, run.meter
    shards = part.shards
    ranks = len(shards)
    count = len(s_chunk)
    if count == 0:
        return
    words = (count + 63) // 64
    row_bytes = 8 + words * 8  # global id + packed words
    seeded = csr._seed_packed(np.asarray(s_chunk, dtype=np.int64), count, mask)
    visited: List[np.ndarray] = [seeded[s.kernel.owned] for s in shards]
    frontier_owned: List[np.ndarray] = [v.copy() for v in visited]
    mask_owned = [
        None if mask is None else mask[s.kernel.owned] for s in shards
    ]
    level = 0
    while radius is None or level < radius:
        with meter.round("ball.level"):
            # (1) Halo exchange: only frontier rows with a live bit
            # travel; absent halo rows keep their true value (zero).
            frontier_local: List[np.ndarray] = []
            for r, shard in enumerate(shards):
                k = shard.kernel
                block = np.zeros((k.n_local, words), dtype=np.uint64)
                if k.n_owned:
                    block[: k.n_owned] = frontier_owned[r]
                frontier_local.append(block)
            for src_rank, shard in enumerate(shards):
                rows_owned = frontier_owned[src_rank]
                for dst_rank, send_idx in shard.send_to.items():
                    rows = rows_owned[send_idx]
                    live_rows = np.nonzero(rows.any(axis=1))[0]
                    if live_rows.size == 0:
                        continue
                    meter.record_send(
                        src_rank,
                        dst_rank,
                        int(live_rows.size) * row_bytes,
                        messages=1,
                    )
                    slots = shards[dst_rank].recv_from[src_rank][live_rows]
                    frontier_local[dst_rank][slots] = rows[live_rows]
            # (2) Rank-local expansion of the owned rows.
            reaches = [
                None
                if shards[r].kernel.n_owned == 0
                else shards[r].kernel.expand(
                    frontier_local[r], visited[r], mask_owned[r]
                )
                for r in range(ranks)
            ]
            # (3) Live-lane OR-allreduce, combined in rank order.
            live_words = np.zeros(words, dtype=np.uint64)
            for r in range(ranks):
                reach = reaches[r]
                if reach is None:
                    frontier_owned[r] = np.zeros((0, words), dtype=np.uint64)
                    continue
                visited[r] |= reach
                frontier_owned[r] = reach
                if reach.size:
                    live_words |= np.bitwise_or.reduce(reach, axis=0)
                if r != 0:
                    meter.record_send(r, 0, words * 8, messages=1)
            for r in range(1, ranks):
                meter.record_send(0, r, words * 8, messages=1)
        if not live_words.any():
            break
        level += 1
        grew = np.unpackbits(
            np.ascontiguousarray(live_words).view(np.uint8)
        ).astype(bool)
        cols = np.nonzero(grew)[0]
        depths_out[cols[cols < count]] = level
    # Harvest: per-rank partial bit counts, summed in rank order.
    # Unweighted totals are exact integers in float64, so the partial
    # sums reproduce the serial per-column counts bit-for-bit; weighted
    # totals need the full matrix on the coordinator (see module doc).
    with meter.round("ball.harvest"):
        if w is None:
            totals = np.zeros(words * 64, dtype=np.float64)
            for r in range(ranks):
                if visited[r].shape[0]:
                    totals += _column_weights(visited[r], None)
                if r != 0:
                    meter.record_send(r, 0, words * 64 * 8, messages=1)
            sizes_out[:] = totals[:count]
        else:
            full = np.zeros((csr.n, words), dtype=np.uint64)
            for r, shard in enumerate(shards):
                if visited[r].shape[0]:
                    full[shard.kernel.owned] = visited[r]
                    if r != 0:
                        meter.record_send(
                            r, 0, int(visited[r].nbytes), messages=1
                        )
            sizes_out[:] = _column_weights(full, w)[:count]


def mpc_bfs_distances(
    run,
    sources,
    radius: Optional[int] = None,
    within=None,
) -> np.ndarray:
    """Partitioned multi-source BFS: the ``bfs_distances`` contract.

    All-integer filtering, so the returned distance array is
    bit-identical to the serial sparse-frontier BFS at any rank count;
    one metered round per BFS level (cross-rank candidate ids).
    """
    csr, part, meter = run.csr, run.partition, run.meter
    require(radius is None or radius >= 0, "radius must be >= 0")
    mask = csr.residual_mask(within)
    dist = np.full(csr.n, -1, dtype=np.int64)
    src = np.unique(_vertex_ids(sources, csr.n))
    if mask is not None:
        src = src[mask[src]]
    if src.size == 0:
        return dist
    dist[src] = 0
    ranks = len(part.shards)
    frontier = src
    d = 0
    with _obs.span("mpc.bfs_distances"):
        while frontier.size and (radius is None or d < radius):
            accepted_parts: List[np.ndarray] = []
            with meter.round("bfs.level"):
                owner = part.owner[frontier]
                candidate_lists: List[Optional[np.ndarray]] = []
                for r, shard in enumerate(part.shards):
                    mine = frontier[owner == r]
                    if mine.size == 0:
                        candidate_lists.append(None)
                    else:
                        candidate_lists.append(
                            shard.kernel.neighbors_global(
                                np.searchsorted(shard.kernel.owned, mine)
                            )
                        )
                # Route candidates to their owners; owners apply the
                # fresh/mask filters element-wise, exactly the serial
                # order (ownership is disjoint, so per-owner filtering
                # cannot interfere within a level).
                routed: List[List[np.ndarray]] = [[] for _ in range(ranks)]
                for src_rank in range(ranks):
                    cands = candidate_lists[src_rank]
                    if cands is None or cands.size == 0:
                        continue
                    cand_owner = part.owner[cands]
                    for dst_rank in range(ranks):
                        sel = cands[cand_owner == dst_rank]
                        if sel.size == 0:
                            continue
                        if dst_rank != src_rank:
                            meter.record_send(
                                src_rank, dst_rank, int(sel.size) * 8, messages=1
                            )
                        routed[dst_rank].append(sel)
                for dst_rank in range(ranks):
                    if not routed[dst_rank]:
                        continue
                    neigh = np.concatenate(routed[dst_rank])
                    neigh = neigh[dist[neigh] < 0]
                    if mask is not None:
                        neigh = neigh[mask[neigh]]
                    if neigh.size:
                        accepted_parts.append(np.unique(neigh))
            if not accepted_parts:
                break
            d += 1
            for part_ids in accepted_parts:
                dist[part_ids] = d
            frontier = np.concatenate(accepted_parts)
    return dist
