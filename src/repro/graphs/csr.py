"""Batched CSR graph kernels — the numpy fast path for BFS-shaped work.

Profiling the Theorem 1.1 decomposition shows ~95% of its runtime in
per-vertex ``gather_ball`` calls that estimate ``n_v = |N^{4tR}(v)|``.
Every one of those gathers walks the same adjacency structure, so this
module stores the graph once in compressed-sparse-row form
(``indptr``/``indices`` arrays) and exposes *batched* primitives that
amortize the traversal across all sources simultaneously:

* :meth:`CsrGraph.all_ball_sizes` — ball sizes (optionally weighted)
  from every source at once, via bit-packed frontier expansion: the
  per-source visited sets are packed 64 sources per uint64 word and
  one :class:`_PackedSweep` level (Δ gathers through a degree-padded
  neighbor table, or one segmented ``bitwise_or.reduceat``) advances
  *all* frontiers.  The engine owns a sweep's frontier and visited
  sets, and its gathers write into their ``out`` buffers directly
  (``mode="clip"``: the default mode makes numpy buffer ``out``).
* :meth:`CsrGraph.ball_size_estimate` — the unweighted ``n_v``
  estimate: component sizes for provably saturated balls and a
  certified maximum depth, sweeping only the sources left open.
* :meth:`CsrGraph.bfs_distances` — single multi-source BFS with a
  sparse (index-array) frontier; work is proportional to the edges
  incident to the frontier, like the pure-Python BFS, but at C speed.
* :meth:`CsrGraph.distances_from` — batched distance matrix, full rows
  or only the ``targets`` columns; with targets a chunk stops once
  every source has reached every target, so pairwise questions
  (:meth:`CsrGraph.weak_diameter`, the sparse-cover membership) cost
  the subset's own depth, not the graph's.
* :meth:`CsrGraph.power` / :meth:`CsrGraph.connected_components` /
  :meth:`CsrGraph.weak_diameter` — vectorized versions of the
  corresponding :class:`~repro.graphs.graph.Graph` methods.

Every kernel is observationally equivalent to its pure-Python
counterpart on :class:`~repro.graphs.graph.Graph` (property-tested in
``tests/test_graphs_csr.py``).  The algorithms call these kernels;
the ``Graph`` methods are the reference they are tested against, and
nothing chooses between the two at run time.  Instances are cached on
the owning :class:`Graph` via :meth:`Graph.csr`, so repeated kernel
calls pay the CSR construction once.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as _obs
from repro.graphs import parallel as _parallel
from repro.util.validation import require

#: Soft cap on the per-round gather buffer (bytes) used to pick the
#: source-chunk width of the packed batched kernels.
_GATHER_BUDGET_BYTES = 64 << 20

#: The degree-padded neighbor table is built only while its footprint
#: stays within this factor of the CSR arrays; skewed degree
#: distributions (stars, hubs) fall back to the segmented reduceat.
_PAD_WASTE_FACTOR = 8

#: :meth:`CsrGraph.ball_size_estimate` runs at least this many
#: certification rounds (the first pivots only set the bounds up), then
#: stops once its rounds have taken less than one packed word (64
#: sources) each off the sweep it falls back to.
_WARMUP_ROUNDS = 4

#: Graphs at most this many packed words wide (768 vertices) skip the
#: certification rounds.  Such a sweep is one narrow chunk whose levels
#: cost about what one sparse BFS level does, so a handful of rounds
#: costs more than the whole sweep: measured on grids, the rounds break
#: even at about this width (784 vertices) and win 2-4x at 1.5-2k.
_ESTIMATE_MIN_WORDS = 12

#: Bit patterns of every byte value, MSB first — matches the packed
#: column layout of :meth:`CsrGraph._seed_packed` / ``np.unpackbits``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).astype(np.float64)


def _column_weights(packed: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """Per-column totals of a packed (n, W) uint64 block.

    Unweighted, each column's bit count; weighted, the sum of
    ``weights`` over its set bits.  The unweighted path histograms byte
    values per byte column and expands through the 256×8 bit table,
    which avoids materializing the (n, 64 W) boolean matrix that
    dominated the original kernel's epilogue at chunk width.
    """
    byte_view = np.ascontiguousarray(packed).view(np.uint8)
    rows, nbytes = byte_view.shape
    if weights is not None:
        unpacked = np.unpackbits(byte_view, axis=-1).astype(bool)
        return weights @ unpacked
    totals = np.empty(nbytes * 8, dtype=np.float64)
    # Block the histogram so the int64 index scratch stays ~32 MB even
    # for full-width chunks of 10^5-vertex graphs.
    block = max(1, (4 << 20) // max(1, rows))
    for lo in range(0, nbytes, block):
        cols = byte_view[:, lo : lo + block].astype(np.int64)
        cols += np.arange(cols.shape[1], dtype=np.int64)[None, :] * 256
        hist = np.bincount(
            cols.ravel(), minlength=256 * cols.shape[1]
        ).reshape(cols.shape[1], 256)
        totals[8 * lo : 8 * (lo + cols.shape[1])] = (hist @ _BYTE_BITS).ravel()
    return totals


def _vertex_ids(ids: Iterable[int], n: int, what: str = "sources") -> np.ndarray:
    """``ids`` as an int64 array, checked to be vertices of an n-vertex
    graph: the range check behind every kernel's sources, targets and
    ``within``."""
    arr = np.fromiter(ids, dtype=np.int64)
    require(
        not arr.size or (arr.min() >= 0 and arr.max() < n),
        f"out-of-range vertices in {what}",
    )
    return arr


class _PackedSweep:
    """One packed multi-source BFS, owner of its frontier and visited.

    Sources are packed 64 per uint64 word.  ``visited`` is the (n, W)
    set of bits reached so far; the frontier lives in the first n rows
    of the (n + 1, W) stage that every gather reads, and
    :meth:`expand` writes the next frontier back there, so a level
    copies nothing between callers and engine.  Row n is the phantom
    endpoint of the padded table's filler slots and stays all-zero.

    On near-uniform degrees a level is Δ whole-array gathers through
    the degree-padded neighbor table
    (:meth:`CsrGraph._padded_adjacency`); it runs ~5x faster at small
    Δ than the segmented ``bitwise_or.reduceat`` that skewed degrees
    keep, because it skips reduceat's per-segment inner loop.  Every
    gather passes ``mode="clip"``: numpy buffers ``out`` whenever
    ``mode="raise"`` (the default), so each default ``take`` wrote an
    n × W temporary and then copied it (2.9 ms against 1.2 ms per
    gather at n = 20000, W = 64 on a 2-core Xeon, numpy 2.4).  The
    indices are always in range (the table holds ``<= n`` against
    n + 1 stage rows, ``_gather_index`` holds ``< n``), so clipping
    never fires.  The gather, reach and scratch buffers are allocated
    once per word width and reused every level; ``visited`` and
    scratch swap roles each level, so no buffer is copied.
    """

    __slots__ = (
        "csr",
        "pad",
        "visited",
        "_outside",
        "_stage",
        "_gather",
        "_reach",
        "_scratch",
    )

    def __init__(
        self, csr: "CsrGraph", sources: np.ndarray, mask: Optional[np.ndarray]
    ) -> None:
        """Level 0: lane j holds ``sources[j]`` (see
        :meth:`CsrGraph._seed_packed`); the sweep never leaves ``mask``."""
        visited = csr._seed_packed(sources, len(sources), mask)
        n, words = visited.shape
        self.csr = csr
        self.pad = csr._padded_adjacency()
        self.visited = visited
        self._outside = None if mask is None else np.flatnonzero(~mask)
        self._stage = np.zeros((n + 1, words), dtype=np.uint64)
        self._stage[:n] = visited
        self._buffers(words)

    def _buffers(self, words: int) -> None:
        """(Re)allocate the per-level buffers at ``words`` wide."""
        csr = self.csr
        self._gather = self._reach = self._scratch = None  # free the old width
        if self.pad is None:
            self._gather = np.empty((csr.nnz + 1, words), dtype=np.uint64)
        self._reach = np.empty((csr.n, words), dtype=np.uint64)
        self._scratch = np.empty((csr.n, words), dtype=np.uint64)

    def expand(self) -> np.ndarray:
        """Advance every frontier one synchronous level.

        ORs each frontier bit into its row's neighbors, drops rows
        outside the mask and bits already visited, and adds the rest to
        ``visited``.  Returns the new frontier, a view of the stage that
        the next call reads and then overwrites.
        """
        csr = self.csr
        n = csr.n
        stage, reach, scratch = self._stage, self._reach, self._scratch
        new = stage[:n]
        if self.pad is not None:
            _obs.count("csr.sweep.padded_take_levels")
            np.take(stage, self.pad[:, 0], axis=0, out=reach, mode="clip")
            for d in range(1, self.pad.shape[1]):
                np.take(stage, self.pad[:, d], axis=0, out=scratch, mode="clip")
                np.bitwise_or(reach, scratch, out=reach)
        else:
            _obs.count("csr.sweep.reduceat_levels")
            gathered = self._gather
            np.take(stage, csr._gather_index, axis=0, out=gathered, mode="clip")
            gathered[-1] = 0  # padding row: keeps the last segment harmless
            np.bitwise_or.reduceat(gathered, csr._starts, axis=0, out=reach)
            if csr._zero_degree is not None:
                reach[csr._zero_degree] = 0
        if self._outside is not None:
            reach[self._outside] = 0
        # The frontier was read; scratch takes visited | reach and the
        # stage the bits that were not in visited, then the two visited
        # buffers swap roles.
        visited = self.visited
        np.bitwise_or(visited, reach, out=scratch)
        np.bitwise_xor(scratch, visited, out=new)
        self.visited, self._scratch = scratch, visited
        return new

    def keep(self, cols: np.ndarray) -> None:
        """Narrow the sweep to the word columns ``cols`` (retired words
        are dropped; their bits must be read off ``visited`` first)."""
        self.visited = np.ascontiguousarray(self.visited[:, cols])
        self._stage = np.ascontiguousarray(self._stage[:, cols])
        self._buffers(len(cols))


class CsrGraph:
    """Compressed-sparse-row adjacency of a :class:`Graph` plus kernels.

    ``indices[indptr[v]:indptr[v+1]]`` lists the (sorted) neighbors of
    ``v``.  The arrays are immutable snapshots of the owning graph,
    which is itself immutable.
    """

    __slots__ = (
        "n",
        "nnz",
        "indptr",
        "indices",
        "degrees",
        "_gather_index",
        "_starts",
        "_zero_degree",
        "_padded",
        "_shared",
        "__weakref__",
    )

    def __init__(self, graph) -> None:
        n = graph.n
        self.n = n
        degrees = np.fromiter(
            (len(graph.neighbors(v)) for v in range(n)),
            dtype=np.int64,
            count=n,
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(
            (u for v in range(n) for u in graph.neighbors(v)),
            dtype=np.int64,
            count=nnz,
        )
        self._init_from_arrays(n, nnz, indptr, indices, degrees)
        self._padded = False  # degree-padded table, built lazily

    def _init_from_arrays(self, n, nnz, indptr, indices, degrees) -> None:
        self.n = n
        self.nnz = nnz
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        # The packed expansion gathers one extra (zeroed) row so every
        # reduceat start index is in range even when trailing vertices
        # have degree 0 — clipping those starts instead would truncate
        # the preceding vertex's neighbor segment.  Degree-0 rows get
        # garbage from reduceat's empty-segment rule and are zeroed
        # after the reduction.
        self._gather_index = np.concatenate((indices, [0])) if n else indices
        self._starts = indptr[:-1]
        zero = degrees == 0
        self._zero_degree = np.nonzero(zero)[0] if zero.any() else None
        self._shared = None  # shared-memory export, built lazily

    @classmethod
    def _from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        padded: Optional[np.ndarray] | bool = False,
    ) -> "CsrGraph":
        """Constructor over ready CSR arrays.

        ``n`` and ``nnz`` are read off ``indptr``/``indices`` and the
        derived arrays are built in O(n + m).  :meth:`Graph.from_edge_arrays`
        passes the arrays it sorted; a kernel worker passes zero-copy
        views of the parent's :mod:`multiprocessing.shared_memory`
        segments together with the parent's ``padded`` table, where
        ``padded=None`` replays the parent's decision to keep the
        segmented-reduceat expansion, so every worker computes exactly
        what the serial loop would.  The default ``False`` builds the
        table lazily.
        """
        csr = object.__new__(cls)
        csr._init_from_arrays(
            len(indptr) - 1, len(indices), indptr, indices, np.diff(indptr)
        )
        csr._padded = padded
        return csr

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def residual_mask(self, within: Optional[Iterable[int]]) -> Optional[np.ndarray]:
        """Boolean (n,) mask of a residual vertex set, or None.

        The canonical set-to-mask conversion behind every kernel's
        ``within``.  A boolean (n,) array passes through unchanged, so
        callers that run many kernels against the same residual snapshot
        (the carving drivers) build the mask once and pass it along.
        """
        if within is None:
            return None
        if isinstance(within, np.ndarray) and within.dtype == bool:
            require(len(within) == self.n, "mask must have one entry per vertex")
            return within
        mask = np.zeros(self.n, dtype=bool)
        mask[_vertex_ids(within, self.n, "within")] = True
        return mask

    def _neighbors_of(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of the frontier vertices."""
        counts = self.degrees[frontier]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[frontier]
        excl = np.cumsum(counts) - counts
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
        return self.indices[pos]

    def _padded_adjacency(self) -> Optional[np.ndarray]:
        """(n, Δ) neighbor table padded with the phantom vertex ``n``.

        Row ``v`` lists ``neighbors(v)`` padded to the maximum degree
        with ``n`` — a phantom endpoint whose packed state the sweep
        keeps all-zero — so the packed expansion becomes Δ whole-array
        gathers instead of a segmented reduceat.  Returns ``None`` on
        skewed degree distributions where the padding would blow the
        table past ``_PAD_WASTE_FACTOR`` times the CSR size; cached
        after the first call.
        """
        if self._padded is False:
            dmax = int(self.degrees.max()) if self.n else 0
            if dmax == 0 or dmax * self.n > _PAD_WASTE_FACTOR * max(self.nnz, 1):
                self._padded = None
            else:
                pad = np.full((self.n, dmax), self.n, dtype=np.int64)
                slots = np.arange(dmax, dtype=np.int64)[None, :] < self.degrees[:, None]
                pad[slots] = self.indices
                self._padded = pad
        return self._padded

    def _seed_packed(
        self,
        sources: np.ndarray,
        count: int,
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """(n, W) uint64 with bit j (byte-wise, MSB first) set at vertex
        ``sources[j]``; ``W = ceil(count / 64)``.

        The byte layout matches ``np.unpackbits`` on a uint8 view, so
        ``unpack`` round-trips regardless of endianness (the bitwise
        kernels treat bytes independently).  Sources excluded by
        ``mask`` are left unseeded (empty balls), matching the
        pure-Python gather on a residual set.
        """
        words = (count + 63) // 64
        visited = np.zeros((self.n, words), dtype=np.uint64)
        byte_view = visited.view(np.uint8)
        cols = np.arange(len(sources))
        if mask is not None:
            keep = mask[sources]
            sources, cols = sources[keep], cols[keep]
        bits = (1 << (7 - (cols & 7))).astype(np.uint8)
        np.bitwise_or.at(byte_view, (sources, cols >> 3), bits)
        return visited

    @staticmethod
    def _unpack(packed: np.ndarray, count: int) -> np.ndarray:
        """Boolean view of a packed (…, W) uint64 array, ``count`` columns."""
        return np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8), axis=-1, count=count
        ).astype(bool)

    def _chunk_width(self, requested: Optional[int]) -> int:
        """Sources per chunk, sized so the gather buffer stays bounded."""
        if requested is not None:
            require(requested >= 1, "chunk size must be >= 1")
            return requested
        budget_bytes = max(8, _GATHER_BUDGET_BYTES // max(1, self.nnz))
        return int(min(4096, budget_bytes * 8))

    # ------------------------------------------------------------------
    # Distances and balls
    # ------------------------------------------------------------------
    def bfs_distances(
        self,
        sources: Iterable[int],
        radius: Optional[int] = None,
        within: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Multi-source BFS distances as an (n,) int64 array (−1 unreached).

        Array-valued counterpart of :meth:`Graph.bfs_distances`; the
        sparse frontier keeps per-level work proportional to the edges
        incident to the frontier.
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self.residual_mask(within)
        dist = np.full(self.n, -1, dtype=np.int64)
        src = np.unique(_vertex_ids(sources, self.n))
        if mask is not None:
            src = src[mask[src]]
        if src.size == 0:
            return dist
        dist[src] = 0
        frontier = src
        d = 0
        while frontier.size and (radius is None or d < radius):
            neigh = self._neighbors_of(frontier)
            neigh = neigh[dist[neigh] < 0]
            if mask is not None:
                neigh = neigh[mask[neigh]]
            if neigh.size == 0:
                break
            frontier = np.unique(neigh)
            d += 1
            dist[frontier] = d
        return dist

    def ball_sweep_inputs(
        self,
        radius: Optional[int],
        weights: Optional[Sequence[float]],
        within: Optional[Iterable[int]],
        sources: Optional[Iterable[int]],
        chunk_size: Optional[int],
    ) -> Tuple[
        Optional[np.ndarray],
        Optional[np.ndarray],
        np.ndarray,
        np.ndarray,
        List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ]:
        """Validated inputs of a ball-size sweep: the one argument
        contract of :meth:`all_ball_sizes` and the partitioned driver
        (:func:`repro.mpc.driver.mpc_all_ball_sizes`).

        Returns ``(mask, w, sizes, depths, chunks)``: the residual mask,
        the float64 weights (or None), zeroed output arrays with one
        entry per source, and the source chunks as ``(sources,
        sizes_view, depths_view)`` triples whose views write into the
        outputs.
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self.residual_mask(within)
        if sources is None:
            src = np.arange(self.n, dtype=np.int64)
        else:
            src = _vertex_ids(sources, self.n)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        require(w is None or len(w) == self.n, "need one weight per vertex")
        sizes = np.zeros(len(src), dtype=np.float64)
        depths = np.zeros(len(src), dtype=np.int64)
        chunk = self._chunk_width(chunk_size)
        chunks = [
            (src[lo : lo + chunk], sizes[lo : lo + chunk], depths[lo : lo + chunk])
            for lo in range(0, len(src), chunk)
        ]
        return mask, w, sizes, depths, chunks

    def all_ball_sizes(
        self,
        radius: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        within: Optional[Iterable[int]] = None,
        sources: Optional[Iterable[int]] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ball sizes ``|N^radius(v)|`` for a whole batch of sources.

        Returns ``(sizes, depths)``: ``sizes[j]`` is the vertex count
        (or total ``weights``) of ``N^radius(sources[j])`` and
        ``depths[j]`` the largest BFS level that was non-empty — the
        per-source ``depth_reached`` of the equivalent gather.  Sources
        are split into chunks, and each chunk is one packed BFS in
        which a single frontier expansion per level advances every
        source at once.  Sources retire from the sweep as soon as they
        saturate (see :meth:`_ball_chunk`), so a whole-graph ``radius``
        costs no more than the graph's diameter in levels.  The
        Algorithm 2 ``n_v`` estimate sweeps every source only when it
        is weighted or partitioned; unweighted, it goes through
        :meth:`ball_size_estimate`, which sweeps just the sources its
        saturation test and depth certificate leave open.

        ``kernel_workers`` shards the (independent) source chunks over
        worker processes attached to the CSR arrays via shared memory;
        chunk boundaries and per-chunk computation are exactly the
        serial loop's, and results merge in chunk order, so sizes and
        depths are bit-identical at any worker count.  ``None`` resolves
        through :func:`repro.graphs.parallel.resolve_kernel_workers`
        (``REPRO_KERNEL_WORKERS``, default serial).
        """
        return self._ball_sweep(
            radius, weights, within, sources, chunk_size, kernel_workers, harvest=True
        )

    def _ball_sweep(
        self,
        radius: Optional[int],
        weights: Optional[Sequence[float]],
        within: Optional[Iterable[int]],
        sources: Optional[Iterable[int]],
        chunk_size: Optional[int],
        kernel_workers: Optional[int],
        harvest: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`all_ball_sizes`; ``harvest=False`` computes the depths
        only and leaves every size zero."""
        mask, w, sizes, depths, chunks = self.ball_sweep_inputs(
            radius, weights, within, sources, chunk_size
        )
        workers = _parallel.resolve_kernel_workers(kernel_workers)
        with _obs.span("csr.all_ball_sizes"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self,
                    "ball",
                    [c[0] for c in chunks],
                    (radius, w, mask, harvest),
                    workers,
                )
                for (_, s_sizes, s_depths), (r_sizes, r_depths) in zip(
                    chunks, results, strict=True
                ):
                    s_sizes[:] = r_sizes
                    s_depths[:] = r_depths
                return sizes, depths
            for s_chunk, s_sizes, s_depths in chunks:
                with _obs.span("csr.ball_chunk"):
                    self._ball_chunk(
                        s_chunk, radius, w, mask, s_sizes if harvest else None, s_depths
                    )
            return sizes, depths

    def _ball_chunk(
        self,
        s_chunk: np.ndarray,
        radius: Optional[int],
        w: Optional[np.ndarray],
        mask: Optional[np.ndarray],
        sizes_out: Optional[np.ndarray],
        depths_out: np.ndarray,
    ) -> None:
        """Saturation-retiring packed sweep of one source chunk.

        Sources are packed 64 per uint64 word into one
        :class:`_PackedSweep`, which owns their frontier and visited
        bits; one :meth:`_PackedSweep.expand` per BFS level advances
        every frontier from level 0 with unbuffered gathers, and this
        loop only reads the new bits for depths and retirement.  A
        source whose frontier empties has
        saturated its (residual) component — every remaining radius
        step is a no-op for it and its ball size is final
        (``= |component|`` on an unrestricted sweep).  Once every
        source of a word has saturated, the word's sizes are harvested
        and the word is dropped from the sweep, shrinking each later
        level's gather width.  The chunk exits when all words have
        retired, so a whole-graph ``radius`` never runs past the
        residual diameter (the old kernel's failure mode at n = 10^5,
        where ``radius ≈ 900`` met a diameter-20 graph).  Dropping a
        word is :meth:`_PackedSweep.keep`, after its sizes are read
        off the engine's ``visited``.  With
        ``sizes_out=None`` only the depths are recorded: retired words
        are dropped without counting their bits.
        """
        count = len(s_chunk)
        if count == 0:
            return
        sweep = _PackedSweep(self, s_chunk, mask)

        def harvest(out: np.ndarray, packed: np.ndarray, word_ids: np.ndarray) -> None:
            _obs.count("csr.ball.harvested_words", int(word_ids.size))
            totals = _column_weights(packed, w)
            for j, wid in enumerate(word_ids.tolist()):
                base = wid * 64
                top = min(count, base + 64)
                out[base:top] = totals[64 * j : 64 * j + (top - base)]

        active = np.arange(sweep.visited.shape[1], dtype=np.int64)  # original word ids
        lanes = np.arange(64, dtype=np.int64)
        r = 0
        while active.size and (radius is None or r < radius):
            new = sweep.expand()
            _obs.count("csr.ball.packed_levels")
            live_words = np.bitwise_or.reduce(new, axis=0)
            live = live_words != 0
            if not live.any():
                break
            r += 1
            grew = np.unpackbits(
                np.ascontiguousarray(live_words).view(np.uint8)
            ).astype(bool)
            cols = (active[:, None] * 64 + lanes[None, :]).ravel()[grew]
            depths_out[cols[cols < count]] = r
            if live.all():
                continue
            retired = np.nonzero(~live)[0]
            _obs.count("csr.ball.words_retired", int(retired.size))
            if sizes_out is not None:
                harvest(sizes_out, sweep.visited[:, retired], active[retired])
            keep = np.nonzero(live)[0]
            active = active[keep]
            sweep.keep(keep)
        if active.size:
            _obs.count("csr.ball.words_retired", int(active.size))
            if sizes_out is not None:
                harvest(sizes_out, sweep.visited, active)

    def ball_size_estimate(
        self,
        radius: Optional[int],
        kernel_workers: Optional[int] = None,
    ) -> Tuple[np.ndarray, int]:
        """Unweighted ``|N^radius(v)|`` for every vertex, and the largest
        per-source depth: ``(sizes, max_depth)`` with exactly the values
        of ``sizes, depths = all_ball_sizes(radius)``;
        ``max_depth = depths.max()``.

        The ``n_v`` estimate of Algorithm 2 only reads the sizes and the
        maximum depth, and its radius usually exceeds the diameter, so
        most balls are whole components.  Instead of sweeping every
        source, this runs bounding-eccentricity rounds (Takes–Kosters
        2011): each round is one multi-source :meth:`bfs_distances` from
        one pivot per still-open component, and ``d(p, v)`` with
        ``ecc(p)`` bounds every ``ecc(v)`` in ``[max(d, ecc(p) − d),
        ecc(p) + d]``.

        * A vertex whose upper bound is ``<= radius`` is *saturated*:
          its size is its component's vertex count (exact integers, so
          bit-identical to the sweep's bit counts).
        * ``max_depth = max_v min(radius, ecc(v))`` is certified once
          no vertex's capped upper bound exceeds the best capped lower
          bound.

        Rounds stop when nothing is left open, or, after
        ``_WARMUP_ROUNDS``, once they have taken less than one packed
        word (64 sources) each off the sweep.  One BFS costs about one
        swept word on an expander and far less on high-diameter
        graphs, so this keeps the rounds near or below the sweep work
        they save.  Vertex-transitive and expander graphs stop this
        way after the warm-up.  The sources still unsaturated or
        uncertified go through the :meth:`all_ball_sizes` sweep with
        ``kernel_workers``.  When every one of them is certified
        saturated (their sizes are already the component sizes, and
        only the depth is open, as on a connected expander), the sweep
        runs for depth only: retired words are dropped without
        counting their bits.  A graph at most ``_ESTIMATE_MIN_WORDS``
        packed words wide skips the rounds: its whole sweep costs less
        than the rounds do.
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        n = self.n
        if -(-n // 64) <= _ESTIMATE_MIN_WORDS:
            sizes, depths = self.all_ball_sizes(
                radius, kernel_workers=kernel_workers
            )
            return sizes, int(depths.max()) if n else 0
        with _obs.span("csr.ball_estimate"):
            sizes, depth, swept, saturated = self._certify_balls(radius)
        if swept.size:
            s_sizes, s_depths = self._ball_sweep(
                radius,
                weights=None,
                within=None,
                sources=swept,
                chunk_size=None,
                kernel_workers=kernel_workers,
                harvest=not saturated,
            )
            if not saturated:
                sizes[swept] = s_sizes
            depth = max(depth, int(s_depths.max()))
        return sizes, depth

    def _certify_balls(
        self, radius: Optional[int]
    ) -> Tuple[np.ndarray, int, np.ndarray, bool]:
        """The certification rounds of :meth:`ball_size_estimate`.

        Returns ``(sizes, depth, open_sources, saturated)``: component
        sizes as float64 (exact wherever the ball saturates), the
        largest certified capped depth, the sources the sweep must
        still cover, and whether every one of those is certified
        saturated (so the sweep needs their depths only).  Its bound
        arrays are freed before that sweep runs.
        """
        n = self.n
        labels = np.empty(n, dtype=np.int64)
        for label, comp in enumerate(self.connected_components()):
            labels[np.fromiter(comp, dtype=np.int64, count=len(comp))] = label
        # Vertices grouped by component: per-component reductions are
        # one reduceat over ``order`` split at ``starts``.
        order = np.argsort(labels, kind="stable")
        starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
        big = 2 * n + 1  # above every eccentricity bound
        cap = big if radius is None else radius
        lower = np.zeros(n, dtype=np.int64)
        upper = np.full(n, big, dtype=np.int64)
        # Pivot keys: the bound first, then higher degree, then the
        # smaller vertex id (``by_rank[key % n]`` decodes the vertex).
        by_rank = np.lexsort((np.arange(n), -self.degrees))
        tie = np.empty(n, dtype=np.int64)
        tie[by_rank] = np.arange(n)
        key = tie  # round 0: each component's highest-degree vertex
        none = np.iinfo(np.int64).max
        open_ = np.ones(n, dtype=bool)
        rounds = 0
        while open_.any():
            best = np.minimum.reduceat(np.where(open_, key, none)[order], starts)
            dist = self.bfs_distances(by_rank[best[best != none] % n])
            rounds += 1
            ecc = np.maximum.reduceat(dist[order], starts)[labels]
            hit = dist >= 0
            d, e = dist[hit], ecc[hit]
            lower[hit] = np.maximum(lower[hit], np.maximum(d, e - d))
            upper[hit] = np.minimum(upper[hit], e + d)
            depth = int(np.minimum(lower, cap).max())
            saturated = upper <= cap
            uncertified = np.minimum(upper, cap) > depth
            rest = ~saturated | uncertified
            open_ = (~saturated & (lower <= cap)) | uncertified
            retired = n - int(np.count_nonzero(rest))
            if rounds >= _WARMUP_ROUNDS and retired < 64 * rounds:
                break
            # Alternate the Takes–Kosters selections: largest upper
            # bound, then smallest lower bound.
            key = (big - upper if rounds % 2 else lower) * n + tie
        swept = np.flatnonzero(rest)
        _obs.count("csr.ball_estimate.bfs_calls", rounds)
        _obs.count("csr.ball_estimate.saturated", int(np.count_nonzero(saturated)))
        _obs.count("csr.ball_estimate.swept", int(swept.size))
        comp_size = np.diff(np.append(starts, n)).astype(np.float64)
        return comp_size[labels], depth, swept, bool(saturated[swept].all())

    def distances_from(
        self,
        sources: Iterable[int],
        radius: Optional[int] = None,
        within: Optional[Iterable[int]] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
        targets: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Batched per-source distances: (S, n) int64, −1 unreached.

        Row ``j`` is the single-source BFS distance vector of
        ``sources[j]`` (restricted to ``within`` when given).  With
        ``targets``, the result is the (S, T) block of those columns, in
        the given order (repeats allowed), and each source chunk stops
        as soon as every lane has reached every target it can reach
        inside ``within`` — a weak-diameter query on a short arc of a
        long cycle sweeps the arc's levels, not the cycle's.
        ``kernel_workers`` shards source chunks over worker processes;
        distances are exact integers independent of chunk boundaries,
        so the matrix is bit-identical at any worker count (a default
        chunk too wide to fill the workers is narrowed to spread the
        sources — pass ``chunk_size`` to pin the serial chunking).
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self.residual_mask(within)
        src = _vertex_ids(sources, self.n)
        tgt = None if targets is None else _vertex_ids(targets, self.n, "targets")
        width = self.n if tgt is None else len(tgt)
        dist = np.full((len(src), width), -1, dtype=np.int64)
        chunk = self._chunk_width(chunk_size)
        workers = _parallel.resolve_kernel_workers(kernel_workers)
        if workers > 1 and chunk_size is None and src.size:
            chunk = max(1, min(chunk, -(-len(src) // workers)))
        chunks = [
            (lo, src[lo : lo + chunk]) for lo in range(0, len(src), chunk)
        ]
        with _obs.span("csr.distances_from"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self,
                    "dist",
                    [s_chunk for _, s_chunk in chunks],
                    (radius, mask, tgt),
                    workers,
                )
                for (lo, s_chunk), block in zip(chunks, results, strict=True):
                    dist[lo : lo + len(s_chunk)] = block
                return dist
            for lo, s_chunk in chunks:
                if len(s_chunk):
                    with _obs.span("csr.distances_chunk"):
                        dist[lo : lo + len(s_chunk)] = self._distances_chunk(
                            s_chunk, radius, mask, tgt
                        )
            return dist

    def _distances_chunk(
        self,
        s_chunk: np.ndarray,
        radius: Optional[int],
        mask: Optional[np.ndarray],
        targets: Optional[np.ndarray],
    ) -> np.ndarray:
        """Distance rows of one source chunk: (len(s_chunk), n) int64, or
        its ``targets`` columns.

        Each level writes back only the rows (vertices, or target
        columns) where the new frontier has a bit: those rows are
        unpacked and their hits scattered into ``block``, so the
        write-back scales with the frontier while the sweep's own
        expansion stays O(n·W) per level.  With ``targets``, ``left``
        counts the (lane, target) pairs still unreached among those that
        can be reached at all (seeded lanes, targets inside the mask);
        the sweep stops when it hits zero, since no later level could
        write a column.
        """
        count = len(s_chunk)
        sweep = _PackedSweep(self, s_chunk, mask)
        width = self.n if targets is None else len(targets)
        block = np.full((count, width), -1, dtype=np.int64)

        def write(frontier: np.ndarray, r: int) -> int:
            sub = frontier if targets is None else frontier[targets]
            rows = np.flatnonzero(sub.any(axis=1))
            at, lane = np.nonzero(self._unpack(sub[rows], count))
            block[lane, rows[at]] = r
            return int(lane.size)

        hits = write(sweep.visited, 0)
        left = None
        if targets is not None:
            lanes = count if mask is None else np.count_nonzero(mask[s_chunk])
            live = len(targets) if mask is None else np.count_nonzero(mask[targets])
            left = int(lanes * live - hits)
        r = 0
        while left != 0 and (radius is None or r < radius):
            new = sweep.expand()
            if not new.any():
                break
            r += 1
            hits = write(new, r)
            if left is not None:
                left -= hits
        return block

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def power(
        self,
        k: int,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ):
        """The k-th power graph ``G^k`` (edge when ``1 <= dist <= k``).

        Batched reachability from every vertex followed by one
        :meth:`Graph.from_edge_arrays` construction — no per-edge Python
        loop.  ``kernel_workers`` shards the source chunks over worker
        processes; the constructor sorts the merged edge arrays
        globally, so the produced graph is identical at any worker
        count (and any chunking).
        """
        from repro.graphs.graph import Graph

        require(k >= 1, f"power k must be >= 1, got {k}")
        us: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        chunk = self._chunk_width(chunk_size)
        workers = _parallel.resolve_kernel_workers(kernel_workers)
        if workers > 1 and chunk_size is None and self.n:
            chunk = max(1, min(chunk, -(-self.n // workers)))
        src = np.arange(self.n, dtype=np.int64)
        chunks = [src[lo : lo + chunk] for lo in range(0, self.n, chunk)]
        with _obs.span("csr.power"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self, "power", chunks, (k,), workers
                )
                for chunk_us, chunk_vs in results:
                    us.append(chunk_us)
                    vs.append(chunk_vs)
            else:
                for s_chunk in chunks:
                    with _obs.span("csr.power_chunk"):
                        chunk_us, chunk_vs = self._power_chunk(s_chunk, k)
                    us.append(chunk_us)
                    vs.append(chunk_vs)
        u_all = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
        v_all = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
        return Graph.from_edge_arrays(self.n, u_all, v_all)

    def _power_chunk(
        self, s_chunk: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``G^k`` edges incident to one source chunk, as (u, v) u < v."""
        count = len(s_chunk)
        sweep = _PackedSweep(self, s_chunk, None)
        for _ in range(k):
            if not sweep.expand().any():
                break
        unpacked = self._unpack(sweep.visited, count)
        reached, col = np.nonzero(unpacked)
        source = s_chunk[col]
        keep = reached < source  # each unordered pair once, as (u, v) u < v
        return reached[keep], source[keep]

    def connected_components(
        self, within: Optional[Iterable[int]] = None
    ) -> List[Set[int]]:
        """Connected components (of the ``within``-induced subgraph).

        Discovery order matches the pure-Python implementation: each
        component is found from its smallest not-yet-seen vertex.  The
        per-component BFS marks ``seen`` directly and allocates only
        frontier-sized arrays, so total work is ``O(n + m)`` even when
        the graph shatters into many small components (the typical
        residual shape after LDD carving).
        """
        mask = self.residual_mask(within)
        seen = np.zeros(self.n, dtype=bool)
        if mask is not None:
            seen[~mask] = True
        components: List[Set[int]] = []
        cursor = 0
        while True:
            while cursor < self.n and seen[cursor]:
                cursor += 1
            if cursor >= self.n:
                break
            seed = cursor
            seen[seed] = True
            comp = [seed]
            # Tiny frontiers (the common case when carving shatters the
            # graph into many small components) stay in Python — a
            # handful of scalar reads beats six array ops; a frontier
            # that grows past the threshold switches to vectorized
            # expansion for the rest of its component.
            frontier_list = [seed]
            while frontier_list:
                if len(frontier_list) > 32:
                    frontier = np.asarray(frontier_list, dtype=np.int64)
                    while frontier.size:
                        neigh = self._neighbors_of(frontier)
                        neigh = neigh[~seen[neigh]]
                        if neigh.size == 0:
                            break
                        frontier = np.unique(neigh)
                        seen[frontier] = True
                        comp.extend(frontier.tolist())
                    break
                nxt: List[int] = []
                for v in frontier_list:
                    for u in self.indices[
                        self.indptr[v] : self.indptr[v + 1]
                    ].tolist():
                        if not seen[u]:
                            seen[u] = True
                            nxt.append(u)
                            comp.append(u)
                frontier_list = nxt
            components.append(set(comp))
        return components

    def weak_diameter(
        self, subset: Iterable[int], kernel_workers: Optional[int] = None
    ) -> float:
        """``max_{u,v in subset} dist_G(u, v)`` in the full graph: one
        :meth:`distances_from` sweep with the subset as its targets."""
        vs = sorted(set(subset))
        if len(vs) <= 1:
            return 0
        dist = self.distances_from(vs, kernel_workers=kernel_workers, targets=vs)
        if (dist < 0).any():
            return float("inf")
        return float(dist.max())

    def girth(
        self,
        upper_bound: Optional[int] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> float:
        """Shortest cycle length (``inf`` for forests).

        Batched counterpart of :meth:`Graph.girth` with the same return
        value for every input, ``upper_bound`` included.  Per root (in
        ascending order, distance vectors computed in packed chunks) a
        shortest cycle through the root is witnessed either by an edge
        inside one BFS level (odd, ``2d + 1``) or by a vertex with two
        or more neighbors in the previous level (even, ``2d``) — the
        exact candidate set of the reference's non-tree-edge scan, so
        the minimum over roots agrees.  After each root, a running best
        at or below ``upper_bound`` returns immediately, mirroring the
        reference's per-root early exit.
        """
        best = float("inf")
        if self.nnz == 0:
            return best
        heads = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        once = heads < self.indices  # each undirected edge once
        us, vs = heads[once], self.indices[once]
        chunk = self._chunk_width(chunk_size)
        if upper_bound is not None and chunk_size is None:
            # The per-root early exit usually fires within the first few
            # roots; don't pre-pay a whole chunk of BFS distance rows.
            chunk = min(chunk, 32)
        for lo in range(0, self.n, chunk):
            hi = min(self.n, lo + chunk)
            dist = self.distances_from(
                range(lo, hi), kernel_workers=kernel_workers
            )
            for row in range(hi - lo):
                d = dist[row]
                du, dv = d[us], d[vs]
                reached = (du >= 0) & (dv >= 0)
                same = reached & (du == dv)
                if same.any():
                    best = min(best, 2 * int(du[same].min()) + 1)
                cross = reached & (du != dv)
                upper = np.where(du > dv, us, vs)[cross]
                if upper.size:
                    # >= 2 neighbors one level down => even cycle 2d.
                    repeated = np.bincount(upper, minlength=self.n)[upper] >= 2
                    if repeated.any():
                        d_upper = np.maximum(du, dv)[cross]
                        best = min(best, 2 * int(d_upper[repeated].min()))
                if upper_bound is not None and best <= upper_bound:
                    return best
        return best
