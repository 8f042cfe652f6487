"""Property-based equivalence suite: CSR kernels vs pure-Python graph ops.

Every kernel in :mod:`repro.graphs.csr` must be observationally
equivalent to its reference, the matching :class:`Graph` method — that
equivalence is what licenses the kernels as the one engine of the
Theorem 1.1 pipeline.  The suite sweeps ~100 random graphs across four
shapes (Erdős–Rényi, grids, caterpillars, and disconnected unions) and
checks every primitive, then runs the LDD end-to-end and asserts the
paper guarantees (the (C1) deletion bound and the Lemma 3.2
weak-diameter budget).
"""

import math
import zlib

import numpy as np
import pytest

import repro.graphs.csr as csr_module
import repro.obs as obs
from repro.core import LddParams, chang_li_ldd
from repro.decomp.shifts import sample_shifts, shifted_flood
from repro.graphs import (
    Graph,
    caterpillar,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_regular,
)
from repro.graphs.csr import CsrGraph
from repro.local.gather import gather_ball
from repro.mpc import MpcConfig


def _graph_pool():
    """~100 deterministic random graphs over four structural families."""
    pool = []
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        pool.append((f"er-{seed}", erdos_renyi(n, 0.12, rng)))
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        pool.append((f"grid-{seed}", grid_graph(rows, cols)))
        spine = int(rng.integers(3, 12))
        legs = int(rng.integers(1, 4))
        pool.append((f"caterpillar-{seed}", caterpillar(spine, legs)))
        # Disconnected: sparse ER (isolated vertices likely) glued to a
        # far-away cycle via a disjoint union.
        a = erdos_renyi(int(rng.integers(5, 15)), 0.08, rng)
        b = cycle_graph(int(rng.integers(3, 10)))
        pool.append((f"disconnected-{seed}", a.union_disjoint(b)))
    return pool


POOL = _graph_pool()


def _rng(name):
    return np.random.default_rng(zlib.crc32(name.encode()))


def _assert_dist_equal(graph, dist_arr, dist_dict):
    for v in range(graph.n):
        assert dist_arr[v] == dist_dict.get(v, -1)


def _reference_ball(graph, v, radius, within=None):
    """``(ball, depth reached)`` of the pure-Python BFS reference."""
    dist = graph.bfs_distances([v], radius, within=within)
    return set(dist), max(dist.values(), default=0)


class TestKernelEquivalence:
    def test_pool_size(self):
        assert len(POOL) == 100

    @pytest.mark.parametrize("name,graph", POOL)
    def test_bfs_distances(self, name, graph):
        rng = _rng(name)
        csr = graph.csr()
        for sources in ([0], [graph.n - 1, 0], sorted(
            rng.choice(graph.n, size=min(3, graph.n), replace=False).tolist()
        )):
            _assert_dist_equal(
                graph, csr.bfs_distances(sources), graph.bfs_distances(sources)
            )
            radius = int(rng.integers(0, 5))
            _assert_dist_equal(
                graph,
                csr.bfs_distances(sources, radius=radius),
                graph.bfs_distances(sources, radius=radius),
            )

    @pytest.mark.parametrize("name,graph", POOL)
    def test_bfs_distances_within(self, name, graph):
        """Residual-restricted BFS: kernel (set or mask) == reference."""
        rng = _rng(name + "-within")
        mask = rng.random(graph.n) < 0.6
        within = set(np.nonzero(mask)[0].tolist())
        csr = graph.csr()
        sources = rng.choice(graph.n, size=min(3, graph.n), replace=False).tolist()
        for radius in (None, int(rng.integers(0, 5))):
            ref = graph.bfs_distances(sources, radius, within=within)
            assert set(ref) <= within
            for kernel_within in (within, mask):
                _assert_dist_equal(
                    graph,
                    csr.bfs_distances(sources, radius=radius, within=kernel_within),
                    ref,
                )

    @pytest.mark.parametrize("name,graph", POOL)
    def test_balls_and_gather_layers(self, name, graph):
        rng = _rng(name)
        csr = graph.csr()
        radius = int(rng.integers(1, 6))
        sizes, depths = csr.all_ball_sizes(radius)
        for v in range(graph.n):
            assert sizes[v] == len(graph.ball(v, radius))
        # gather layers equal the reference BFS's distance classes,
        # with and without a residual vertex set
        within = set(rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist())
        center = int(rng.integers(0, graph.n))
        for kwargs in ({}, {"within": within}):
            dist = graph.bfs_distances([center], radius, **kwargs)
            depth = max(dist.values(), default=0)
            ref_layers = tuple(
                frozenset(v for v, d in dist.items() if d == j)
                for j in range(depth + 1)
            )
            fast = gather_ball(graph, [center], radius, **kwargs)
            assert fast.layers == ref_layers
            assert fast.depth_reached == depth
        _, ref_depth = _reference_ball(graph, center, radius)
        assert depths[center] == ref_depth

    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_weighted_ball_sizes(self, name, graph):
        rng = _rng(name)
        weights = rng.random(graph.n)
        sizes, _ = graph.csr().all_ball_sizes(3, weights=weights)
        for v in range(graph.n):
            expected = sum(weights[u] for u in graph.ball(v, 3))
            assert sizes[v] == pytest.approx(expected)
        # explicit (repeated, unordered) sources map row j to sources[j]
        sources = rng.integers(0, graph.n, size=min(graph.n, 11)).tolist()
        s_sizes, s_depths = graph.csr().all_ball_sizes(
            3, weights=weights, sources=sources, chunk_size=4
        )
        for j, v in enumerate(sources):
            ball, depth = _reference_ball(graph, v, 3)
            assert s_sizes[j] == pytest.approx(sum(weights[u] for u in ball))
            assert s_depths[j] == depth

    @pytest.mark.parametrize("radius", [None, 1, 3, 10**9])
    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_masked_ball_sizes_match_gather(self, name, graph, radius):
        """Sizes and depths of plain and residual-masked sweeps equal the
        pure-Python BFS reference, with chunks small enough to split the
        pool graphs."""
        mask = _rng(name + "-masked").random(graph.n) < 0.7
        within = set(np.nonzero(mask)[0].tolist())
        gather_radius = graph.n + 1 if radius is None else radius
        for kernel_within, ref_within in ((None, None), (mask, within)):
            sizes, depths = graph.csr().all_ball_sizes(
                radius, within=kernel_within, chunk_size=17
            )
            for v in range(graph.n):
                ball, depth = _reference_ball(graph, v, gather_radius, ref_within)
                assert sizes[v] == len(ball), (name, v)
                assert depths[v] == depth, (name, v)

    @pytest.mark.parametrize("name,graph", POOL)
    def test_power(self, name, graph):
        for k in (1, 2, 3):
            fast = graph.csr().power(k)
            ref = graph.power(k)
            assert fast == ref
            # the trusted bulk constructor must also rebuild identical
            # adjacency tuples, not just the edge set
            assert fast._adj == ref._adj

    @pytest.mark.parametrize("name,graph", POOL)
    def test_connected_components(self, name, graph):
        rng = _rng(name)
        csr = graph.csr()
        assert csr.connected_components() == graph.connected_components()
        within = set(rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist())
        assert csr.connected_components(
            within=within
        ) == graph.connected_components(within=within)

    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_distances_from_matrix(self, name, graph):
        sources = list(range(0, graph.n, 3))
        mat = graph.csr().distances_from(sources)
        for row, s in enumerate(sources):
            _assert_dist_equal(graph, mat[row], graph.bfs_distances([s]))

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 65])
    @pytest.mark.parametrize("name,graph", POOL[7::20])
    def test_multi_chunk_paths(self, name, graph, chunk_size):
        """Small chunk sizes force the lo>0 iterations of every packed
        kernel (word-boundary packing, cross-chunk slice assignment,
        power's cross-chunk edge dedup) that default sizing never hits
        on test-scale graphs."""
        csr = graph.csr()
        sizes, depths = csr.all_ball_sizes(3, chunk_size=chunk_size)
        ref_sizes, ref_depths = csr.all_ball_sizes(3)
        assert sizes.tolist() == ref_sizes.tolist()
        assert depths.tolist() == ref_depths.tolist()
        mat = csr.distances_from(range(graph.n), chunk_size=chunk_size)
        for s in range(0, graph.n, 5):
            _assert_dist_equal(graph, mat[s], graph.bfs_distances([s]))
        chunked_power = csr.power(2, chunk_size=chunk_size)
        assert chunked_power == graph.power(2)
        assert chunked_power._adj == graph.power(2)._adj


def _weak_diameter_cases():
    """``(name, graph, subset)``: a random subset of every pool graph,
    then inputs whose subset is far shallower than the graph — arcs of
    a long cycle (one wrapping past 0) and path, a path's two ends,
    and subsets split across components (weak diameter inf)."""
    cases = [
        (name, graph, _rng(name).choice(
            graph.n, size=max(2, graph.n // 3), replace=False
        ).tolist())
        for name, graph in POOL
    ]
    cycle, path = cycle_graph(6000), path_graph(3000)
    split = cycle_graph(300).union_disjoint(path_graph(200))
    cases += [
        ("cycle-6000-arc41", cycle, list(range(5980, 6000)) + list(range(21))),
        ("cycle-6000-arc177", cycle, list(range(1000, 1177))),
        ("path-3000-arc", path, list(range(2900, 3000))),
        ("path-3000-ends", path, [0, 1, 2998, 2999]),
        ("split-cycle-path", split, [0, 1, 150, 300, 301, 499]),
    ]
    return cases


WEAK_DIAMETER_CASES = _weak_diameter_cases()


class TestTargetBoundedDistances:
    """``distances_from(..., targets=)``, the sweep behind every weak
    diameter and the sparse-cover membership, equals the ``targets``
    columns of the full matrix and the reference BFS at 1 and 2 kernel
    workers, and stops at the depth of its own pairs."""

    @pytest.mark.parametrize("kernel_workers", [1, 2])
    @pytest.mark.parametrize("name,graph", POOL[::3])
    def test_pool_columns(self, name, graph, kernel_workers):
        rng = _rng(name + "-targets")
        csr = graph.csr()
        mask = rng.random(graph.n) < 0.6
        sources = rng.choice(graph.n, size=max(1, graph.n // 3), replace=False).tolist()
        # unsorted, with repeats, and partly outside the mask
        targets = rng.integers(0, graph.n, size=graph.n // 2 + 1).tolist()
        masked = set(np.flatnonzero(mask).tolist())
        for within, ref_within in ((None, None), (mask, masked)):
            for radius, chunk_size in ((None, None), (2, None), (None, 7)):
                full = csr.distances_from(sources, radius, within, chunk_size)
                got = csr.distances_from(
                    sources, radius, within, chunk_size, kernel_workers, targets=targets
                )
                assert got.tobytes() == full[:, targets].tobytes()
                for row, s in enumerate(sources):
                    ref = graph.bfs_distances([s], radius, within=ref_within)
                    assert got[row].tolist() == [ref.get(t, -1) for t in targets]

    @pytest.mark.parametrize("kernel_workers", [1, 2])
    @pytest.mark.parametrize(
        "name,graph,subset",
        WEAK_DIAMETER_CASES,
        ids=[c[0] for c in WEAK_DIAMETER_CASES],
    )
    def test_weak_diameter(self, name, graph, subset, kernel_workers):
        csr = graph.csr()
        assert csr.weak_diameter(subset, kernel_workers) == graph.weak_diameter(subset)
        if graph.n < 1000:
            return  # the pool graphs are covered column by column above
        got = csr.distances_from(subset, kernel_workers=kernel_workers, targets=subset)
        for row, s in enumerate(subset):
            ref = graph.bfs_distances([s])
            assert got[row].tolist() == [ref.get(t, -1) for t in subset]

    @pytest.mark.parametrize("name", ["cycle-6000-arc41", "path-3000-arc"])
    def test_long_arc_full_matrix_columns(self, name):
        _, graph, arc = next(c for c in WEAK_DIAMETER_CASES if c[0] == name)
        csr = graph.csr()
        full = csr.distances_from(arc)
        assert csr.distances_from(arc, targets=arc).tobytes() == full[:, arc].tobytes()

    @pytest.mark.parametrize("kernel_workers", [1, 2])
    def test_empty_sources_or_targets(self, kernel_workers):
        csr = grid_graph(4, 4).csr()
        for sources, targets in (([], [1, 2]), ([0, 3], []), ([], [])):
            got = csr.distances_from(
                sources, kernel_workers=kernel_workers, targets=targets
            )
            assert got.shape == (len(sources), len(targets))
            assert got.dtype == np.int64
        with pytest.raises(ValueError, match="targets"):
            csr.distances_from([0], targets=[16])

    def test_arc_sweeps_only_its_own_depth(self, monkeypatch):
        """A 177-vertex arc of cycle-6000 has weak diameter 176, so its
        sweep needs at most 177 of the cycle's 3000 levels."""
        levels = []
        expand = csr_module._PackedSweep.expand

        def counting(self, *args):
            levels.append(1)
            return expand(self, *args)

        monkeypatch.setattr(csr_module._PackedSweep, "expand", counting)
        csr = cycle_graph(6000).csr()
        assert csr.weak_diameter(range(1000, 1177), kernel_workers=1) == 176
        assert 0 < len(levels) <= 177


def _distance_chunk_cases():
    rng = np.random.default_rng(11)
    cycle, grid = cycle_graph(400), grid_graph(13, 17)
    return [
        ("cycle-400", cycle, None),
        ("cycle-400-within", cycle, rng.random(cycle.n) < 0.8),
        ("grid-13x17", grid, None),
        ("grid-13x17-within", grid, rng.random(grid.n) < 0.7),
    ]


DISTANCE_CHUNK_CASES = _distance_chunk_cases()


class TestDistancesChunk:
    """``_distances_chunk`` unpacks only the rows where the frontier has
    bits; its rows equal ``Graph.bfs_distances`` on a long cycle and a
    grid with ``radius``, ``within`` and ``targets`` (repeats included),
    and ``distances_from`` (the sharded ``"dist"`` task under
    ``REPRO_KERNEL_WORKERS=2``) returns the same bytes."""

    @pytest.mark.parametrize("radius", [None, 0, 3, 150])
    @pytest.mark.parametrize(
        "name,graph,mask",
        DISTANCE_CHUNK_CASES,
        ids=[c[0] for c in DISTANCE_CHUNK_CASES],
    )
    def test_rows_match_reference(self, name, graph, mask, radius):
        rng = _rng(name + "-chunk")
        csr = graph.csr()
        within = None if mask is None else set(np.flatnonzero(mask).tolist())
        sources = rng.choice(graph.n, size=70, replace=False)  # two packed words
        targets = np.concatenate(
            (rng.integers(0, graph.n, size=40), sources[:5], sources[:5])
        )
        full = csr._distances_chunk(sources, radius, mask, None)
        cols = csr._distances_chunk(sources, radius, mask, targets)
        for row, s in enumerate(sources.tolist()):
            ref = graph.bfs_distances([s], radius, within=within)
            assert full[row].tolist() == [ref.get(v, -1) for v in range(graph.n)]
            assert cols[row].tolist() == [ref.get(t, -1) for t in targets.tolist()]
        got = csr.distances_from(sources, radius, mask)
        assert got.tobytes() == full.tobytes()
        got = csr.distances_from(sources, radius, mask, targets=targets)
        assert got.tobytes() == cols.tobytes()

    def test_write_back_scales_with_frontier(self, monkeypatch):
        """Each vertex of a cycle enters one source's frontier once, so
        the levels unpack n rows in all, not levels × n."""
        rows = []
        unpack = CsrGraph._unpack

        def counting(packed, count):
            rows.append(len(packed))
            return unpack(packed, count)

        monkeypatch.setattr(CsrGraph, "_unpack", staticmethod(counting))
        dist = cycle_graph(2000).csr()._distances_chunk(
            np.array([0]), None, None, None
        )
        assert dist.max() == 1000
        assert sum(rows) == 2000


class TestShiftedFloodReference:
    """The heap flood (the one engine of EN/MPX) vs a brute-force oracle
    that evaluates ``m_u(v) = T_u − dist(u, v)`` over every source."""

    @pytest.mark.parametrize("name,graph", POOL[::3])
    def test_top2_matches_brute_force(self, name, graph, brute_force_records):
        rng = _rng(name)
        lam = float(rng.choice([0.1, 0.5, 1.5]))
        shifts = sample_shifts(graph.n, lam, max(graph.n, 2), seed=int(rng.integers(1 << 20)))
        within_options = [None]
        if graph.n > 4:
            within_options.append(set(range(0, graph.n, 2)))
        for within in within_options:
            flood = shifted_flood(graph, shifts, keep=2, within=within)
            oracle = brute_force_records(graph, shifts, within)
            for v in range(graph.n):
                got = [(r.value, r.source, r.dist) for r in flood[v]]
                assert got == oracle[v][:2], (name, v)


def _shattered_graph(num_components=10000):
    """A graph shattered into path-3 components (the post-carve shape)."""
    edges_u = []
    edges_v = []
    for c in range(num_components):
        base = 3 * c
        edges_u += [base, base + 1]
        edges_v += [base + 1, base + 2]
    return Graph(3 * num_components, zip(edges_u, edges_v, strict=True))


class TestSaturationShortcut:
    """The whole-graph-radius path: every ball saturates its component.

    The kernel retires sources (packed 64 per word) as soon as their
    frontier empties and must report exactly the sizes and depths of
    the exhaustive sweep — including with a residual mask, weights,
    and any chunking that splits or straddles the retirement words.
    """

    @pytest.mark.parametrize("name,graph", POOL[3::10])
    @pytest.mark.parametrize("radius", [None, 10**6])
    def test_unbounded_radius_equals_python_gather(self, name, graph, radius):
        sizes, depths = graph.csr().all_ball_sizes(radius)
        for v in range(graph.n):
            ball, depth = _reference_ball(graph, v, graph.n + 1)
            assert sizes[v] == len(ball), (name, v)
            assert depths[v] == depth, (name, v)

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 64, 65, 128])
    @pytest.mark.parametrize("name,graph", POOL[5::25])
    def test_chunking_invariance_at_saturation(self, name, graph, chunk_size):
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(None)
        sizes, depths = graph.csr().all_ball_sizes(None, chunk_size=chunk_size)
        assert sizes.tolist() == ref_sizes.tolist()
        assert depths.tolist() == ref_depths.tolist()

    @pytest.mark.parametrize("name,graph", POOL[9::25])
    def test_residual_mask_saturation(self, name, graph):
        rng = _rng(name + "-sat")
        within = set(
            rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist()
        )
        sizes, depths = graph.csr().all_ball_sizes(None, within=within)
        for v in range(graph.n):
            ball, depth = _reference_ball(graph, v, graph.n + 1, within)
            assert sizes[v] == len(ball), (name, v)
            assert depths[v] == depth, (name, v)

    @pytest.mark.parametrize("name,graph", POOL[11::25])
    def test_weighted_saturation(self, name, graph):
        rng = _rng(name + "-wsat")
        weights = rng.random(graph.n)
        sizes, _ = graph.csr().all_ball_sizes(None, weights=weights)
        for v in range(graph.n):
            ball, _ = _reference_ball(graph, v, graph.n + 1)
            assert sizes[v] == pytest.approx(sum(weights[u] for u in ball))

    @pytest.mark.parametrize("radius", [None, 1, 3, 10**9])
    def test_masked_multiword_chunks_match_gather(self, radius):
        """A union of pool graphs swept in 130-source chunks (three
        words each): words whose sources all sit in small or masked-out
        components retire while their chunk-mates keep expanding."""
        graph = POOL[0][1]
        for _, part in POOL[5::5]:
            graph = graph.union_disjoint(part)
        mask = _rng("multiword").random(graph.n) < 0.7
        within = set(np.nonzero(mask)[0].tolist())
        gather_radius = graph.n + 1 if radius is None else radius
        for chunk_size in (17, 130):
            sizes, depths = graph.csr().all_ball_sizes(
                radius, within=mask, chunk_size=chunk_size
            )
            for v in range(graph.n):
                ball, depth = _reference_ball(graph, v, gather_radius, within)
                assert sizes[v] == len(ball), (chunk_size, v)
                assert depths[v] == depth, (chunk_size, v)

    def test_shattered_components_retire_early(self):
        """10^4 path-3 components: every source saturates by depth 2, so
        the packed sweep must harvest component sizes and stop instead
        of grinding a whole-graph radius."""
        graph = _shattered_graph(10000)
        sizes, depths = graph.csr().all_ball_sizes(10**9)
        assert sizes.tolist() == [3.0] * graph.n
        expected_depth = [2, 1, 2] * 10000  # endpoints reach across, middles in 1
        assert depths.tolist() == expected_depth
        # chunk boundaries interleaving many saturated words
        sizes2, depths2 = graph.csr().all_ball_sizes(10**9, chunk_size=100)
        assert sizes2.tolist() == sizes.tolist()
        assert depths2.tolist() == depths.tolist()

    def test_shattered_with_straggler_component(self):
        """One long path among tiny components: the tiny components'
        words retire and drop out of the sweep while the straggler's
        word keeps expanding to its full eccentricity."""
        comps = _shattered_graph(200)
        long_path = Graph(120, [(i, i + 1) for i in range(119)])
        graph = comps.union_disjoint(long_path)
        sizes, depths = graph.csr().all_ball_sizes(None, chunk_size=256)
        assert sizes[: comps.n].tolist() == [3.0] * comps.n
        assert sizes[comps.n :].tolist() == [120.0] * 120
        assert depths[comps.n] == 119  # path endpoint eccentricity
        assert int(depths.max()) == 119

    def test_skewed_degrees_fall_back_to_reduceat(self):
        """A star's padded table would be quadratic; the kernel must
        decline it and stay exact on the segmented-reduceat path."""
        from repro.graphs import star_graph

        graph = star_graph(200)
        assert graph.csr()._padded_adjacency() is None
        sizes, depths = graph.csr().all_ball_sizes(None)
        assert sizes.tolist() == [200.0] * 200
        assert depths.tolist() == [1, *([2] * 199)]

    def test_padded_table_built_for_regular_degrees(self):
        graph = grid_graph(8, 8)
        pad = graph.csr()._padded_adjacency()
        assert pad is not None and pad.shape == (64, 4)
        # phantom slots point at the all-zero row n
        assert (pad[(pad >= 0)] <= graph.n).all()


def _fresh_csr(graph, arm):
    """A CSR of ``graph`` whose sweep takes the given expansion arm."""
    csr = CsrGraph(graph)
    if arm == "reduceat":
        csr._padded = None  # decline the padded table
    assert (csr._padded_adjacency() is not None) == (arm == "padded")
    return csr


def _packed_columns(csr, packed, count):
    """Vertex sets of the first ``count`` lanes of a packed (n, W) array."""
    bits = csr._unpack(packed, count)
    return [set(np.flatnonzero(bits[:, j]).tolist()) for j in range(count)]


def _packed_sweep_cases():
    from repro.graphs import star_graph

    rng = np.random.default_rng(7)
    sparse = erdos_renyi(90, 0.04, rng)
    return [
        ("grid-9x11", grid_graph(9, 11), "padded", None),
        ("grid-9x11", grid_graph(9, 11), "reduceat", None),
        ("star-150", star_graph(150), "reduceat", None),
        # Zero-degree rows: the padded arm's all-phantom rows and the
        # reduceat arm's empty segments (which read the next row's first
        # neighbor, or the zeroed padding row when trailing) must read 0.
        ("path-40+isolated-5", path_graph(40).union_disjoint(Graph(5)), "padded", None),
        ("star-60+isolated-5", star_graph(60).union_disjoint(Graph(5)), "reduceat", None),
        ("isolated-5+star-60", Graph(5).union_disjoint(star_graph(60)), "reduceat", None),
        ("edgeless-7", Graph(7), "reduceat", None),
        ("er-90-within", sparse, "padded", rng.random(90) < 0.7),
        ("er-90-within", sparse, "reduceat", rng.random(90) < 0.7),
    ]


class TestPackedSweep:
    """The engine level by level against the pure-Python BFS: every
    frontier is one distance layer and ``visited`` the ball so far."""

    @pytest.mark.parametrize(
        "name,graph,arm,mask",
        _packed_sweep_cases(),
        ids=[f"{c[0]}-{c[2]}" for c in _packed_sweep_cases()],
    )
    def test_levels_match_python_bfs(self, name, graph, arm, mask):
        csr = _fresh_csr(graph, arm)
        sources = np.arange(0, graph.n, 3, dtype=np.int64)
        count = len(sources)
        within = None if mask is None else np.flatnonzero(mask).tolist()
        dist = [graph.bfs_distances([int(s)], within=within) for s in sources]
        sweep = csr_module._PackedSweep(csr, sources, mask)
        frontier = _packed_columns(csr, sweep.visited, count)
        level = 0
        while any(frontier):
            for j in range(count):
                layer = {v for v, d in dist[j].items() if d == level}
                assert frontier[j] == layer, (name, level, j)
                ball = {v for v, d in dist[j].items() if d <= level}
                assert _packed_columns(csr, sweep.visited, count)[j] == ball
            frontier = _packed_columns(csr, sweep.expand(), count)
            level += 1
        assert level == 1 + max(max(d.values(), default=0) for d in dist)
        final = _packed_columns(csr, sweep.visited, count)
        assert final == [set(d) for d in dist]

    @pytest.mark.parametrize("arm", ["padded", "reduceat"])
    def test_retired_words_leave_the_rest_exact(self, arm):
        """Words whose lanes stop growing are dropped with ``keep``
        while the remaining word expands on, exact, to its last level."""
        graph = _shattered_graph(50).union_disjoint(path_graph(70))
        csr = _fresh_csr(graph, arm)
        # Path-3 components fill words 0 and 1; word 2 holds an end
        # (eccentricity 69) and an inner vertex of the path.
        sources = np.concatenate((np.arange(128), [150, 180])).astype(np.int64)
        count = len(sources)
        dist = [graph.bfs_distances([int(s)]) for s in sources]
        sweep = csr_module._PackedSweep(csr, sources, None)
        active = np.arange(sweep.visited.shape[1])
        level = 0
        retired_at = {}
        while active.size:
            new = sweep.expand()
            level += 1
            assert level <= 70
            live = np.bitwise_or.reduce(new, axis=0) != 0
            for slot, word in enumerate(active.tolist()):
                lanes = range(64 * word, min(count, 64 * word + 64))
                word_bits = slice(slot, slot + 1)
                layer = _packed_columns(csr, new[:, word_bits], len(lanes))
                ball = _packed_columns(csr, sweep.visited[:, word_bits], len(lanes))
                for col, j in enumerate(lanes):
                    assert layer[col] == {v for v, d in dist[j].items() if d == level}
                    assert ball[col] == {v for v, d in dist[j].items() if d <= level}
            if not live.all():
                for word in active[~live].tolist():
                    retired_at[word] = level
                sweep.keep(np.flatnonzero(live))
                active = active[live]
        assert retired_at == {0: 3, 1: 3, 2: 70}
        assert sweep.visited.shape == (graph.n, 0)

    @pytest.mark.parametrize(
        "graph",
        [grid_graph(6, 7), path_graph(30).union_disjoint(Graph(3)), cycle_graph(50)],
        ids=["grid-6x7", "path-30+isolated-3", "cycle-50"],
    )
    def test_gather_indices_stay_in_range(self, graph):
        """``mode="clip"`` on every gather is a no-op: the padded table
        points at most at the phantom row n of the n + 1 stage rows,
        and the reduceat gather index stays below n."""
        csr = CsrGraph(graph)
        n = graph.n
        pad = csr._padded_adjacency()
        assert pad is not None and pad.min() >= 0 and pad.max() <= n
        assert csr._gather_index.min() >= 0 and csr._gather_index.max() < n
        sweep = csr_module._PackedSweep(csr, np.arange(n), None)
        assert sweep._stage.shape == (n + 1, sweep.visited.shape[1])
        assert not sweep._stage[n].any()


def _mixed_union():
    """Isolated vertices, cycles and paths (whose depths do not certify)
    beside a grid, a caterpillar and a sparse random graph."""
    graph = Graph(7)
    for part in (
        cycle_graph(31),
        path_graph(40),
        grid_graph(5, 9),
        cycle_graph(12),
        caterpillar(9, 2),
        erdos_renyi(30, 0.06, np.random.default_rng(4)),
        path_graph(2),
    ):
        graph = graph.union_disjoint(part)
    return graph


def _estimate_radii(graph):
    diameter = max(graph.csr().all_ball_sizes(None)[1].tolist(), default=0)
    return (0, 1, 3, diameter, diameter + 5, None)


def _ball_sizes_calls(monkeypatch):
    """Count packed ball sweeps — ``all_ball_sizes`` and the depth-only
    sweep of ``ball_size_estimate`` alike (returns the list of per-call
    source counts)."""
    calls = []
    original = CsrGraph._ball_sweep

    def counting(self, *args, **kwargs):
        sizes, depths = original(self, *args, **kwargs)
        calls.append(len(sizes))
        return sizes, depths

    monkeypatch.setattr(CsrGraph, "_ball_sweep", counting)
    return calls


class TestBallSizeEstimate:
    """``ball_size_estimate`` is the full sweep's ``(sizes,
    depths.max())``, bit for bit: saturated balls from component sizes,
    the max depth from bounding-eccentricity rounds, the rest swept."""

    @pytest.fixture
    def always_certify(self, monkeypatch):
        # Pool graphs are far narrower than the small-graph cut-over;
        # run the certification rounds on them anyway.
        monkeypatch.setattr(csr_module, "_ESTIMATE_MIN_WORDS", 0)

    @staticmethod
    def _assert_matches_sweep(graph, radius, kernel_workers):
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(radius)
        sizes, max_depth = graph.csr().ball_size_estimate(
            radius, kernel_workers=kernel_workers
        )
        assert sizes.dtype == ref_sizes.dtype
        assert sizes.tobytes() == ref_sizes.tobytes(), radius
        assert max_depth == int(ref_depths.max()), radius

    @pytest.mark.parametrize("name,graph", POOL)
    def test_pool_matches_sweep(self, name, graph, always_certify):
        for radius in _estimate_radii(graph):
            for kernel_workers in (1, 2):
                self._assert_matches_sweep(graph, radius, kernel_workers)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 8, 20, 39, 10**6, None])
    def test_mixed_union_matches_sweep(self, radius, always_certify):
        graph = _mixed_union()
        for kernel_workers in (1, 2):
            self._assert_matches_sweep(graph, radius, kernel_workers)

    @pytest.mark.parametrize("radius", [0, 3, 50, None])
    def test_default_cut_over_matches_sweep(self, radius):
        """Below the cut-over width the step is the sweep itself; above
        it the rounds run.  Both agree with the sweep."""
        for graph in (_mixed_union(), grid_graph(30, 30)):
            self._assert_matches_sweep(graph, radius, None)

    def test_vertex_transitive_components_fall_back(self, always_certify):
        """Every vertex of a cycle has the same eccentricity, so no
        bound ever certifies one vertex from another: the rounds stall
        and the cycle's sources are swept."""
        graph = cycle_graph(40).union_disjoint(cycle_graph(30))
        with obs.collect() as col:
            self._assert_matches_sweep(graph, None, None)
        counters = col.counter_table()
        assert counters["csr.ball_estimate.saturated"] == graph.n
        assert counters["csr.ball_estimate.swept"] > 0

    def test_saturated_grid_makes_no_sweep(self, monkeypatch):
        graph = grid_graph(30, 30)
        radius = LddParams.practical(0.2, graph.n).estimate_radius
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(radius)
        calls = _ball_sizes_calls(monkeypatch)
        with obs.collect() as col:
            sizes, max_depth = graph.csr().ball_size_estimate(radius)
        assert calls == []
        assert sizes.tolist() == ref_sizes.tolist() == [900.0] * 900
        assert max_depth == int(ref_depths.max()) == 58
        counters = col.counter_table()
        assert counters["csr.ball_estimate.saturated"] == 900
        assert counters["csr.ball_estimate.swept"] == 0
        assert 1 <= counters["csr.ball_estimate.bfs_calls"] <= 10

    def test_expander_still_sweeps(self, monkeypatch):
        """A 3-regular expander's depth does not certify: the rounds
        stop after the warm-up and (nearly) every source is swept."""
        graph = random_regular(1200, 3, np.random.default_rng(7))
        radius = LddParams.practical(0.2, graph.n).estimate_radius
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(radius)
        calls = _ball_sizes_calls(monkeypatch)
        with obs.collect() as col:
            sizes, max_depth = graph.csr().ball_size_estimate(radius)
        assert sizes.tolist() == ref_sizes.tolist()
        assert max_depth == int(ref_depths.max())
        counters = col.counter_table()
        assert counters["csr.ball_estimate.bfs_calls"] == csr_module._WARMUP_ROUNDS
        assert calls == [counters["csr.ball_estimate.swept"]]
        assert calls[0] > graph.n - 64

    def test_sharded_sweep_bit_identical(self, monkeypatch, always_certify):
        """``kernel_workers`` reaches the sweep of the open sources:
        with narrow chunks the sharded dispatch engages, and sizes and
        depth stay the serial ones."""
        monkeypatch.setattr(csr_module, "_GATHER_BUDGET_BYTES", 1)
        expander = random_regular(1200, 3, np.random.default_rng(7))
        for graph in (expander, _mixed_union()):
            serial = graph.csr().ball_size_estimate(None, kernel_workers=1)
            sharded = graph.csr().ball_size_estimate(None, kernel_workers=2)
            assert serial[0].tobytes() == sharded[0].tobytes()
            assert serial[1] == sharded[1]

    @pytest.mark.parametrize("kernel_workers", [1, 2])
    def test_saturated_expander_sweeps_depth_only(self, kernel_workers, monkeypatch):
        """Every ball of a connected expander covers the graph at radius
        ``None``, so the open sources are swept for their depths only:
        no packed word is harvested, and sizes and depth are still the
        full sweep's."""
        monkeypatch.setattr(csr_module, "_GATHER_BUDGET_BYTES", 1 << 16)
        graph = random_regular(2000, 3, np.random.default_rng(11))
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(None)
        with obs.collect() as col:
            sizes, max_depth = graph.csr().ball_size_estimate(
                None, kernel_workers=kernel_workers
            )
        assert sizes.tobytes() == ref_sizes.tobytes()
        assert max_depth == int(ref_depths.max())
        counters = col.counter_table()
        assert counters["csr.ball_estimate.swept"] > 0
        assert counters["csr.ball.words_retired"] > 0
        assert counters.get("csr.ball.harvested_words", 0) == 0

    def test_unsaturated_grid_harvests_sizes(self):
        """Radius 112 leaves most balls of a 50x200 grid short of the
        component: their sizes are counted from the packed words, at
        one kernel worker and at two."""
        graph = grid_graph(50, 200)
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(112, kernel_workers=2)
        for kernel_workers in (1, 2):
            with obs.collect() as col:
                sizes, max_depth = graph.csr().ball_size_estimate(
                    112, kernel_workers=kernel_workers
                )
            assert sizes.tobytes() == ref_sizes.tobytes()
            assert max_depth == int(ref_depths.max())
            assert col.counter_table()["csr.ball.harvested_words"] > 0

    def test_small_graph_skips_the_rounds(self, monkeypatch):
        graph = grid_graph(20, 20)  # 7 packed words
        calls = _ball_sizes_calls(monkeypatch)
        with obs.collect() as col:
            graph.csr().ball_size_estimate(None)
        assert calls == [graph.n]
        assert "csr.ball_estimate.bfs_calls" not in col.counter_table()

    def test_empty_and_negative_radius(self):
        sizes, max_depth = Graph(0).csr().ball_size_estimate(3)
        assert len(sizes) == 0 and max_depth == 0
        with pytest.raises(ValueError, match="radius"):
            grid_graph(3, 3).csr().ball_size_estimate(-1)


class TestGirth:
    """CsrGraph.girth vs the per-vertex-BFS reference, value-identical."""

    @pytest.mark.parametrize("name,graph", POOL[::4])
    def test_matches_reference(self, name, graph):
        assert graph.csr().girth() == graph.girth()

    @pytest.mark.parametrize("name,graph", POOL[2::10])
    def test_upper_bound_early_exit_matches(self, name, graph):
        for ub in (3, 4, 6, 10):
            assert graph.csr().girth(upper_bound=ub) == graph.girth(
                upper_bound=ub
            ), (name, ub)

    def test_named_graphs(self):
        from repro.graphs.highgirth import mcgee_graph, petersen_graph

        assert petersen_graph().csr().girth() == 5
        assert mcgee_graph().csr().girth() == 7
        assert cycle_graph(9).csr().girth() == 9
        assert grid_graph(3, 4).csr().girth() == 4

    def test_forest_and_edge_cases(self):
        from repro.graphs import path_graph, random_tree

        assert path_graph(6).csr().girth() == float("inf")
        assert Graph(0).csr().girth() == float("inf")
        assert Graph(5).csr().girth() == float("inf")
        tree = random_tree(40, np.random.default_rng(3))
        assert tree.csr().girth() == tree.girth() == float("inf")


class TestCsrEdgeCases:
    def test_empty_graph(self):
        g = Graph(0)
        csr = g.csr()
        sizes, depths = csr.all_ball_sizes(3)
        assert len(sizes) == 0 and len(depths) == 0
        assert csr.connected_components() == []

    def test_isolated_vertices(self):
        g = Graph(4, [(0, 1)])
        csr = g.csr()
        sizes, depths = csr.all_ball_sizes(2)
        assert sizes.tolist() == [2, 2, 1, 1]
        assert depths.tolist() == [1, 1, 0, 0]
        assert csr.connected_components() == [{0, 1}, {2}, {3}]

    def test_csr_cache_reused(self):
        g = cycle_graph(6)
        assert g.csr() is g.csr()
        assert isinstance(g.csr(), CsrGraph)

    def test_mask_passthrough(self):
        g = cycle_graph(8)
        mask = np.zeros(8, dtype=bool)
        mask[[0, 1, 2, 5]] = True
        by_mask = g.csr().bfs_distances([0], within=mask)
        by_set = g.csr().bfs_distances([0], within={0, 1, 2, 5})
        assert by_mask.tolist() == by_set.tolist()


def _diameter_budget(params: LddParams) -> float:
    return 2 * (params.t + 2) * params.interval_length + math.ceil(
        8 * math.log(params.ntilde) / params.phase3_lambda
    )


class TestLddEndToEnd:
    """Theorem 1.1's guarantees hold, and the local run (saturation
    short-circuit where it applies) equals the partitioned run, which
    sweeps every source."""

    GRAPHS = (
        ("cycle-150", lambda: cycle_graph(150)),
        ("grid-12x12", lambda: grid_graph(12, 12)),
        ("caterpillar-40x2", lambda: caterpillar(40, 2)),
        # Wide enough for the n_v estimate to run its certification
        # rounds over several components.
        (
            "grid-24x24+cycle-150+path-80",
            lambda: grid_graph(24, 24)
            .union_disjoint(cycle_graph(150))
            .union_disjoint(path_graph(80)),
        ),
    )

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_guarantees_and_agreement(self, name, make):
        eps = 0.3
        for seed in range(3):
            graph = make()
            params = LddParams.practical(eps, graph.n)
            d = chang_li_ldd(graph, params, seed=seed)
            # (C1): the unclustered fraction stays below eps
            assert len(d.deleted) <= eps * graph.n, (name, seed)
            # Lemma 3.2: every cluster within the weak-diameter budget
            budget = _diameter_budget(params)
            for cluster in d.clusters:
                assert graph.weak_diameter(cluster) <= budget
            swept = chang_li_ldd(
                graph, params, seed=seed, mpc=MpcConfig(ranks=2)
            )
            assert swept.deleted == d.deleted, (name, seed)
            assert swept.clusters == d.clusters, (name, seed)
            assert (
                swept.ledger.effective_rounds == d.ledger.effective_rounds
            ), (name, seed)
