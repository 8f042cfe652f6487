"""Rank-determinism property suite for the partitioned backend.

The contract under test (ISSUE 8, mirroring the kernel-worker suite in
``test_graphs_parallel.py``): every partitioned driver produces
**bit-identical** output to the single-box kernels for ranks in
{1, 2, 4, 8} — under both layouts, with radius caps, residual masks,
source subsets and forced tiny partitions (empty shards) — and the
per-round metering tables are bit-reproducible across repeat runs and
pinned as literals.  Weighted ball sizes are the documented exception:
identical across *rank counts*, allclose vs the serial harvest (float
summation order differs).
"""

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
from repro.core import LddParams, chang_li_ldd
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    hub_and_spokes,
    random_regular,
)
from repro.graphs.graph import Graph
from repro.mpc import MpcConfig, ShardKernel, partition_graph


def _graphs():
    rng = np.random.default_rng(7)
    shattered = Graph(
        90, [*((3 * i, 3 * i + 1) for i in range(30)), (1, 2), (4, 5)]
    )
    return [
        ("grid", grid_graph(14, 17)),
        ("regular", random_regular(240, 3, rng)),
        ("skewed", hub_and_spokes(4, 30)),
        ("shattered", shattered),
    ]


GRAPHS = _graphs()
RANKS = [1, 2, 4, 8]
LAYOUTS = ["contiguous", "hash"]


# The metering of one fixed workload, pinned as literals so a driver
# rewrite that moves a byte or a message fails: grid_graph(14, 17) at
# ranks 4, all_ball_sizes(radius=4, chunk_size=13) then
# bfs_distances([0, 5, 9], radius=3).  Per round: 19 chunks of
# (4 ball levels + 1 harvest), then 3 BFS levels.
PINNED_LABELS = (["ball.level"] * 4 + ["ball.harvest"]) * 19 + ["bfs.level"] * 3
PINNED_METERING = {
    "contiguous": {
        "bytes": [
            48, 48, 128, 352, 1536, 48, 64, 288, 528, 1536, 48, 256, 496, 544,
            1536, 208, 416, 480, 512, 1536, 256, 496, 544, 784, 1536, 224, 448,
            672, 896, 1536, 48, 352, 816, 1040, 1536, 80, 336, 752, 976, 1536,
            256, 496, 656, 1024, 1536, 256, 496, 576, 944, 1536, 144, 368, 736,
            1040, 1536, 48, 400, 848, 992, 1536, 176, 400, 720, 992, 1536, 256,
            480, 528, 736, 1536, 256, 480, 528, 640, 1536, 48, 272, 528, 576,
            1536, 48, 112, 336, 512, 1536, 48, 48, 176, 384, 1536, 48, 48, 48,
            112, 1536, 0, 0, 8,
        ],
        "messages": [
            6, 6, 7, 8, 3, 6, 7, 8, 8, 3, 6, 7, 8, 8, 3, 7, 8, 8, 9, 3, 8, 8,
            8, 9, 3, 7, 8, 9, 10, 3, 6, 8, 10, 10, 3, 7, 9, 10, 10, 3, 7, 8, 9,
            11, 3, 8, 8, 9, 11, 3, 7, 8, 9, 10, 3, 6, 8, 10, 10, 3, 7, 8, 9,
            10, 3, 8, 8, 9, 10, 3, 7, 8, 8, 9, 3, 6, 7, 8, 8, 3, 6, 7, 8, 8, 3,
            6, 6, 7, 8, 3, 6, 6, 6, 7, 3, 0, 0, 1,
        ],
        "max_rank_bytes": [
            48, 48, 128, 352, 1536, 48, 64, 288, 528, 1536, 48, 256, 496, 544,
            1536, 208, 416, 480, 496, 1536, 256, 496, 544, 752, 1536, 224, 448,
            640, 864, 1536, 48, 320, 784, 1008, 1536, 48, 304, 720, 944, 1536,
            224, 464, 624, 880, 1536, 224, 464, 544, 752, 1536, 112, 336, 704,
            1008, 1536, 48, 368, 816, 960, 1536, 144, 368, 688, 960, 1536, 224,
            448, 496, 704, 1536, 224, 448, 496, 608, 1536, 48, 240, 496, 544,
            1536, 48, 80, 304, 480, 1536, 48, 48, 144, 352, 1536, 48, 48, 48,
            80, 1536, 0, 0, 8,
        ],
        "totals": {
            "bytes": 61192,
            "messages": 662,
            "rounds": 98,
            "max_round_rank_bytes": 1536,
        },
    },
    "hash": {
        "bytes": [
            448, 896, 1376, 1888, 1536, 464, 1216, 1792, 2304, 1536, 464, 1360,
            2112, 2720, 1536, 464, 1328, 2256, 2784, 1536, 464, 1360, 2352,
            3408, 1536, 464, 1360, 2352, 3312, 1536, 464, 1360, 2384, 3472,
            1536, 464, 1360, 2320, 3248, 1536, 464, 1360, 2384, 3472, 1536,
            464, 1360, 2320, 3248, 1536, 464, 1360, 2384, 3472, 1536, 464,
            1360, 2352, 3312, 1536, 464, 1360, 2352, 3408, 1536, 464, 1328,
            2256, 3184, 1536, 464, 1360, 2384, 3168, 1536, 464, 1360, 2240,
            2816, 1536, 464, 1312, 1824, 2368, 1536, 464, 912, 1392, 1904,
            1536, 160, 320, 512, 672, 1536, 64, 208, 344,
        ],
        "messages": [
            14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14,
            14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3,
            14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14,
            14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3,
            14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14, 14, 14, 3, 14, 14,
            14, 14, 3, 13, 14, 14, 14, 3, 3, 6, 6,
        ],
        "max_rank_bytes": [
            256, 480, 720, 976, 1536, 256, 624, 912, 1216, 1536, 240, 688,
            1120, 1408, 1536, 256, 688, 1184, 1408, 1536, 272, 720, 1200, 1728,
            1536, 256, 704, 1216, 1696, 1536, 240, 688, 1264, 1808, 1536, 256,
            704, 1216, 1680, 1536, 272, 720, 1232, 1776, 1536, 256, 704, 1216,
            1680, 1536, 240, 688, 1264, 1808, 1536, 256, 704, 1216, 1696, 1536,
            272, 720, 1200, 1728, 1536, 256, 688, 1184, 1600, 1536, 240, 688,
            1264, 1648, 1536, 256, 704, 1152, 1488, 1536, 272, 704, 928, 1200,
            1536, 256, 480, 720, 976, 1536, 112, 192, 320, 384, 1536, 64, 144,
            248,
        ],
        "totals": {
            "bytes": 155432,
            "messages": 1135,
            "rounds": 98,
            "max_round_rank_bytes": 1808,
        },
    },
}


def _bytes(arrays):
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestPartitionInvariants:
    def test_ownership_covers_disjointly_and_remaps_exactly(
        self, label, graph, layout
    ):
        csr = graph.csr()
        part = partition_graph(csr, ranks=4, layout=layout)
        seen = np.zeros(graph.n, dtype=np.int64)
        for shard in part.shards:
            k = shard.kernel
            seen[k.owned] += 1
            assert np.array_equal(part.owner[k.owned], np.full(k.n_owned, shard.rank))
            # The remapped rows are the same CSR rows, neighbor order
            # preserved — the property the bit-identity rests on.
            assert np.array_equal(
                k.local_to_global[k.indices], csr._neighbors_of(k.owned)
            )
            assert np.array_equal(np.diff(k.indptr), csr.degrees[k.owned])
        assert np.array_equal(seen, np.ones(graph.n, dtype=np.int64))

    def test_partition_is_bit_reproducible(self, label, graph, layout):
        csr = graph.csr()
        a = partition_graph(csr, ranks=4, layout=layout)
        b = partition_graph(csr, ranks=4, layout=layout)
        assert a.owner.tobytes() == b.owner.tobytes()
        for sa, sb in zip(a.shards, b.shards, strict=True):
            assert sa.kernel.owned.tobytes() == sb.kernel.owned.tobytes()
            assert sa.kernel.indices.tobytes() == sb.kernel.indices.tobytes()
            assert sorted(sa.send_to) == sorted(sb.send_to)
            for dst in sa.send_to:
                assert np.array_equal(sa.send_to[dst], sb.send_to[dst])


class TestBudgetSearch:
    def test_memory_budget_drives_a_doubling_search(self):
        csr = grid_graph(14, 17).csr()
        one = partition_graph(csr, ranks=1)
        budget = one.max_rank_storage_bytes // 3
        part = partition_graph(csr, memory_budget=budget)
        assert part.ranks > 1 and part.ranks & (part.ranks - 1) == 0
        assert part.fits_budget
        assert part.memory_budget == budget

    def test_default_budget_is_the_measured_footprint(self):
        csr = grid_graph(6, 6).csr()
        part = partition_graph(csr, ranks=2)
        assert part.memory_budget == part.max_rank_storage_bytes
        assert part.fits_budget


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestBallSizeBitIdentity:
    def test_all_ball_sizes_matches_serial(self, label, graph, ranks):
        csr = graph.csr()
        rng = np.random.default_rng(1)
        mask = rng.random(graph.n) < 0.8
        sources = list(range(0, graph.n, 3))
        for layout in LAYOUTS:
            run = MpcConfig(ranks=ranks, layout=layout).start(csr)
            for kwargs in (
                dict(radius=None, chunk_size=13),
                dict(radius=3, chunk_size=13),
                dict(radius=5, within=mask, chunk_size=7),
                dict(radius=None, sources=sources, chunk_size=29),
                dict(radius=4, within=mask, sources=sources, chunk_size=1),
            ):
                serial = csr.all_ball_sizes(kernel_workers=1, **kwargs)
                sharded = run.all_ball_sizes(**kwargs)
                assert _bytes(serial) == _bytes(sharded), (layout, kwargs)

    def test_weighted_sizes_allclose_and_rank_invariant(
        self, label, graph, ranks
    ):
        csr = graph.csr()
        weights = np.random.default_rng(2).random(graph.n)
        serial = csr.all_ball_sizes(None, weights=weights, chunk_size=17)
        run = MpcConfig(ranks=ranks).start(csr)
        sharded = run.all_ball_sizes(weights=weights, chunk_size=17)
        # Depths are integers: exact.  Weighted sizes: allclose vs the
        # serial retirement-group harvest, bit-identical across ranks
        # (the reassembled-matrix harvest is rank-count-invariant).
        assert serial[1].tobytes() == sharded[1].tobytes()
        assert np.allclose(serial[0], sharded[0], rtol=0, atol=1e-9)
        baseline = (
            MpcConfig(ranks=1).start(csr).all_ball_sizes(weights=weights, chunk_size=17)
        )
        assert _bytes(baseline) == _bytes(sharded)


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestBfsBitIdentity:
    def test_bfs_distances_matches_serial(self, label, graph, ranks):
        csr = graph.csr()
        rng = np.random.default_rng(3)
        mask = rng.random(graph.n) < 0.7
        sources = [0, 1, graph.n // 2, graph.n - 1]
        for layout in LAYOUTS:
            run = MpcConfig(ranks=ranks, layout=layout).start(csr)
            for kwargs in (
                dict(),
                dict(radius=2),
                dict(within=mask),
                dict(radius=4, within=mask),
            ):
                serial = csr.bfs_distances(sources, **kwargs)
                sharded = run.bfs_distances(sources, **kwargs)
                assert serial.tobytes() == sharded.tobytes(), (layout, kwargs)


class TestMeterDeterminism:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_round_table_reproducible_across_repeat_runs(self, layout):
        csr = grid_graph(14, 17).csr()
        runs = []
        for _ in range(2):
            run = MpcConfig(ranks=4, layout=layout).start(csr)
            run.all_ball_sizes(radius=4, chunk_size=13)
            run.bfs_distances([0, 5, 9], radius=3)
            runs.append((run.meter.round_table(), run.meter.totals()))
        assert runs[0] == runs[1]
        table, totals = runs[0]
        pin = PINNED_METERING[layout]
        assert [e["round"] for e in table] == list(range(len(PINNED_LABELS)))
        assert [e["label"] for e in table] == PINNED_LABELS
        for key in ("bytes", "messages", "max_rank_bytes"):
            assert [e[key] for e in table] == pin[key], key
        assert totals == pin["totals"]

    @pytest.mark.parametrize(
        "layout,totals",
        [
            (
                "contiguous",
                {
                    "bytes": 23288,
                    "messages": 295,
                    "rounds": 55,
                    "max_round_rank_bytes": 1432,
                },
            ),
            (
                "hash",
                {
                    "bytes": 56672,
                    "messages": 536,
                    "rounds": 55,
                    "max_round_rank_bytes": 1424,
                },
            ),
        ],
    )
    def test_weighted_masked_metering_pinned(self, layout, totals):
        # The weighted harvest ships each rank's visited block to the
        # coordinator, a path the unweighted pin above never takes.
        csr = grid_graph(14, 17).csr()
        weights = [1.0 + (v % 5) * 0.25 for v in range(csr.n)]
        within = [v for v in range(csr.n) if v % 7 != 3]
        run = MpcConfig(ranks=4, layout=layout).start(csr)
        run.all_ball_sizes(radius=3, weights=weights, within=within, chunk_size=29)
        run.bfs_distances([0, 100, 237], within=within)
        table = run.meter.round_table()
        assert sum(e["label"] == "ball.harvest" for e in table) == 9
        assert run.meter.totals() == totals

    def test_single_rank_moves_no_bytes(self):
        csr = grid_graph(8, 8).csr()
        run = MpcConfig(ranks=1).start(csr)
        run.all_ball_sizes(radius=3)
        totals = run.meter.totals()
        assert totals["bytes"] == 0 and totals["messages"] == 0
        assert totals["rounds"] > 0
        assert run.within_comm_budget()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "graph,ranks",
    [(grid_graph(3, 2), 8), (random_regular(240, 3, np.random.default_rng(7)), 3)],
    ids=["empty-shards", "regular"],
)
class TestRankSteps:
    """Each rank step is a direct call on the shard's kernel, made in
    rank order and skipped for a rank with nothing to do."""

    @staticmethod
    def _record(monkeypatch, run, method):
        rank_of = {id(s.kernel): r for r, s in enumerate(run.partition.shards)}
        calls = []
        original = getattr(ShardKernel, method)

        def recorded(kernel, *args):
            calls.append(rank_of[id(kernel)])
            return original(kernel, *args)

        monkeypatch.setattr(ShardKernel, method, recorded)
        return calls

    def test_expand_runs_on_every_nonempty_rank_in_order(
        self, monkeypatch, graph, ranks, layout
    ):
        csr = graph.csr()
        run = MpcConfig(ranks=ranks, layout=layout).start(csr)
        calls = self._record(monkeypatch, run, "expand")
        sizes = run.all_ball_sizes(radius=4, chunk_size=csr.n)
        assert _bytes(sizes) == _bytes(csr.all_ball_sizes(4, chunk_size=csr.n))
        nonempty = [
            r for r, s in enumerate(run.partition.shards) if s.kernel.n_owned
        ]
        levels = sum(
            e["label"] == "ball.level" for e in run.meter.round_table()
        )
        assert levels > 0
        assert calls == nonempty * levels

    def test_neighbors_run_on_frontier_owners_in_order(
        self, monkeypatch, graph, ranks, layout
    ):
        csr = graph.csr()
        run = MpcConfig(ranks=ranks, layout=layout).start(csr)
        calls = self._record(monkeypatch, run, "neighbors_global")
        radius = 3
        dist = run.bfs_distances([0, csr.n - 1], radius=radius)
        assert dist.tobytes() == csr.bfs_distances(
            [0, csr.n - 1], radius=radius
        ).tobytes()
        owner = run.partition.owner
        expected = []
        for d in range(min(int(dist.max()), radius - 1) + 1):
            expected += sorted(set(owner[dist == d].tolist()))
        assert calls == expected


class TestMpcSurface:
    def test_config_has_three_settable_fields_and_nothing_to_close(self):
        assert [f.name for f in dataclasses.fields(MpcConfig)] == [
            "ranks",
            "memory_budget",
            "layout",
        ]
        with pytest.raises(TypeError):
            MpcConfig(ranks=2, transport="process")
        run = MpcConfig(ranks=2).start(grid_graph(4, 4).csr())
        assert not hasattr(run, "close")
        assert not hasattr(run, "transport")


class TestTinyPartitions:
    def test_more_ranks_than_vertices(self):
        tiny = Graph(5, [(0, 1), (1, 2), (3, 4)])
        csr = tiny.csr()
        part = partition_graph(csr, ranks=8)
        assert sum(1 for s in part.shards if s.kernel.n_owned == 0) >= 3
        serial = csr.all_ball_sizes(None)
        for layout in LAYOUTS:
            run = MpcConfig(ranks=8, layout=layout).start(csr)
            assert _bytes(serial) == _bytes(run.all_ball_sizes())
            assert (
                csr.bfs_distances([0, 3]).tobytes()
                == run.bfs_distances([0, 3]).tobytes()
            )

    def test_shattered_graph_with_empty_and_edgeless_shards(self):
        _, graph = GRAPHS[3]
        csr = graph.csr()
        serial = csr.all_ball_sizes(None, chunk_size=11)
        run = MpcConfig(ranks=8, layout="hash").start(csr)
        assert _bytes(serial) == _bytes(run.all_ball_sizes(chunk_size=11))


class TestLddExecutionBackend:
    def test_unknown_backend_rejected(self):
        # ``mpc=`` is the only switch: a backend name or a rank count
        # is refused up front, not failed on deep inside a carve.
        graph = grid_graph(4, 4)
        params = LddParams.practical(0.3, graph.n)
        for backend in ("mpc", "local", 4):
            with pytest.raises(ValueError, match="mpc"):
                chang_li_ldd(graph, params, seed=0, mpc=backend)

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_partitions_bit_identical_to_local(self, ranks):
        graph = random_regular(300, 3, np.random.default_rng(3))
        params = LddParams.practical(0.3, graph.n)
        local = chang_li_ldd(graph, params, seed=11)
        run = MpcConfig(ranks=ranks).start(graph.csr())
        partitioned = chang_li_ldd(graph, params, seed=11, mpc=run)
        assert partitioned.deleted == local.deleted
        assert partitioned.clusters == local.clusters
        assert partitioned.ledger.charges == local.ledger.charges
        # The open run accumulated the whole execution's round series.
        totals = run.meter.totals()
        assert totals["rounds"] > 0
        if ranks > 1:
            assert totals["bytes"] > 0

    def test_config_form_bit_identical_to_local(self):
        graph = grid_graph(10, 10)
        params = LddParams.practical(0.3, graph.n)
        local = chang_li_ldd(graph, params, seed=5)
        partitioned = chang_li_ldd(
            graph, params, seed=5, mpc=MpcConfig(ranks=4, layout="hash")
        )
        assert partitioned.deleted == local.deleted
        assert partitioned.clusters == local.clusters

    @pytest.mark.parametrize("ranks", [1, 4])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid_graph(30, 30),
            lambda: grid_graph(25, 30).union_disjoint(cycle_graph(120)),
        ],
        ids=["grid-30x30", "grid-25x30+cycle-120"],
    )
    def test_short_circuit_ledger_matches_metered_sweep(self, make, ranks):
        """Local runs take the max depth from the saturation
        short-circuit while mpc sweeps every source: the estimate-nv
        charge and the effective rounds must still agree."""
        graph = make()
        params = LddParams.practical(0.3, graph.n)
        with obs.collect() as col:
            local = chang_li_ldd(graph, params, seed=5)
        assert col.counter_table()["csr.ball_estimate.swept"] < graph.n
        partitioned = chang_li_ldd(
            graph, params, seed=5, mpc=MpcConfig(ranks=ranks)
        )
        assert partitioned.deleted == local.deleted
        assert partitioned.clusters == local.clusters
        by_label = local.ledger.by_label()
        assert partitioned.ledger.by_label()["estimate-nv"] == by_label["estimate-nv"]
        assert partitioned.ledger.effective_rounds == local.ledger.effective_rounds


class TestMpcCommScenario:
    def test_ci_budget_point_runs_and_verifies_identity(self):
        from repro.exp import get, run_scenario

        result = run_scenario(
            get("mpc-comm"),
            workers=0,
            trials=1,
            overrides={"family": ["random-3-regular-300"], "ranks": [2]},
        )
        assert result.statuses == {"ok": 1}
        metrics = result.rows[0]["metrics"]
        assert metrics["partition_identical"] is True
        assert metrics["ranks"] == 2
        assert metrics["comm_rounds"] > 0
        assert metrics["comm_bytes_total"] > 0
        assert metrics["max_round_rank_bytes"] == max(
            metrics["round_max_rank_bytes"]
        )
        assert metrics["comm_budget_bytes"] > 0
        assert isinstance(metrics["within_comm_budget"], bool)
