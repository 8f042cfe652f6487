"""Tests for the Theorem 1.1 low-diameter decomposition."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.core import LddParams, chang_li_ldd, low_diameter_decomposition
from repro.core.ldd import LddTrace
from repro.decomp.quality import run_ldd_trials
from repro.graphs import (
    caterpillar,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.metrics import validate_partition


class TestPartitionValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_partition(self, seed):
        g = grid_graph(8, 8)
        d = low_diameter_decomposition(g, eps=0.3, seed=seed)
        validate_partition(g, d.clusters, d.deleted)

    def test_all_graph_families(self):
        rng = np.random.default_rng(0)
        graphs = [
            cycle_graph(60),
            grid_graph(7, 9),
            random_tree(50, rng),
            erdos_renyi_connected(40, 0.08, rng),
            caterpillar(12, 3),
        ]
        for i, g in enumerate(graphs):
            d = low_diameter_decomposition(g, eps=0.25, seed=i)
            validate_partition(g, d.clusters, d.deleted)


class TestGuarantees:
    def test_unclustered_fraction_small_across_trials(self):
        """The Theorem 1.1 guarantee at practical scale: the max
        unclustered fraction over many seeds stays at most eps."""
        eps = 0.3
        g = cycle_graph(80)
        series = run_ldd_trials(
            g,
            lambda s: low_diameter_decomposition(g, eps=eps, seed=s),
            trials=20,
        )
        assert series.max_fraction <= eps
        assert series.failure_rate(eps) == 0.0

    def test_diameter_budget(self):
        """Weak diameter O(t²R) (Lemma 3.2 bound: 2(t+2)R before the
        refinement; we check the explicit formula)."""
        eps = 0.3
        ntilde = 100
        params = LddParams.practical(eps, ntilde)
        budget = 2 * (params.t + 2) * params.interval_length + math.ceil(
            8 * math.log(ntilde) / params.phase3_lambda
        )
        g = cycle_graph(100)
        for seed in range(5):
            d = chang_li_ldd(g, params, seed=seed)
            for cluster in d.clusters:
                assert g.weak_diameter(cluster) <= budget

    def test_rounds_ledger_structure(self):
        g = grid_graph(6, 6)
        params = LddParams.practical(0.3, 36)
        d = chang_li_ldd(g, params, seed=1)
        labels = d.ledger.by_label()
        assert "estimate-nv" in labels
        assert any(k.startswith("phase1-iter") for k in labels)
        assert d.ledger.effective_rounds <= d.ledger.nominal_rounds

    def test_trace_diagnostics(self):
        g = cycle_graph(60)
        params = LddParams.practical(0.3, 60)
        trace = LddTrace()
        chang_li_ldd(g, params, seed=2, trace=trace)
        assert len(trace.centers_per_iteration) in (params.t, params.t + 1)
        assert trace.residual_after_phase2 >= 0


class TestWeightedVariant:
    def test_weighted_deletions_respect_weight(self):
        """With all the weight on a few vertices, the weighted LDD
        avoids deleting them (Section 4 alternative-approach substrate)."""
        g = cycle_graph(80)
        heavy = {0, 20, 40, 60}
        weights = [100.0 if v in heavy else 1.0 for v in range(g.n)]
        eps = 0.3
        params = LddParams.practical(eps, g.n)
        total = sum(weights)
        for seed in range(8):
            d = chang_li_ldd(g, params, seed=seed, weights=weights)
            deleted_weight = sum(weights[v] for v in d.deleted)
            assert deleted_weight <= eps * total

    def test_weights_validated(self):
        g = cycle_graph(10)
        params = LddParams.practical(0.3, 10)
        with pytest.raises(ValueError):
            chang_li_ldd(g, params, weights=[1.0] * 5)


class TestAblation:
    def test_skip_phase2_still_partitions(self):
        """E12 ablation hook: skipping Phase 2 must stay *correct*
        (partition validity) — only the w.h.p. tail degrades."""
        g = grid_graph(7, 7)
        params = LddParams.practical(0.3, 49)
        d = chang_li_ldd(g, params, seed=3, skip_phase2=True)
        validate_partition(g, d.clusters, d.deleted)


class TestProfiles:
    def test_paper_profile_constructible(self):
        """Paper constants on a tiny graph: everything lands in one
        cluster (radii exceed the diameter) but the run must be valid."""
        g = path_graph(12)
        d = low_diameter_decomposition(g, eps=0.4, seed=0, profile="paper")
        validate_partition(g, d.clusters, d.deleted)
        assert d.unclustered_fraction(g.n) <= 0.4

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            low_diameter_decomposition(cycle_graph(10), 0.3, profile="magic")


class TestTraceCountsExecutedCarves:
    def test_stale_centers_not_counted(self):
        """Regression: ``centers_per_iteration`` used to record the
        sampled-center count even when a center had already been carved
        away and its carve skipped (E12 reports overstated work).  The
        count is the carving round's ``executed``."""
        from repro.core.carve import carve_round, grow_and_carve
        from repro.local.gather import RoundLedger

        g = path_graph(8)
        remaining = {0, 1, 2, 3, 4}  # 5..7 already carved away
        outcome = carve_round(
            g,
            [{0}, {6}, {7}],  # one live center, two stale ones
            (1, 2),
            remaining,
            set(),
            RoundLedger(),
            "test",
            lambda seeds, interval, snapshot: grow_and_carve(
                g, seeds, interval, snapshot
            ),
        )
        assert outcome.executed == 1

    def test_executed_counts_cover_every_iteration(self):
        g = cycle_graph(120)
        params = LddParams.practical(0.2, 120)
        trace = LddTrace()
        chang_li_ldd(g, params, seed=5, trace=trace)
        assert all(c >= 0 for c in trace.centers_per_iteration)
        assert len(trace.centers_per_iteration) == params.t + 1


class _EagerStreams:
    """The eager ``spawn_rngs(seed, count)`` reference behind the
    :class:`~repro.util.rng.LazyRngStreams` interface: one ``Generator``
    per stream, drawn one at a time."""

    def __init__(self, seed, count):
        from repro.util.rng import spawn_rngs

        self._rngs = spawn_rngs(seed, count)

    def __getitem__(self, index):
        return self._rngs[index]

    def random(self, indices):
        return np.array([self._rngs[i].random() for i in indices], dtype=np.float64)


class TestLazyRngRegression:
    """The lazy per-vertex streams must reproduce the historical eager
    ``spawn_rngs(seed, 2n + 4)`` decomposition bit for bit."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(11)
        shattered_edges = [(3 * c + j, 3 * c + j + 1) for c in range(40) for j in range(2)]
        from repro.graphs.graph import Graph
        from repro.graphs import random_regular

        return [
            ("grid", grid_graph(9, 9)),
            ("regular", random_regular(90, 3, rng)),
            ("shattered", Graph(120, shattered_edges)),
        ]

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_partition_identical_to_eager_streams(self, seed, monkeypatch):
        """A/B: run once with LazyRngStreams, once with the eager
        per-stream generators injected in its place."""
        import repro.core.ldd as ldd_module

        for name, graph in self._graphs():
            params = LddParams.practical(0.3, graph.n)
            lazy = chang_li_ldd(graph, params, seed=seed)
            monkeypatch.setattr(ldd_module, "LazyRngStreams", _EagerStreams)
            eager = chang_li_ldd(graph, params, seed=seed)
            monkeypatch.undo()
            assert lazy.deleted == eager.deleted, (name, seed)
            assert lazy.clusters == eager.clusters, (name, seed)

    def test_generator_seed_consumes_identically(self):
        """A Generator seed draws one integer in both implementations,
        so downstream consumers of the same generator stay aligned."""
        from repro.util.rng import LazyRngStreams, spawn_rngs

        g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
        eager = spawn_rngs(g1, 12)
        lazy = LazyRngStreams(g2, 12)
        assert g1.bit_generator.state == g2.bit_generator.state
        for i in (11, 0, 5, 5):
            assert eager[i].random() == lazy.random([i])[0]

    def test_lazy_stream_bounds_and_independence_of_access_order(self):
        from repro.util.rng import LazyRngStreams, spawn_rngs

        eager = [r.random() for r in spawn_rngs(31337, 20)]
        forward = LazyRngStreams(31337, 20)
        backward = LazyRngStreams(31337, 20)
        assert [forward[i].random() for i in range(20)] == eager
        assert [backward[i].random() for i in reversed(range(20))] == eager[::-1]
        with pytest.raises(IndexError):
            forward[20]
        with pytest.raises(IndexError):
            forward[-1]
        with pytest.raises(ValueError):
            LazyRngStreams(0, -1)
        assert len(forward) == 20


#: Every ``SeedLike`` form (fresh per call: a Generator seed is consumed).
_DIGEST_SEEDS = {
    "0": lambda: 0,
    "7": lambda: 7,
    "2**63+5": lambda: 2**63 + 5,
    "spawn-key": lambda: np.random.SeedSequence(5, spawn_key=(3,)),
    "generator": lambda: np.random.default_rng(9),
}

#: Recorded with the per-stream ``Generator`` sampling, before it was
#: vectorized.
_PINNED_DIGESTS = {
    ("grid", "0", "plain"): "56ac99ae19de8a09d6c6b116a763e76212cb9a71973d4dce7812ee9d04a47b22",
    ("grid", "7", "plain"): "2593a27e45211e84fa6bfef108e445a4ea7b72e4335eee1e589b8c76710d05df",
    ("grid", "2**63+5", "plain"): "5a344b607963adfd5628af954c8e6b24d1abb280fd75618ba5d3b686ead15225",
    ("grid", "spawn-key", "plain"): "8421c9a8f2980bb6269fcd7b3c109de179ca307e0feb0c7505c120509276d5b5",
    ("grid", "generator", "plain"): "0662b5910ca6cff56838c95810154285043c691f6c4c0aad633b4959ba61f4b4",
    ("grid", "7", "weighted"): "c1f139a31143a5f1e73feb0d50aca67d05ea471a350f8e103393a9cd2311d513",
    ("grid", "7", "skip-phase2"): "2593a27e45211e84fa6bfef108e445a4ea7b72e4335eee1e589b8c76710d05df",
    ("regular", "0", "plain"): "3dc8ef44f79d1914fc02fd803ccfafe4a3b69f3ddecb206cde47ce7a5970130a",
    ("regular", "7", "plain"): "f05b0c184a5b6db82504b76f692ab400074ff4bacbda3a76a11f0453535f1548",
    ("regular", "2**63+5", "plain"): "21daa78dcf14f37842958050d21f4a551cdb68573e1ef1a81e734d028bb3ceab",
    ("regular", "spawn-key", "plain"): "3de502e44fded90aa79022afe19b2705010fed27a75d5ada550e9cbdbe915b8b",
    ("regular", "generator", "plain"): "0b3cc3ff7461703468151780660fef64980bf3a1d5b00eefcb94a6443471d3b3",
    ("regular", "7", "weighted"): "3fe13025763572eebedc7a7c6efa2213f0daa64bc1a757df42eacad199770669",
    ("regular", "7", "skip-phase2"): "f05b0c184a5b6db82504b76f692ab400074ff4bacbda3a76a11f0453535f1548",
    ("shattered", "0", "plain"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "7", "plain"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "2**63+5", "plain"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "spawn-key", "plain"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "generator", "plain"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "7", "weighted"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("shattered", "7", "skip-phase2"): "f605a85a9bf60d675d184023992f645fb058e7f6aa964cb0d392f1436e4f87fe",
    ("regular-2000", "0", "plain"): "9cab3d8ed825a4bdcded4938cd591121d30a1231c7cde49301c76696647e24a8",
    ("regular-2000", "7", "plain"): "9595e64ba987beb21e125602cf8a985796dfa9981a4ab725ce0ae142028ba920",
    ("regular-2000", "2**63+5", "plain"): "c4ebebd65dd98b2f05913612579116be710c7a376b1ca3799cbfa6cceb8ebc0e",
    ("regular-2000", "spawn-key", "plain"): "78be84519c1b2d4269ec53db4176ca651e1e3bfc5011b298cecdb44f8d7a7683",
    ("regular-2000", "generator", "plain"): "9eb53617f3abd4484367c6e3944076cabd30e5279e42d824e1c835d84779a89b",
    ("regular-2000", "7", "weighted"): "140e991b5fbc0cce13d72fb692c67d34de819b020ae7c8cb7de1f2ff66606cb3",
    ("regular-2000", "7", "skip-phase2"): "818ce9e76726fd71888c9bd5c3584b2842babfeda2cd2b290deaf512c79fc43e",
}


class TestPinnedDigests:
    """``chang_li_ldd`` outputs pinned as sha256 digests of the sorted
    clusters, the deleted set and ``ledger.effective_rounds``.

    The literals were recorded before center sampling was vectorized, so
    they hold every per-vertex draw to the historical per-stream
    ``Generator`` values.  ``regular-2000`` is wider than
    ``_ESTIMATE_MIN_WORDS``: its saturated ``n_v`` estimate takes the
    depth-only sweep.
    """

    @staticmethod
    def _graphs():
        from repro.graphs import random_regular
        from repro.graphs.graph import Graph

        shattered = [(3 * c + j, 3 * c + j + 1) for c in range(40) for j in range(2)]
        return {
            "grid": grid_graph(9, 9),
            "regular": random_regular(90, 3, np.random.default_rng(11)),
            "shattered": Graph(120, shattered),
            "regular-2000": random_regular(2000, 3, np.random.default_rng(11)),
        }

    @staticmethod
    def _digest(d):
        import hashlib
        import json

        payload = json.dumps(
            [
                sorted(sorted(int(v) for v in c) for c in d.clusters),
                sorted(int(v) for v in d.deleted),
                int(d.ledger.effective_rounds),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def _runs(cls):
        """``(key, thunk)`` per pinned case: every seed form plain, plus
        a weighted and a ``skip_phase2`` run at seed 7, on every graph.

        ``R = 1`` keeps a residual alive on ``regular-2000`` through
        every phase-1 iteration, phase 2 and phase 3, while the profile's
        ``4tR`` estimate radius (``R = 26``) saturates every ball."""
        for name, g in cls._graphs().items():
            params = dataclasses.replace(
                LddParams.practical(0.3, g.n), interval_length=1
            )
            weights = [1.0 + 0.5 * (v % 5) for v in range(g.n)]
            for label, make in _DIGEST_SEEDS.items():
                yield (name, label, "plain"), functools.partial(
                    chang_li_ldd, g, params, seed=make()
                )
            yield (name, "7", "weighted"), functools.partial(
                chang_li_ldd, g, params, seed=7, weights=weights
            )
            yield (name, "7", "skip-phase2"), functools.partial(
                chang_li_ldd, g, params, seed=7, skip_phase2=True
            )

    def test_outputs_match_pinned_digests(self, monkeypatch):
        """Narrow kernel chunks (outputs do not depend on the width), so
        that ``REPRO_KERNEL_WORKERS=2`` shards the sweeps here too."""
        import repro.graphs.csr as csr_module

        monkeypatch.setattr(csr_module, "_GATHER_BUDGET_BYTES", 1 << 16)
        got = {key: self._digest(run()) for key, run in self._runs()}
        assert got == _PINNED_DIGESTS
