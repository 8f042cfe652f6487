"""Lifecycle and crash-robustness tests for the shared-memory transport
of :mod:`repro.graphs.parallel`.

The contract under test (the runtime side of the RPL101 lifecycle
rule): shared-memory segments never outlive their parent-side owner —
not when a later allocation fails mid-export, not when a later attach
fails mid-loop, and not when a worker process dies mid-chunk.  A broken pool must also heal: the next dispatch after a
:class:`BrokenProcessPool` gets a fresh pool, not the carcass.
"""

import gc
import os
from multiprocessing import shared_memory

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.graphs import parallel
from repro.graphs.generators import grid_graph, random_regular


def _double(x):
    return 2 * x


def _attach_and_die(spec):
    # Simulates a worker crashing mid-chunk: the shard arrays are
    # already mapped when the process dies without any cleanup path.
    parallel._attach(spec)
    os._exit(1)


def _segments_gone(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            # Attach-only probe: the expected failure proves the
            # segment was unlinked, so there is nothing to clean up.
            shared_memory.SharedMemory(name=name)  # repro-lint: disable=RPL101


class TestExportLifecycle:
    def test_failed_export_unlinks_earlier_segments(self, monkeypatch):
        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            # Cleanup-on-failure is owned by the _SharedExport under
            # test; the spy only records the created names.
            shm = real(*args, **kwargs)  # repro-lint: disable=RPL101
            created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", spy)

        class Boom:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("allocation boom")

        with pytest.raises(RuntimeError, match="allocation boom"):
            parallel._SharedExport(
                {"good": np.arange(16, dtype=np.int64), "bad": Boom()}
            )
        assert created, "first segment should have been allocated"
        _segments_gone(created)

    def test_spec_is_only_token_and_arrays(self):
        # Sizes and flags are read off the arrays on attach; nothing
        # else rides in the spec.
        csr = grid_graph(4, 5).csr()
        spec = parallel.shared_spec(csr)
        assert set(spec) == {"token", "arrays"}
        assert spec["token"] == spec["arrays"]["indptr"][0]

    def test_close_is_idempotent(self):
        export = parallel._SharedExport({"a": np.arange(5)})
        names = [shm.name for shm in export.segments]
        export.close()
        export.close()
        _segments_gone(names)


class TestAttachLifecycle:
    def test_failed_attach_leaves_no_mapping_and_no_cache_entry(self):
        csr = grid_graph(3, 4).csr()
        spec = parallel.shared_spec(csr)
        try:
            broken = dict(spec)
            arrays = dict(broken["arrays"])
            _name, dtype, shape = arrays["indices"]
            arrays["indices"] = ("psm_repro_no_such_segment", dtype, shape)
            broken["arrays"] = arrays
            with pytest.raises(FileNotFoundError):
                parallel._attach(broken)
            assert broken["token"] not in parallel._ATTACHED
            # The export is intact: a subsequent good attach succeeds.
            built = parallel._attach(spec)
            assert np.array_equal(built.indptr, csr.indptr)
        finally:
            entry = parallel._ATTACHED.pop(spec["token"], None)
            if entry is not None:
                parallel._detach(entry[1])
            csr._shared.close()

    def test_cache_evicts_least_recently_used(self):
        graphs = [
            grid_graph(3, 3 + i).csr()
            for i in range(parallel.ATTACH_CACHE_SIZE + 1)
        ]
        tokens = [parallel.shared_spec(csr)["token"] for csr in graphs]
        try:
            for csr in graphs:
                parallel._attach(parallel.shared_spec(csr))
            assert tokens[0] not in parallel._ATTACHED
            assert all(t in parallel._ATTACHED for t in tokens[1:])
        finally:
            for token, csr in zip(tokens, graphs):
                entry = parallel._ATTACHED.pop(token, None)
                if entry is not None:
                    parallel._detach(entry[1])
                csr._shared.close()


class TestCrashRecovery:
    def test_worker_death_breaks_then_heals_the_pool(self):
        csr = random_regular(60, 3, np.random.default_rng(0)).csr()
        spec = parallel.shared_spec(csr)
        with pytest.raises(BrokenProcessPool):
            parallel.run_ordered(2, _attach_and_die, [(spec,), (spec,)])
        # The broken pool was evicted, so the next dispatch rebuilds a
        # fresh one instead of resubmitting into the carcass.
        assert 2 not in parallel._POOLS
        assert parallel.run_ordered(2, _double, [(1,), (21,)]) == [2, 42]

    def test_kernels_recover_after_a_worker_crash(self):
        csr = random_regular(60, 3, np.random.default_rng(1)).csr()
        serial = csr.all_ball_sizes(3, chunk_size=13)
        with pytest.raises(BrokenProcessPool):
            parallel.run_ordered(
                2, _attach_and_die, [(parallel.shared_spec(csr),)]
            )
        sharded = csr.all_ball_sizes(3, chunk_size=13, kernel_workers=2)
        assert serial[0].tobytes() == sharded[0].tobytes()
        assert serial[1].tobytes() == sharded[1].tobytes()

    def test_crashed_worker_cannot_leak_parent_segments(self):
        # The worker attaches the graph's shared segments and dies
        # abruptly; ownership stays with the parent, whose finalizer
        # still unlinks every segment when the graph is released.
        csr = random_regular(60, 3, np.random.default_rng(2)).csr()
        spec = parallel.shared_spec(csr)
        names = [shm.name for shm in csr._shared.segments]
        with pytest.raises(BrokenProcessPool):
            parallel.run_ordered(2, _attach_and_die, [(spec,)])
        del spec, csr
        gc.collect()
        _segments_gone(names)


class TestRunOrdered:
    def test_results_come_back_in_task_order(self):
        out = parallel.run_ordered(2, _double, [(i,) for i in range(7)])
        assert out == [2 * i for i in range(7)]
