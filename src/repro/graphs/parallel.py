"""Process-parallel execution of the chunked CSR kernels.

The batched kernels in :mod:`repro.graphs.csr` already split their
source sets into independent chunks (64-source words packed per uint64
column); the serial loop just runs the chunks one after another.  On
multi-hour sweeps — the ``geometric-100000`` ball estimation is the
canonical case — the bitset work of a chunk is near single-core memory
bandwidth, so the remaining lever is running chunks on *different
cores*.  This module does exactly that and nothing more:

* the CSR arrays (``indptr``/``indices`` and, when eligible, the
  degree-padded adjacency table) are published once per graph through
  :mod:`multiprocessing.shared_memory` — workers attach by name and
  rebuild a :class:`~repro.graphs.csr.CsrGraph` view with **zero
  copies** of the adjacency structure, kept in a bounded LRU cache;
* worker processes live in cached :class:`ProcessPoolExecutor` pools
  (spawn context: no fork/threads hazards, portable start-up) and run
  the *identical* per-chunk kernel code the serial loop runs;
* per-chunk results are merged **in chunk order**, so sizes/depths
  (and every other kernel output) are bit-identical to the serial path
  at any worker count.

Lifecycle contract (the RPL101 rule enforces the shape):

* parent-side segment creation (:class:`_SharedExport`) cleans up
  every already-created segment when a later allocation fails;
* worker-side attachment (:func:`_attach`) closes every
  already-attached segment when a later attach or the graph rebuild
  fails, so a failed attach never leaks mappings for the life of the
  worker;
* a worker dying mid-task breaks its pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the
  ordered drain (:func:`run_ordered`) then evicts the broken pool from
  the cache so the *next* dispatch gets a fresh pool instead of
  failing forever, and the parent's segments stay owned by the parent
  (their ``weakref.finalize``/``close`` path still unlinks them — a
  crashed worker cannot leak them).

The worker count comes from :func:`resolve_kernel_workers`.
"""

from __future__ import annotations

import atexit
import os
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing as mp

import numpy as np

import repro.obs as _obs
from repro.util.validation import require

__all__ = [
    "KERNEL_WORKERS_ENV",
    "resolve_kernel_workers",
    "run_chunk_tasks",
    "shared_spec",
]

#: Environment variable providing the default kernel worker count.
KERNEL_WORKERS_ENV = "REPRO_KERNEL_WORKERS"

#: How many distinct shared graphs a worker process keeps attached;
#: least-recently-used attachments beyond this are detached.
ATTACH_CACHE_SIZE = 4


def resolve_kernel_workers(kernel_workers: Optional[int] = None) -> int:
    """Resolve the effective kernel worker count (>= 1).

    An explicit argument is validated and honoured as given — callers
    that force 2 or 4 workers (determinism tests, benchmarks) get
    exactly that many, cores notwithstanding.  ``None`` falls back to
    the ``REPRO_KERNEL_WORKERS`` environment variable, auto-capped at
    ``os.cpu_count()`` (a fleet-wide export can't oversubscribe a small
    box); unset or unparsable means 1, the serial path.  The
    :mod:`repro.exp` runner coordinates this knob with its trial
    sharding so ``trials x kernel_workers`` never oversubscribes the
    machine (see ``runner.coordinate_parallelism``).
    """
    if kernel_workers is not None:
        require(
            int(kernel_workers) >= 1,
            f"kernel_workers must be >= 1, got {kernel_workers}",
        )
        return int(kernel_workers)
    raw = os.environ.get(KERNEL_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, min(value, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Parent side: shared-memory export of a graph's CSR arrays
# ----------------------------------------------------------------------


class _SharedExport:
    """Parent-side owner of one set of shared-memory array segments.

    ``spec`` is the picklable description workers attach from:
    ``{"token", "arrays": {field: (shm_name, dtype_str, shape)}}``.
    The owner controls the lifetime: :meth:`close` unlinks the
    segments (:func:`shared_spec` registers it with
    ``weakref.finalize``).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        from multiprocessing import shared_memory

        self.segments: List[Any] = []
        spec_arrays: Dict[str, Tuple[str, str, Tuple[int, ...]]] = {}
        try:
            for field, raw in arrays.items():
                arr = np.ascontiguousarray(raw)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                self.segments.append(shm)
                spec_arrays[field] = (shm.name, arr.dtype.str, arr.shape)
        except BaseException:
            self.close()
            raise
        self.spec: Dict[str, Any] = {
            "token": self.segments[0].name,
            "arrays": spec_arrays,
        }

    def close(self) -> None:
        for shm in self.segments:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        self.segments = []


def shared_spec(csr) -> Dict[str, Any]:
    """The (cached) shared-memory spec of a :class:`CsrGraph`.

    ``spec["arrays"]`` holds ``indptr``, ``indices`` and, when the
    graph's skew check admitted it, ``padded``; ``n`` and ``nnz`` are
    read off ``indptr``/``indices`` on attach.  The export lives as
    long as its :class:`CsrGraph` (a ``weakref.finalize`` unlinks the
    segments when the graph is collected or the interpreter exits).
    """
    export = csr._shared
    if export is None:
        arrays: Dict[str, np.ndarray] = {
            "indptr": csr.indptr,
            "indices": csr.indices,
        }
        # Materialize the padded-adjacency decision in the parent so
        # every worker replays it instead of re-deciding (the outputs
        # are identical either way; sharing skips the per-worker build).
        padded = csr._padded_adjacency()
        if padded is not None:
            arrays["padded"] = padded
        export = _SharedExport(arrays)
        csr._shared = export
        weakref.finalize(csr, export.close)
    return export.spec


# ----------------------------------------------------------------------
# Worker side: attach (LRU-cached) and rebuild the graph
# ----------------------------------------------------------------------

_ATTACHED: "OrderedDict[str, Tuple[Any, list]]" = OrderedDict()


def _detach(shms: list) -> None:
    for shm in shms:
        try:
            shm.close()
        except OSError:
            pass


def _attach(spec: Dict[str, Any]):
    """Worker-side CsrGraph over the parent's shared arrays.

    The graph is cached per spec token (bounded LRU of
    :data:`ATTACH_CACHE_SIZE`) so repeat tasks over the same export
    skip the attach entirely.
    """
    token = spec["token"]
    cached = _ATTACHED.get(token)
    if cached is not None:
        _ATTACHED.move_to_end(token)
        return cached[0]
    from multiprocessing import shared_memory

    from repro.graphs.csr import CsrGraph

    arrays: Dict[str, np.ndarray] = {}
    shms: list = []
    try:
        for field, (name, dtype, shape) in spec["arrays"].items():
            # Attaching registers with the resource tracker too (no
            # ``track=False`` before 3.13) — harmless here: spawned workers
            # inherit the parent's tracker process, whose cache is a set,
            # so the parent's registration stays the single entry and the
            # parent's unlink is the single removal.
            shm = shared_memory.SharedMemory(name=name)
            shms.append(shm)
            arrays[field] = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf
            )
        csr = CsrGraph._from_arrays(
            arrays["indptr"], arrays["indices"], arrays.get("padded")
        )
    except BaseException:
        # A failed attach mid-loop (segment gone after a parent exit,
        # ENOMEM mapping a view) must not leave the earlier segments
        # mapped in this worker for the life of the process.
        for shm in shms:
            try:
                shm.close()
            except OSError:
                pass
        raise
    while len(_ATTACHED) >= ATTACH_CACHE_SIZE:
        _detach(_ATTACHED.popitem(last=False)[1][1])
    _ATTACHED[token] = (csr, shms)
    return csr


# ----------------------------------------------------------------------
# Pools and ordered dispatch
# ----------------------------------------------------------------------

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _init_worker() -> None:
    """Pin workers to serial kernel execution.

    Spawned workers inherit the parent's environment; without this, an
    exported ``REPRO_KERNEL_WORKERS`` would make every worker try to
    open its *own* nested pool inside the chunked kernels.
    """
    os.environ[KERNEL_WORKERS_ENV] = "1"


@atexit.register
def _shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


def run_ordered(
    workers: int,
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
) -> List[Any]:
    """Fan argument tuples out over ``workers`` processes, in order.

    The pool of exactly ``workers`` processes is cached, so the
    interpreter start-up cost is paid once per worker count; the spawn
    context keeps worker start-up independent of the parent's thread
    state (numpy pools, pytest plugins) and matches the default on
    every platform from 3.14 on.

    Results come back in task order.  On an escaping exception — a
    worker fault, or a trial-timeout signal interrupting ``result()``
    — pending tasks are cancelled so they cannot queue ahead of the
    next caller's work; when the pool itself died
    (:class:`BrokenProcessPool`), it is also shut down and evicted from
    the cache so the next dispatch gets a fresh pool instead of
    resubmitting into the carcass.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context("spawn"),
            initializer=_init_worker,
        )
        _POOLS[workers] = pool
    futures: List[Any] = []
    try:
        for task in tasks:
            futures.append(pool.submit(fn, *task))
        return [future.result() for future in futures]
    except BaseException as exc:
        for future in futures:
            future.cancel()
        if isinstance(exc, BrokenProcessPool):
            _POOLS.pop(workers, None)
            pool.shutdown(wait=False, cancel_futures=True)
        raise


# ----------------------------------------------------------------------
# Kernel chunks
# ----------------------------------------------------------------------


def _run_kernel_chunk(spec: Dict[str, Any], kind: str, common: tuple, payload):
    """One chunk of kernel work, executed in a worker process.

    Every branch calls the *same* per-chunk helper the serial loop in
    :mod:`repro.graphs.csr` calls, so per-chunk outputs are bit-equal
    to the serial computation by construction.
    """
    with _obs.span("parallel.attach"):
        csr = _attach(spec)
    if kind == "ball":
        radius, weights, mask, harvest = common
        s_chunk = payload
        sizes = np.zeros(len(s_chunk), dtype=np.float64)
        depths = np.zeros(len(s_chunk), dtype=np.int64)
        csr._ball_chunk(
            s_chunk, radius, weights, mask, sizes if harvest else None, depths
        )
        return sizes, depths
    if kind == "dist":
        radius, mask, targets = common
        return csr._distances_chunk(payload, radius, mask, targets)
    if kind == "power":
        (k,) = common
        return csr._power_chunk(payload, k)
    raise ValueError(f"unknown kernel task kind {kind!r}")


def _kernel_task(
    spec: Dict[str, Any],
    kind: str,
    common: tuple,
    payload,
    traced: bool = False,
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Worker entry point: ``(chunk result, obs export | None)``.

    When the parent ran the dispatch under a :mod:`repro.obs`
    collector, ``traced`` is set and the chunk runs under a local
    worker collector whose aggregate tables (spans keyed under
    ``parallel.chunk.<kind>`` — the per-worker chunk wall) travel back
    through the existing result channel.  Tracing wraps *around*
    :func:`_run_kernel_chunk`; the chunk computation itself is
    identical either way.
    """
    if not traced:
        return _run_kernel_chunk(spec, kind, common, payload), None
    with _obs.collect() as collector:
        with _obs.span(f"parallel.chunk.{kind}"):
            result = _run_kernel_chunk(spec, kind, common, payload)
    return result, collector.export()


def run_chunk_tasks(
    csr,
    kind: str,
    payloads: Sequence[Any],
    common: tuple,
    workers: int,
) -> List[Any]:
    """Fan chunk payloads out over ``workers`` processes, in order.

    Results come back in payload order — the caller merges them exactly
    where the serial loop would have written them, which is what makes
    the parallel path bit-identical at any worker count.  Dispatch,
    cancellation on an escaping exception (worker fault, trial-timeout
    signal) and broken-pool recovery are :func:`run_ordered`'s.

    When this process is tracing (:func:`repro.obs.enabled`), workers
    trace their chunks too and the parent absorbs their span/counter
    exports **in chunk order** under the current span path — the float
    accumulation order is pinned, so merged tables are deterministic at
    any worker count.
    """
    traced = _obs.enabled()
    with _obs.span("parallel.export"):
        spec = shared_spec(csr)
    with _obs.span("parallel.merge_wait"):
        outcomes = run_ordered(
            workers,
            _kernel_task,
            [(spec, kind, common, payload, traced) for payload in payloads],
        )
    collector = _obs.active()
    if collector is not None:
        for _result, export in outcomes:
            collector.absorb(export)
    return [result for result, _export in outcomes]
