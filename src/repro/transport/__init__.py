"""``repro.transport`` — shared-memory worker plumbing, extracted.

The process-parallel kernel layer (:mod:`repro.graphs.parallel`) needs
this plumbing: publish numpy arrays once through
:mod:`multiprocessing.shared_memory`, let spawned workers attach by
name with zero copies, keep the attachments in a bounded LRU cache,
and fan tasks out over cached :class:`ProcessPoolExecutor` pools with
chunk-ordered result draining.  This module is that plumbing and
nothing else — no kernel knowledge, no graph types, just segments,
pools and ordered dispatch.

Lifecycle contract (the RPL101 rule enforces the shape):

* parent-side segment creation (:class:`SharedArrayExport`) cleans up
  every already-created segment when a later allocation fails;
* worker-side attachment (:func:`attach_shared`) closes every
  already-attached segment when a later attach or the build step
  fails, so a failed attach never leaks mappings for the life of the
  worker;
* a worker dying mid-task breaks its pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the
  ordered drain (:func:`run_ordered`) then discards the broken pool
  from the cache so the *next* dispatch gets a fresh pool instead of
  failing forever, and the parent's segments stay owned by the parent
  (their ``weakref.finalize``/``close`` path still unlinks them — a
  crashed worker cannot leak them).
"""

from __future__ import annotations

import atexit
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import multiprocessing as mp

import numpy as np

from repro.util.validation import require

#: Environment variable providing the default kernel worker count.
KERNEL_WORKERS_ENV = "REPRO_KERNEL_WORKERS"

#: How many distinct shared-array attachments a worker process keeps
#: open; least-recently-used exports beyond this are detached.
ATTACH_CACHE_SIZE = 4


def resolve_kernel_workers(kernel_workers: Optional[int] = None) -> int:
    """Resolve the effective kernel worker count (>= 1).

    An explicit argument is validated and honoured as given — callers
    that force 2 or 4 workers (determinism tests, benchmarks) get
    exactly that many, cores notwithstanding.  ``None`` falls back to
    the ``REPRO_KERNEL_WORKERS`` environment variable, auto-capped at
    ``os.cpu_count()`` (a fleet-wide export can't oversubscribe a small
    box); unset or unparsable means 1, the serial path.
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
# Parent side: shared-memory export of named arrays
# ----------------------------------------------------------------------


class SharedArrayExport:
    """Parent-side handle of one set of shared-memory array segments.

    ``spec`` is the picklable description workers attach from:
    ``{"token", "arrays": {field: (shm_name, dtype_str, shape)},
    **meta}`` — ``meta`` entries are flattened into the spec so callers
    can ship small scalars (sizes, flags) alongside the array table
    without a second channel.  The caller owns the lifetime: call
    :meth:`close` (or register it with ``weakref.finalize``) to unlink
    the segments.
    """

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        from multiprocessing import shared_memory

        require(len(arrays) > 0, "SharedArrayExport needs at least one array")
        extra = dict(meta or {})
        require(
            not (set(extra) & {"token", "arrays"}),
            "meta keys 'token'/'arrays' are reserved by the spec",
        )
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
        token = next(iter(spec_arrays.values()))[0]
        self.spec: Dict[str, Any] = {
            "token": token,
            "arrays": spec_arrays,
            **extra,
        }

    def close(self) -> None:
        for shm in self.segments:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        self.segments = []


# ----------------------------------------------------------------------
# Worker side: attach (LRU-cached) and rebuild
# ----------------------------------------------------------------------

_ATTACHED: "OrderedDict[str, Tuple[Any, list]]" = OrderedDict()


def _detach(entry: Tuple[Any, list]) -> None:
    _built, shms = entry
    for shm in shms:
        try:
            shm.close()
        except OSError:
            pass


def attach_shared(
    spec: Dict[str, Any],
    build: Callable[[Dict[str, np.ndarray]], Any],
) -> Any:
    """Attach a :class:`SharedArrayExport` spec and build a view object.

    ``build`` receives ``{field: zero-copy ndarray}`` and returns the
    reconstructed object; the result is cached per spec token (bounded
    LRU of :data:`ATTACH_CACHE_SIZE`) so repeat tasks over the same
    export skip the attach entirely.
    """
    token = spec["token"]
    cached = _ATTACHED.get(token)
    if cached is not None:
        _ATTACHED.move_to_end(token)
        return cached[0]
    from multiprocessing import shared_memory

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
        built = build(arrays)
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
        _detach(_ATTACHED.popitem(last=False)[1])
    _ATTACHED[token] = (built, shms)
    return built


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


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A cached worker pool of exactly ``workers`` processes.

    The spawn context keeps worker start-up independent of the parent's
    thread state (numpy pools, pytest plugins) and matches the default
    on every platform from 3.14 on; pools are reused across calls so
    the interpreter start-up cost is paid once per worker count.
    """
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context("spawn"),
            initializer=_init_worker,
        )
        _POOLS[workers] = pool
    return pool


def discard_pool(workers: int) -> None:
    """Shut down and evict the cached pool for ``workers`` (if any).

    Called after a :class:`BrokenProcessPool` so the next dispatch
    rebuilds a healthy pool instead of resubmitting into the carcass.
    """
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


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

    Results come back in task order — callers merge them exactly where
    a serial loop would have written them, which is what makes the
    parallel paths bit-identical at any worker count.  On an escaping
    exception — a worker fault, or a trial-timeout signal interrupting
    ``result()`` — pending tasks are cancelled so they cannot queue
    ahead of the next caller's work; when the pool itself died
    (:class:`BrokenProcessPool`), it is additionally discarded from the
    cache so subsequent dispatches recover with a fresh pool.
    """
    pool = worker_pool(workers)
    futures: List[Any] = []
    try:
        for task in tasks:
            futures.append(pool.submit(fn, *task))
        return [future.result() for future in futures]
    except BaseException as exc:
        for future in futures:
            future.cancel()
        if isinstance(exc, BrokenProcessPool):
            discard_pool(workers)
        raise


__all__ = [
    "ATTACH_CACHE_SIZE",
    "KERNEL_WORKERS_ENV",
    "SharedArrayExport",
    "attach_shared",
    "discard_pool",
    "resolve_kernel_workers",
    "run_ordered",
    "worker_pool",
]
