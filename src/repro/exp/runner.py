"""Sharded trial runner: seeded trials fanned out over worker processes.

Design invariants:

* **Bit-identical results regardless of worker count.**  Every trial's
  randomness comes from a private :class:`~numpy.random.SeedSequence`
  derived from ``(root_seed, params, trial)`` alone
  (:func:`repro.exp.scenarios.trial_seed_sequence`), so a trial computes
  the same row whether it runs inline, in 1 worker or in 16.  Rows are
  also *written* in enumeration order — chunk futures are drained in
  submission order — so the JSONL file itself is reproducible modulo
  the wall-clock fields (:data:`repro.exp.store.TIMING_FIELDS`).
* **Resume-on-rerun.**  Trials whose key is already in the store are
  not re-executed; their cached rows are returned alongside the new
  ones.
* **Per-trial failure isolation.**  A trial that raises is captured as
  a ``status="error"`` row (with traceback); a trial exceeding the
  timeout becomes ``status="timeout"`` (SIGALRM-based, POSIX only).
  Neither aborts the sweep.
"""

from __future__ import annotations

import math
import os
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs as _obs
from repro.exp import scenarios as _scenarios
from repro.exp.store import (
    SCHEMA_VERSION,
    ResultStore,
    code_version,
    jsonify,
    row_key,
)
from repro.graphs.parallel import KERNEL_WORKERS_ENV

#: A picklable trial work item: (scenario, params, trial, root_seed,
#: timeout, code_version[, func_module[, kernel_workers]]).  The seed
#: sequence is re-derived in the worker from the first four fields.
#: The optional seventh element names the module that registered the
#: scenario: under a spawn/forkserver start method the worker's
#: registry only holds the first-party scenarios (imported with
#: repro.exp), so the worker imports that module to re-register user
#: scenarios before resolving by name.  Under fork it is never needed.
#: The optional eighth element pins ``REPRO_KERNEL_WORKERS`` for the
#: trial's duration — how :func:`coordinate_parallelism`'s split
#: reaches the CSR kernels without touching the trial's row (kernel
#: sharding is bit-invisible, so it must never enter the resume key).
#: The optional ninth element is the ``repro.obs`` tracing flag: a
#: traced trial runs under a collector and its row gains the
#: timing-exempt ``spans``/``counters``/``gauges`` tables.  Like kernel
#: sharding, tracing never enters the resume key — traced and untraced
#: runs share cached rows.
TrialSpec = Tuple[Any, ...]


def coordinate_parallelism(
    workers: int,
    prefer_kernel_parallelism: bool = False,
    kernel_workers: Optional[int] = None,
) -> Tuple[int, int]:
    """Split one worker budget between trial- and kernel-sharding.

    Returns ``(trial_workers, kernel_workers)`` with
    ``max(trial_workers, 1) * kernel_workers <= max(workers, 1)``, so
    ``trials x kernel_workers`` never oversubscribes.  Simulated MPC
    ranks (:mod:`repro.mpc`) run in process and take no share of the
    budget.  ``trial_workers == 0`` means "run trials inline" (no trial
    pool): that is the resolution for scale scenarios that declare
    ``prefer_kernel_parallelism`` — one trial at a time with every
    core in the chunk-sharded kernels.  An explicit
    ``kernel_workers`` caps kernel sharding and gives the rest of the
    budget to trial sharding.
    """
    budget = max(1, workers)
    if kernel_workers is None:
        resolved_kernel = budget if prefer_kernel_parallelism else 1
    else:
        resolved_kernel = max(1, min(int(kernel_workers), budget))
    trial_workers = budget // resolved_kernel
    if workers <= 0 or trial_workers <= 1:
        trial_workers = 0
    return trial_workers, resolved_kernel


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its time budget."""


def _call_with_timeout(func: Callable[[], Dict[str, Any]], timeout: Optional[float]):
    if not timeout or not hasattr(signal, "SIGALRM"):
        return func()

    def handler(signum, frame):
        raise TrialTimeout(f"trial exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return func()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run one trial spec to a result row (never raises).

    When the spec carries a kernel-worker count (element 8), the trial
    runs with ``REPRO_KERNEL_WORKERS`` pinned to it: scenario functions
    don't thread ``kernel_workers=`` explicitly — the environment
    default reaches every CSR kernel call — and the coordination rule
    (``trials x kernel_workers <= budget``) holds even when the caller
    exported a global override.  The pin never touches the row, so rows
    stay bit-identical at any kernel-worker count.

    When the spec's obs flag (element 9) is set, the trial body runs
    under a :class:`repro.obs.Collector` and the row gains ``spans`` /
    ``counters`` / ``gauges`` tables (timing-exempt, see
    :data:`repro.exp.store.TIMING_FIELDS`).  Error and timeout rows
    keep whatever the collector gathered before the failure — partial
    span tables localize where a trial died.
    """
    name, params, trial, root_seed, timeout, version = spec[:6]
    kernel_workers = spec[7] if len(spec) > 7 else None
    traced = bool(spec[8]) if len(spec) > 8 else False
    row: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "scenario": name,
        "params": dict(params),
        "trial": trial,
        "root_seed": root_seed,
        "code_version": version,
        "status": "ok",
        "metrics": {},
        "error": None,
    }
    previous_env = os.environ.get(KERNEL_WORKERS_ENV)
    if kernel_workers is not None:
        os.environ[KERNEL_WORKERS_ENV] = str(kernel_workers)
    collector = _obs.Collector() if traced else None
    start = time.perf_counter()
    try:
        try:
            scn = _scenarios.get(name)
        except KeyError:
            if len(spec) <= 6 or not spec[6]:
                raise
            import importlib

            importlib.import_module(spec[6])  # re-registers on import
            scn = _scenarios.get(name)
        ctx = _scenarios.TrialContext(
            _scenarios.trial_seed_sequence(root_seed, params, trial)
        )
        if collector is not None:

            def run_traced() -> Dict[str, Any]:
                with _obs.collect(collector):
                    return scn.func(dict(params), ctx)

            metrics = _call_with_timeout(run_traced, timeout)
        else:
            metrics = _call_with_timeout(lambda: scn.func(dict(params), ctx), timeout)
        if not isinstance(metrics, dict):
            raise TypeError(
                f"scenario {name!r} returned {type(metrics).__name__}, expected dict"
            )
        row["metrics"] = jsonify(metrics)
    except TrialTimeout as exc:
        row["status"] = "timeout"
        row["error"] = str(exc)
    except Exception:
        row["status"] = "error"
        row["error"] = traceback.format_exc(limit=20)
    finally:
        if kernel_workers is not None:
            if previous_env is None:
                os.environ.pop(KERNEL_WORKERS_ENV, None)
            else:
                os.environ[KERNEL_WORKERS_ENV] = previous_env
    if collector is not None:
        row["spans"] = collector.span_table()
        row["counters"] = collector.counter_table()
        row["gauges"] = collector.gauge_table()
    row["elapsed_s"] = time.perf_counter() - start
    return row


def _execute_chunk(specs: List[TrialSpec]) -> List[Dict[str, Any]]:
    return [execute_trial(spec) for spec in specs]


@dataclass
class RunResult:
    """Outcome of one :func:`run_scenario` sweep."""

    scenario: str
    rows: List[Dict[str, Any]] = field(default_factory=list)  # spec order
    new_rows: List[Dict[str, Any]] = field(default_factory=list)  # this run only
    executed: int = 0
    skipped: int = 0

    @staticmethod
    def _count(rows: List[Dict[str, Any]]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in rows:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return counts

    @property
    def statuses(self) -> Dict[str, int]:
        return self._count(self.rows)

    @property
    def new_statuses(self) -> Dict[str, int]:
        """Status counts over only the trials executed by this run."""
        return self._count(self.new_rows)

    def metrics(self, name: str) -> List[Any]:
        """The named metric from every ``ok`` row (spec order)."""
        return [
            row["metrics"][name]
            for row in self.rows
            if row["status"] == "ok" and name in row["metrics"]
        ]

    def by_params(self) -> Dict[str, List[Dict[str, Any]]]:
        from repro.exp.store import canonical_params

        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for row in self.rows:
            grouped.setdefault(canonical_params(row["params"]), []).append(row)
        return grouped


def run_scenario(
    scenario: Union[str, "_scenarios.Scenario"],
    store: Optional[ResultStore] = None,
    workers: int = 0,
    trials: Optional[int] = None,
    root_seed: int = 0,
    overrides: Optional[Mapping[str, Sequence[Any]]] = None,
    timeout: Optional[float] = None,
    max_points: Optional[int] = None,
    retry_failed: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    kernel_workers: Optional[int] = None,
    obs: Optional[bool] = None,
) -> RunResult:
    """Run (or resume) a scenario sweep.

    Parameters
    ----------
    scenario:
        Registered scenario or its name.
    store:
        Result store for persistence + resume; ``None`` keeps rows
        in memory only (used by the thin pytest benches).
    workers:
        ``0`` runs trials inline in this process; ``k >= 1`` is the
        total parallelism budget.  :func:`coordinate_parallelism`
        splits it between trial sharding and kernel sharding — normal
        scenarios shard trials (kernels serial); scenarios that declare
        ``prefer_kernel_parallelism`` run one trial at a time with the
        whole budget in the chunk-sharded CSR kernels.  The produced
        rows are identical in every configuration.
    kernel_workers:
        Explicit kernel-worker count per trial (caps the kernel share
        of the budget; the rest shards trials).  ``None`` lets the
        scenario's declaration decide.
    trials / timeout:
        Override the scenario's per-point trial count / per-trial
        timeout (seconds).
    overrides:
        Grid overrides, ``{key: [values...]}`` — replaces the value
        list of an existing grid key.
    max_points:
        Truncate the expanded grid (smoke runs).
    retry_failed:
        By default every stored trial is skipped, whatever its status
        — reruns are no-ops.  ``True`` re-executes trials whose cached
        row is ``error``/``timeout`` (the fresh row supersedes the old
        one on read: last write wins per key).
    obs:
        ``True`` traces every executed trial with :mod:`repro.obs`
        (rows gain timing-exempt ``spans``/``counters``/``gauges``
        tables); ``False`` disables tracing; ``None`` (default) defers
        to the ``REPRO_OBS`` environment variable.  Tracing never
        enters the resume key: already-cached rows are returned as-is,
        whichever way they were recorded.
    """
    scn = _scenarios.get(scenario) if isinstance(scenario, str) else scenario
    points = scn.param_points(overrides)
    if max_points is not None:
        points = points[:max_points]
    per_point = scn.trials if trials is None else trials
    per_trial_timeout = scn.timeout if timeout is None else timeout
    version = code_version()
    trial_workers, trial_kernel_workers = coordinate_parallelism(
        workers,
        getattr(scn, "prefer_kernel_parallelism", False),
        kernel_workers,
    )

    traced = _obs.resolve_obs(obs)
    func_module = getattr(scn.func, "__module__", None) or ""
    specs: List[TrialSpec] = [
        (
            scn.name,
            point,
            trial,
            root_seed,
            per_trial_timeout,
            version,
            func_module,
            trial_kernel_workers,
            traced,
        )
        for point in points
        for trial in range(per_point)
    ]
    existing = store.existing(scn.name) if store is not None else {}

    def spec_key(spec: TrialSpec):
        name, params, trial, seed, _timeout, ver = spec[:6]
        return row_key(
            {
                "scenario": name,
                "params": params,
                "trial": trial,
                "root_seed": seed,
                "code_version": ver,
            }
        )

    # One canonical-JSON serialization per spec; every later lookup
    # (resume filter, cached-failure count, row assembly) reuses it.
    spec_keys = [spec_key(spec) for spec in specs]

    def is_cached(key) -> bool:
        row = existing.get(key)
        if row is None:
            return False
        return not (retry_failed and row["status"] != "ok")

    pending = [
        spec
        for spec, key in zip(specs, spec_keys, strict=True)
        if not is_cached(key)
    ]
    say = progress or (lambda message: None)
    cached_failures = 0
    if not retry_failed:
        cached_failures = sum(
            1
            for key in spec_keys
            if existing.get(key, {"status": "ok"})["status"] != "ok"
        )
    say(
        f"{scn.name}: {len(points)} param point(s) x {per_point} trial(s) = "
        f"{len(specs)} total; {len(specs) - len(pending)} cached, "
        f"{len(pending)} to run ({trial_workers or 'inline'} trial workers "
        f"x {trial_kernel_workers} kernel workers"
        f"{', obs tracing on' if traced else ''})"
    )
    if cached_failures:
        say(
            f"  note: {cached_failures} cached trial(s) have error/timeout "
            "status and were NOT retried (pass retry_failed / --retry-failed)"
        )

    fresh: Dict[Tuple, Dict[str, Any]] = {}

    def record(row: Dict[str, Any]) -> None:
        fresh[row_key(row)] = row
        if store is not None:
            store.append(row)
        label = f"{row['scenario']} {row['params']} trial {row['trial']}"
        if row["status"] != "ok":
            say(f"  {row['status'].upper()}: {label}: {str(row['error']).strip().splitlines()[-1]}")

    if pending:
        if trial_workers <= 0:
            for spec in pending:
                record(execute_trial(spec))
        else:
            # Chunked dispatch; futures drained in submission order so
            # the store's append order is deterministic.
            chunk_size = max(1, math.ceil(len(pending) / (trial_workers * 4)))
            chunks = [
                pending[lo : lo + chunk_size]
                for lo in range(0, len(pending), chunk_size)
            ]
            with ProcessPoolExecutor(max_workers=trial_workers) as pool:
                futures = [pool.submit(_execute_chunk, chunk) for chunk in chunks]
                for future in futures:
                    for row in future.result():
                        record(row)

    rows = [fresh.get(key) or existing[key] for key in spec_keys]
    new_rows = [fresh[key] for key in spec_keys if key in fresh]
    return RunResult(
        scenario=scn.name,
        rows=rows,
        new_rows=new_rows,
        executed=len(pending),
        skipped=len(specs) - len(pending),
    )
