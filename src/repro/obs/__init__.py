"""``repro.obs`` — process-local span tracing, counters and gauges.

The library's runtime signal used to be a single ``elapsed_s`` per
trial; this module is the metering substrate that localizes it: nested
**spans** (``with obs.span("ldd.estimate_nv"): ...``) accumulate
per-path call counts and wall time, **counters** accumulate monotonic
work totals (``obs.count("csr.ball.words_retired", k)``) and **gauges**
record last/peak values (``obs.gauge("ldd.residual_after_phase2",
k)`` — the vertices the carving phases left behind).

Design contract:

* **Zero overhead when disabled.**  Tracing is off unless a
  :class:`Collector` is installed via :func:`collect`; every
  instrumentation call then reduces to one module-global ``None`` check
  (``span`` additionally returns a shared no-op context manager).
  Instrumented code never branches on ``enabled()`` itself.
* **Observationally neutral.**  Instrumentation only *reads* program
  state; algorithm outputs and persisted rows are bit-identical with
  tracing on or off (modulo the timing-exempt row fields
  ``spans``/``counters``/``gauges`` — see
  :data:`repro.exp.store.TIMING_FIELDS`).  Property-tested in
  ``tests/test_obs_neutrality.py``.
* **Deterministic aggregation across processes.**  Kernel workers run
  their own collector per chunk task and ship the aggregate tables back
  through the existing result channel
  (:mod:`repro.graphs.parallel`); the parent absorbs them
  (:meth:`Collector.absorb`) in chunk order under its current span
  path.  Worker spans enter
  the aggregate tables only — raw timeline records never cross process
  boundaries because ``perf_counter`` origins are not comparable.

This package is the **sanctioned clock boundary**: repro-lint rule
RPL401 bans direct ``time.perf_counter()``/``time.monotonic()`` calls
in the determinism-scoped packages (``repro.{core,decomp,graphs,ilp,
local}``); timing there must flow through these entry points.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Environment variable enabling tracing in the experiment runner when
#: no explicit ``obs=`` argument is given ("1"/"true"/"yes"/"on").
OBS_ENV = "REPRO_OBS"

#: Timeline records kept per collector for Chrome-trace export; the
#: aggregate tables are unbounded (one entry per distinct path/name).
DEFAULT_MAX_RECORDS = 200_000

Number = Union[int, float]

_COLLECTOR: Optional["Collector"] = None


def enabled() -> bool:
    """Whether a collector is currently installed in this process."""
    return _COLLECTOR is not None


def active() -> Optional["Collector"]:
    """The installed collector, or ``None`` when tracing is off."""
    return _COLLECTOR


def resolve_obs(flag: Optional[bool] = None) -> bool:
    """Resolve a tracing flag: explicit argument wins, else ``REPRO_OBS``."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(OBS_ENV, "").strip().lower()
    return raw in ("1", "true", "yes", "on")


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: pushes its path on enter, aggregates on exit."""

    __slots__ = ("_collector", "_name", "_path", "_t0")

    def __init__(self, collector: "Collector", name: str) -> None:
        self._collector = collector
        self._name = name

    def __enter__(self) -> "_Span":
        col = self._collector
        stack = col._stack
        self._path = f"{stack[-1]}/{self._name}" if stack else self._name
        stack.append(self._path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._t0
        col = self._collector
        col._stack.pop()
        col.events += 1
        entry = col.spans.get(self._path)
        if entry is None:
            col.spans[self._path] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
        if len(col.records) < col.max_records:
            col.records.append((self._path, self._t0 - col._origin, elapsed))
        return False


def span(name: str):
    """Context manager timing a named region (no-op when disabled).

    Spans nest: a span opened inside another is keyed by the joined
    path (``"parent/child"``), so one call site contributes distinct
    aggregate rows depending on where it runs (``carve.gather`` under
    ``ldd.carve.phase1-iter1`` vs under ``ldd.carve.phase2``).
    """
    col = _COLLECTOR
    if col is None:
        return _NOOP_SPAN
    return _Span(col, name)


def count(name: str, value: Number = 1) -> None:
    """Add ``value`` to a monotonic counter (no-op when disabled).

    Integer increments accumulate exactly (Python ints); pass ints
    wherever the quantity is integral so cross-process absorption order
    cannot perturb totals.
    """
    col = _COLLECTOR
    if col is not None:
        col.count(name, value)


def gauge(name: str, value: Number) -> None:
    """Record an instantaneous value: keeps the last and the peak."""
    col = _COLLECTOR
    if col is not None:
        col.gauge(name, value)


class Collector:
    """Accumulates spans/counters/gauges for one traced execution.

    ``spans`` maps each "/"-joined path to ``[calls, wall_s]``;
    ``counters`` maps names to monotonic sums; ``gauges`` maps names to
    ``[last, max]`` (peak-hold).  ``records`` keeps up to
    ``max_records`` ``(path, start_s, duration_s)`` timeline entries
    (relative to the collector's creation) for Chrome-trace export.
    ``events`` counts instrumentation hits — the disabled-path call
    count the overhead guard multiplies by the per-call cost.
    """

    __slots__ = (
        "spans",
        "counters",
        "gauges",
        "records",
        "events",
        "max_records",
        "_stack",
        "_origin",
    )

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, List[Number]] = {}
        self.records: List[Tuple[str, float, float]] = []
        self.events = 0
        self.max_records = max_records
        self._stack: List[str] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------
    def count(self, name: str, value: Number = 1) -> None:
        self.events += 1
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        self.events += 1
        entry = self.gauges.get(name)
        if entry is None:
            self.gauges[name] = [value, value]
        else:
            entry[0] = value
            if value > entry[1]:
                entry[1] = value

    def current_path(self) -> str:
        """The innermost open span path ("" at top level)."""
        return self._stack[-1] if self._stack else ""

    # -- structured views ----------------------------------------------
    def span_table(self) -> Dict[str, Dict[str, float]]:
        """``{path: {"calls", "wall_s"}}``, path-sorted (JSON-ready)."""
        return {
            path: {"calls": int(calls), "wall_s": wall}
            for path, (calls, wall) in sorted(self.spans.items())
        }

    def counter_table(self) -> Dict[str, Number]:
        return dict(sorted(self.counters.items()))

    def gauge_table(self) -> Dict[str, Dict[str, Number]]:
        return {
            name: {"last": last, "max": peak}
            for name, (last, peak) in sorted(self.gauges.items())
        }

    # -- cross-process merge -------------------------------------------
    def export(self) -> Dict[str, Any]:
        """Picklable aggregate tables (the worker→parent payload).

        Timeline ``records`` are deliberately excluded: a worker's
        ``perf_counter`` origin is not comparable to the parent's, so
        worker spans only ever merge into the aggregate tables.
        """
        return {
            "spans": {path: list(entry) for path, entry in self.spans.items()},
            "counters": dict(self.counters),
            "gauges": {name: list(entry) for name, entry in self.gauges.items()},
            "events": self.events,
        }

    def absorb(self, export: Optional[Dict[str, Any]], prefix: Optional[str] = None) -> None:
        """Merge an :meth:`export` under ``prefix`` (default: the
        current span path).

        Span calls/wall and counters add; gauges keep the absorbed
        ``last`` and the max of the peaks.  Callers absorb worker
        exports **in chunk order**, which pins the (float) accumulation
        order and keeps merged tables deterministic at any worker
        count.
        """
        if not export:
            return
        if prefix is None:
            prefix = self.current_path()
        joined = prefix + "/" if prefix else ""
        for path, (calls, wall) in export.get("spans", {}).items():
            full = joined + path
            entry = self.spans.get(full)
            if entry is None:
                self.spans[full] = [calls, wall]
            else:
                entry[0] += calls
                entry[1] += wall
        for name, value in export.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, (last, peak) in export.get("gauges", {}).items():
            entry = self.gauges.get(name)
            if entry is None:
                self.gauges[name] = [last, peak]
            else:
                entry[0] = last
                if peak > entry[1]:
                    entry[1] = peak
        self.events += int(export.get("events", 0))


@contextlib.contextmanager
def collect(collector: Optional[Collector] = None) -> Iterator[Collector]:
    """Install a collector for the duration of the ``with`` block.

    Creates a fresh :class:`Collector` unless one is passed in; the
    previously-installed collector (usually ``None``) is restored on
    exit, so nested ``collect`` blocks shadow rather than merge.
    """
    global _COLLECTOR
    col = Collector() if collector is None else collector
    previous = _COLLECTOR
    _COLLECTOR = col
    try:
        yield col
    finally:
        _COLLECTOR = previous


__all__ = [
    "OBS_ENV",
    "DEFAULT_MAX_RECORDS",
    "Collector",
    "active",
    "collect",
    "count",
    "enabled",
    "gauge",
    "resolve_obs",
    "span",
]
