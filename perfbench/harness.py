"""Set-up, the closed measuring loop, the traced loop, and the result.

One call of :func:`run_workload` is one benchmark run in the current
process: set the workload up ``workload.setups`` times (median →
``setup_s``),
then run its fixed op list one op at a time — the next op starts when
the previous one has returned — checking every output.  Both times are
scaled to reference-box seconds by a speed probe run between the timed
work (:class:`SpeedProbe`).  The list is
sized from ``seconds`` and the workload's nominal group time before
timing starts, so two runs do the same ops whatever their speed.  With
``trace`` the run instead alternates each group of ops untraced and
traced (same ops, same seeds) and reports the per-layer metrics plus
the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks, spans
from perfbench.workloads import WORKLOADS, Workload

#: End-to-end metrics in report order: name, unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("local_rounds_mean", "rounds"),
    ("unclustered_frac_mean", "fraction"),
    ("approx_ratio_mean", "ratio"),
)

#: Value printed for a quality metric the workload does not measure, so
#: every run carries every end-to-end metric (README, "Metrics").
NOT_APPLICABLE = 1.0


#: Timed wall time per probe: probes add about 4 % to a run.
PROBE_INTERVAL_S = 0.25

_PROBE_KEYS = np.random.default_rng(0).random(1 << 18)


def _interpreter_work() -> None:
    """Bytecode, small-object and small-numpy-call work, the kind the
    Chang–Li and churn ops spend their time in."""
    total = 0
    for k in range(30000):
        total += k * k % 7
    x = np.arange(20000)
    for _ in range(200):
        x = x[::-1] + 1
    seen = set()
    pairs = []
    for k in range(10000):
        seen.add((k * 31) % 5003)
        pairs.append((k, k + 1))
    sorted(pairs, key=lambda pair: -pair[0])


def _array_work() -> None:
    """Whole-array numpy work, the kind the saturated LDD sweep and the
    MWU solves spend their time in."""
    for _ in range(4):
        np.sort(_PROBE_KEYS)


#: Probe work for each ``Workload.probe`` / ``setup_probe`` kind, and
#: its mean wall time on the reference box (README, "Machine-speed
#: scale").
PROBES: Dict[str, Tuple[Callable[[], None], float]] = {
    "interpreter": (_interpreter_work, 0.0101),
    "array": (_array_work, 0.0095),
}


def probe_once(work: Callable[[], None]) -> float:
    """Wall time of one run of ``work``, which calls no ``repro`` code.
    The collector is off meanwhile, so objects the program keeps alive
    cannot slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes spread over timed work, one per ``PROBE_INTERVAL_S``.

    The box's speed drifts: the same op runs up to 1.5x slower for
    stretches of seconds, and a probe of the same kind of work slows
    with it.  ``scale`` turns the wall time of the work the probes were
    spread over into reference-box seconds."""

    def __init__(self, kind: str) -> None:
        self.work, self.reference = PROBES[kind]
        self.walls: List[float] = []
        self._since = 0.0
        probe_once(self.work)  # warm-up: allocator and first-touch page faults

    def after(self, wall: float) -> None:
        """Account ``wall`` seconds of timed work, probing once per
        ``PROBE_INTERVAL_S`` of it."""
        self._since += wall
        while self._since >= PROBE_INTERVAL_S:
            self._since -= PROBE_INTERVAL_S
            self.walls.append(probe_once(self.work))

    def scale(self) -> float:
        if not self.walls:
            self.walls.append(probe_once(self.work))
        return self.reference / statistics.fmean(self.walls)


@dataclass
class LoopResult:
    walls: List[float] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: Dict[str, List[float]] = field(default_factory=dict)


def _attempt(
    workload: Workload,
    state: Any,
    i: int,
    loop: LoopResult,
    tracer: Optional[spans.Tracer] = None,
) -> float:
    """Run op ``i`` (timed), then check it (untimed, with any tracer
    paused).  Returns the op's wall time."""
    loop.attempted += 1
    start = time.perf_counter()
    try:
        output = workload.run(state, i)
    except Exception:
        wall = time.perf_counter() - start
        loop.failed += 1
        traceback.print_exc(file=sys.stderr)
        return wall
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.paused = True
    try:
        figures = workload.check(state, i, output)
    except checks.CheckFailed as exc:
        loop.failed += 1
        print(f"op {i}: check failed: {exc}", file=sys.stderr)
        return wall
    except Exception:
        # A malformed output can break the checker itself; that is a
        # failed op too, not an aborted run.
        loop.failed += 1
        traceback.print_exc(file=sys.stderr)
        return wall
    finally:
        if tracer is not None:
            tracer.paused = False
    for name, value in figures.items():
        loop.quality.setdefault(name, []).append(value)
    return wall


def group_count(workload: Workload, seconds: float) -> int:
    """Groups in the op list of a run measuring about ``seconds``."""
    return max(1, round(seconds / workload.group_seconds))


def measure(
    workload: Workload,
    state: Any,
    groups: int,
    probe: Optional[SpeedProbe] = None,
) -> LoopResult:
    loop = LoopResult()
    for i in range(groups * workload.group):
        loop.walls.append(_attempt(workload, state, i, loop))
        if probe is not None:
            probe.after(loop.walls[-1])
    return loop


def measure_traced(
    workload: Workload, state: Any, groups: int, tracer: spans.Tracer
) -> LoopResult:
    """Each group runs untraced, then again traced with the same op
    indices; checks run with the tracer paused."""
    loop = LoopResult()
    tracer.phase = "ops"
    for g in range(groups):
        ops = range(g * workload.group, (g + 1) * workload.group)
        for i in ops:
            loop.walls.append(_attempt(workload, state, i, loop))
        tracer.install()
        try:
            for i in ops:
                loop.traced_walls.append(_attempt(workload, state, i, loop, tracer))
        finally:
            tracer.uninstall()
    return loop


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux (bytes on macOS).
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def machine_facts(root: Path) -> Dict[str, Any]:
    """What a result needs to be compared only with its own kind."""
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    rev, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=root, capture_output=True, text=True, timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "git_rev": rev,
        "git_dirty": dirty,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    size: str = "full",
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One benchmark run.  Returns ``(result, info)``: the result line's
    object and a dict of context (machine facts, op counts, spans file)."""
    workload = WORKLOADS[name](seed, size)
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    info: Dict[str, Any] = {"workload": name, "seed": seed, "size": size}
    try:
        if trace:
            result = _traced_run(workload, seconds, root, workdir, info)
        else:
            result = _timed_run(workload, seconds, workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["machine"] = machine_facts(root)
    return result, info


def _timed_run(workload, seconds, workdir: Path, info) -> Dict[str, Any]:
    walls = []
    setup_probe = SpeedProbe(workload.setup_probe)
    for rep in range(workload.setups):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(workdir / f"setup{rep}")
        walls.append(time.perf_counter() - start)
        setup_probe.after(walls[-1])
    op_probe = SpeedProbe(workload.probe)
    loop = measure(workload, state, group_count(workload, seconds), op_probe)
    info.update(
        setup_walls=walls,
        op_walls=loop.walls,
        setup_probe_walls=setup_probe.walls,
        op_probe_walls=op_probe.walls,
        wall_setup_s=statistics.median(walls),
        wall_ops_per_s=len(loop.walls) / sum(loop.walls),
    )
    values = {
        "setup_s": statistics.median(walls) * setup_probe.scale(),
        "ops_per_s": len(loop.walls) / (sum(loop.walls) * op_probe.scale()),
        "peak_rss_mb": peak_rss_mb(),
    }
    for metric in workload.quality:
        values[metric] = statistics.fmean(loop.quality.get(metric) or [0.0])
    info["not_applicable"] = [m for m, _ in END_TO_END if m not in values]
    metrics = {
        metric: _metric(values.get(metric, NOT_APPLICABLE), unit)
        for metric, unit in END_TO_END
    }
    return _result(loop, metrics)


def _traced_run(workload, seconds, root: Path, workdir: Path, info) -> Dict[str, Any]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = workload.setup(workdir / "setup0")
    finally:
        tracer.uninstall()
    # Each group runs twice, so half as many fill the same time.
    loop = measure_traced(workload, state, group_count(workload, seconds / 2), tracer)
    values, percentiles = spans.layer_metrics(tracer.spans, len(loop.traced_walls))
    values.update(workload.layer_extras(state))
    untraced = len(loop.walls) / sum(loop.walls)
    traced = len(loop.traced_walls) / sum(loop.traced_walls)
    values["trace.overhead_frac"] = untraced / traced - 1.0
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(spans_file)
    info.update(
        ops=len(loop.walls),
        traced_ops=len(loop.traced_walls),
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(root)),
        percentiles=percentiles,
    )
    metrics = {
        name: _metric(values.get(name, 0.0), unit)
        for name, unit in spans.LAYER_METRICS
    }
    return _result(loop, metrics)


def _result(loop: LoopResult, metrics: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
