"""The benchmark's own tests: tiny-size smokes, the correctness gate on
corrupted outputs, tracer hygiene, and the no-sources failure exit."""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, harness, spans
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name, tmp_path):
    result, info = harness.run_workload(name, 3, 0.05, False, tmp_path, "tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric, unit in harness.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
    assert info["machine"]["nproc"] >= 1
    assert info["setup_probe_walls"] and info["op_probe_walls"]
    assert info["wall_setup_s"] > 0 and info["wall_ops_per_s"] > 0
    scratch = tmp_path / ".perfbench_tmp"
    assert not scratch.exists() or not any(scratch.iterdir())


@pytest.mark.parametrize("kind", list(harness.PROBES))
def test_speed_probe_converts_wall_time_to_reference_box_seconds(kind, monkeypatch):
    probe = harness.SpeedProbe(kind)
    slow = 2 * harness.PROBES[kind][1]
    monkeypatch.setattr(harness, "probe_once", lambda work: slow)
    probe.after(2.5 * harness.PROBE_INTERVAL_S)
    assert probe.walls == [slow, slow]
    probe.after(0.5 * harness.PROBE_INTERVAL_S)  # the carried half completes one
    assert len(probe.walls) == 3
    # Twice the reference probe time: a wall second is half a box second.
    assert probe.scale() == pytest.approx(0.5)


def _bindings():
    """Every object a traced name is currently bound to, by location."""
    seen = {}
    for _, module_name, attr in spans.FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        for key, mod in list(sys.modules.items()):
            if mod is not None and key.startswith(("repro", "perfbench")):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        seen[(key, name)] = value
    for _, module_name, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        seen[(module_name, cls_name, attr)] = cls.__dict__[attr]
    return seen


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_restores_bindings(name, tmp_path):
    before = _bindings()
    result, info = harness.run_workload(name, 3, 0.05, True, tmp_path, "tiny")
    assert result["correct"] and result["failed"] == 0
    for metric, unit in spans.LAYER_METRICS:
        assert result["metrics"][metric]["unit"] == unit
    assert (tmp_path / info["spans_file"]).is_file()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_patches_imported_names_and_restores_them():
    import repro.core.ldd as ldd_module
    import repro.core.repair as repair_module
    from repro.graphs import CsrGraph

    original = ldd_module.chang_li_ldd
    method = CsrGraph.__dict__["all_ball_sizes"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert repair_module.chang_li_ldd is not original
        assert repair_module.chang_li_ldd is ldd_module.chang_li_ldd
        assert CsrGraph.__dict__["all_ball_sizes"] is not method
    finally:
        tracer.uninstall()
    assert repair_module.chang_li_ldd is original
    assert CsrGraph.__dict__["all_ball_sizes"] is method


def test_layer_metrics_self_time_and_outermost_only():
    s = spans.Span
    trace = [
        s("core.ldd", 0.0, 10.0, None, "ops"),
        s("graphs.all_ball_sizes", 1.0, 7.0, 0, "ops", {"sources": 4, "saturated": 3}),
        s("graphs.connected_components", 7.0, 8.0, 0, "ops"),
        s("graphs.connected_components", 7.2, 7.9, 2, "ops"),
    ]
    values, _ = spans.layer_metrics(trace, ops=2)
    assert values["core.ldd.s"] == pytest.approx(5.0)
    assert values["core.ldd.self_s"] == pytest.approx(1.5)
    assert values["graphs.connected_components.s"] == pytest.approx(0.5)
    assert values["graphs.all_ball_sizes.saturated_frac"] == pytest.approx(0.75)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert spans.tail_percentile(10) == 50
    assert spans.tail_percentile(100) == 90
    assert spans.tail_percentile(1000) == 99


# -- the correctness gate: a corrupted output is a failed op -------------


def _drop_cluster_vertex(state, i, output):
    cluster = next(c for c in output.clusters if c)
    cluster.discard(next(iter(cluster)))
    return output


def _flip_point_label(state, i, output):
    output.points[0] = output.points[0].copy()
    output.points[0][0] += 1
    return output


def _break_solution(state, i, output):
    instance = state.instances[i % len(state.instances)]
    chosen = set(output.chosen)
    if i % 2 == 0:
        # Packing: add a variable that shares a constraint with a chosen one.
        for con in instance.constraints:
            support = set(con.coefficients)
            if support & chosen and support - chosen:
                chosen.add(next(iter(support - chosen)))
                break
    else:
        # Covering: drop a chosen vertex that some constraint depends on.
        for v in sorted(chosen):
            if not instance.is_feasible(chosen - {v}):
                chosen.discard(v)
                break
    output.chosen = chosen
    return output


def _perturb_dual(state, i, output):
    cert = output.solution.certificate
    y = np.asarray(cert.y, dtype=float) * 1.5 + 0.1
    solution = dataclasses.replace(
        output.solution, certificate=dataclasses.replace(cert, y=y)
    )
    return dataclasses.replace(output, solution=solution)


CORRUPTIONS = {
    "ldd-saturated": _drop_cluster_vertex,
    "ldd-churn-serve": _flip_point_label,
    "chang-li-ilp": _break_solution,
    "mwu-certified": _perturb_dual,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_outputs_count_as_failed_ops(name, tmp_path):
    corrupt = CORRUPTIONS[name]
    base = WORKLOADS[name]

    class Corrupted(base):
        def run(self, state, i):
            return corrupt(state, i, base.run(self, state, i))

    workload = Corrupted(3, "tiny")
    state = workload.setup(tmp_path)
    loop = harness.measure(workload, state, groups=1)
    assert loop.attempted == workload.group
    assert loop.failed == loop.attempted


def _drop_rounded_variable(state, i, output):
    """Drop a chosen variable from the rounded solution.  Covering drops
    one the cover needs and reports the lowered weight, so only the
    feasibility check can catch it; packing stays feasible and keeps
    its weight, so only the weight check can."""
    problem = state.problems[i % len(state.problems)]
    solution = output.solution
    chosen = set(solution.chosen)
    weight = solution.weight
    if problem.kind == "covering":
        rows = problem.matrix.tocsc()
        pick = np.zeros(problem.n)
        pick[list(chosen)] = 1.0
        load = problem.matrix @ pick
        for j in sorted(chosen):
            col = rows[:, j]
            if np.any(load[col.indices] - col.data < problem.bounds[col.indices]):
                chosen.discard(j)
                weight -= float(problem.weights[j])
                break
        assert len(chosen) < len(solution.chosen), "cover has no needed variable"
    else:
        chosen.discard(min(chosen))
    solution = dataclasses.replace(solution, chosen=frozenset(chosen), weight=weight)
    return dataclasses.replace(output, solution=solution)


def test_dropped_rounded_variable_counts_as_failed_op(tmp_path):
    base = WORKLOADS["mwu-certified"]

    class Corrupted(base):
        def run(self, state, i):
            return _drop_rounded_variable(state, i, base.run(self, state, i))

    workload = Corrupted(3, "tiny")
    state = workload.setup(tmp_path)
    loop = harness.measure(workload, state, groups=1)
    assert loop.attempted == workload.group == 2
    assert loop.failed == loop.attempted


def test_malformed_output_that_breaks_the_checker_counts_as_failed_op(tmp_path):
    base = WORKLOADS["chang-li-ilp"]

    class Malformed(base):
        def run(self, state, i):
            output = base.run(self, state, i)
            output.chosen = None  # set(None) raises TypeError in the check
            return output

    workload = Malformed(3, "tiny")
    state = workload.setup(tmp_path)
    loop = harness.measure(workload, state, groups=1)
    assert loop.failed == loop.attempted == workload.group


def test_radius_check_rejects_a_wrong_answer():
    from repro.graphs import grid_graph

    graph = grid_graph(3, 3)
    labels = np.array([0, 0, -1, 1, -1, 2, 1, -1, 2])
    sources = [np.array([0, 4])]
    good = [[np.array([0, 1]), np.array([0, 1, 2])]]
    checks.check_radius(graph, labels, sources, 1, good, sample=2)
    bad = [[np.array([0]), np.array([0, 1, 2])]]
    with pytest.raises(checks.CheckFailed):
        checks.check_radius(graph, labels, sources, 1, bad, sample=2)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ldd-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
