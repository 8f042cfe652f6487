"""Tests for the sharded trial runner: determinism, resume, failure capture.

The tiny scenarios registered here are inherited by worker processes
via fork (Linux CI); the runner's contract is that rows are
bit-identical regardless of worker count, modulo the wall-clock fields.
"""

import json
import time

import pytest

from repro.exp import (
    ResultStore,
    RunResult,
    aggregate,
    execute_trial,
    get,
    run_scenario,
    scenario,
    strip_timing,
    trial_seed_sequence,
    write_bench_json,
)


def _register_once(name, **kwargs):
    def wrap(func):
        try:
            return scenario(name, **kwargs)(func)
        except ValueError:  # already registered by a previous import
            return get(name)

    return wrap


@_register_once(
    "test-tiny",
    description="deterministic toy scenario for runner tests",
    grid={"a": (1, 2), "b": ("x",)},
    trials=3,
)
def _tiny(params, ctx):
    rng = ctx.rng()
    return {
        "a": params["a"],
        "draw": int(rng.integers(0, 2**31)),
        "second_draw": int(ctx.rng().integers(0, 2**31)),
    }


@_register_once(
    "test-explode",
    description="raises on odd trials",
    grid={"a": (1,)},
    trials=4,
)
def _explode(params, ctx):
    draw = int(ctx.rng().integers(0, 2**31))
    if draw % 2 == 1:
        raise RuntimeError(f"boom {draw}")
    return {"draw": draw}


@_register_once(
    "test-sleepy",
    description="sleeps far beyond any sane timeout",
    grid={"a": (1,)},
    trials=1,
)
def _sleepy(params, ctx):
    time.sleep(30.0)
    return {"done": True}


@_register_once(
    "test-ranked",
    description="carries a ranks grid key (parallelism coordination)",
    grid={"ranks": (1, 4)},
    trials=1,
    prefer_kernel_parallelism=True,
)
def _ranked(params, ctx):
    import os

    return {
        "ranks": params["ranks"],
        "pid": os.getpid(),
        "kernel_env": os.environ.get("REPRO_KERNEL_WORKERS"),
    }


@_register_once(
    "test-flaky",
    description="fails until the flag file exists (retry testing)",
    grid={"flag_path": ("unset",)},
    trials=2,
)
def _flaky(params, ctx):
    import os

    if not os.path.exists(params["flag_path"]):
        raise RuntimeError("flag file missing")
    return {"done": True}


class TestSeedDerivation:
    def test_depends_only_on_root_params_trial(self):
        a = trial_seed_sequence(7, {"x": 1, "y": "g"}, 3)
        b = trial_seed_sequence(7, {"y": "g", "x": 1}, 3)
        assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_distinct_across_trials_params_roots(self):
        base = trial_seed_sequence(7, {"x": 1}, 0).generate_state(2).tolist()
        for other in (
            trial_seed_sequence(7, {"x": 1}, 1),
            trial_seed_sequence(7, {"x": 2}, 0),
            trial_seed_sequence(8, {"x": 1}, 0),
        ):
            assert other.generate_state(2).tolist() != base


class TestShardDeterminism:
    def test_identical_rows_across_worker_counts(self, tmp_path):
        stores, aggregates = {}, {}
        for workers in (0, 1, 2, 4):
            store = ResultStore(tmp_path / f"w{workers}")
            result = run_scenario(
                "test-tiny", store=store, workers=workers, root_seed=11
            )
            assert result.executed == 6 and result.skipped == 0
            stores[workers] = [strip_timing(r) for r in store.rows("test-tiny")]
            agg_path = write_bench_json(
                aggregate("test-tiny", store.rows("test-tiny")),
                tmp_path / f"w{workers}" / "BENCH_test-tiny.json",
            )
            aggregates[workers] = agg_path.read_bytes()
        # JSONL rows: identical contents AND identical file order.
        assert stores[0] == stores[1] == stores[2] == stores[4]
        # Aggregate report: bit-identical bytes.
        assert (
            aggregates[0] == aggregates[1] == aggregates[2] == aggregates[4]
        )

    def test_inline_matches_pool_row_for_row(self, tmp_path):
        spec = ("test-tiny", {"a": 1, "b": "x"}, 2, 5, None, "v")
        row = execute_trial(spec)
        again = execute_trial(spec)
        assert strip_timing(row) == strip_timing(again)
        assert row["status"] == "ok"


class TestResume:
    def test_rerun_executes_zero_trials(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_scenario("test-tiny", store=store, workers=2, root_seed=3)
        assert first.executed == 6
        lines_before = store.path_for("test-tiny").read_text()
        again = run_scenario("test-tiny", store=store, workers=1, root_seed=3)
        assert again.executed == 0 and again.skipped == 6
        # No rows appended; cached rows returned in spec order.
        assert store.path_for("test-tiny").read_text() == lines_before
        assert [strip_timing(r) for r in again.rows] == [
            strip_timing(r) for r in first.rows
        ]

    def test_partial_resume_extends_trials(self, tmp_path):
        store = ResultStore(tmp_path)
        run_scenario("test-tiny", store=store, workers=0, trials=2)
        grown = run_scenario("test-tiny", store=store, workers=0, trials=3)
        assert grown.executed == 2  # one new trial per grid point
        assert grown.skipped == 4
        # Existing trials kept their seeds: draws are a pure function of
        # (root_seed, params, trial), not of the trial count.
        by_key = {
            (r["params"]["a"], r["trial"]): r["metrics"]["draw"]
            for r in grown.rows
        }
        fresh = run_scenario("test-tiny", store=None, workers=0, trials=2)
        for row in fresh.rows:
            assert by_key[(row["params"]["a"], row["trial"])] == row["metrics"]["draw"]

    def test_different_root_seed_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        run_scenario("test-tiny", store=store, workers=0, root_seed=1)
        other = run_scenario("test-tiny", store=store, workers=0, root_seed=2)
        assert other.executed == 6


class TestFailureCapture:
    def test_error_rows_do_not_abort_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_scenario("test-explode", store=store, workers=0)
        assert len(result.rows) == 4
        statuses = result.statuses
        assert statuses.get("error", 0) >= 1  # draws are odd ~half the time
        for row in result.rows:
            if row["status"] == "error":
                assert "boom" in row["error"]
                assert row["metrics"] == {}

    def test_timeout_row(self):
        result = run_scenario("test-sleepy", store=None, workers=0, timeout=0.2)
        (row,) = result.rows
        assert row["status"] == "timeout"
        assert "0.2" in row["error"]
        assert row["elapsed_s"] < 5.0

    def test_retry_failed_reexecutes_and_supersedes(self, tmp_path):
        store = ResultStore(tmp_path)
        flag = tmp_path / "flag"
        overrides = {"flag_path": [str(flag)]}
        first = run_scenario(
            "test-flaky", store=store, workers=0, overrides=overrides
        )
        assert first.statuses == {"error": 2}
        # Default rerun: failures stay cached, nothing executes.
        cached = run_scenario(
            "test-flaky", store=store, workers=0, overrides=overrides
        )
        assert cached.executed == 0
        assert cached.statuses == {"error": 2}
        # The transient cause goes away; --retry-failed re-executes
        # exactly the failed trials and the fresh rows supersede.
        flag.touch()
        retried = run_scenario(
            "test-flaky",
            store=store,
            workers=0,
            overrides=overrides,
            retry_failed=True,
        )
        assert retried.executed == 2
        assert retried.statuses == {"ok": 2}
        assert retried.new_statuses == {"ok": 2}
        keyed = store.existing("test-flaky")
        assert all(row["status"] == "ok" for row in keyed.values())
        # The raw file still holds 4 rows (2 superseded error rows),
        # but aggregation dedups by resume key — last write wins, so
        # the report counts each logical trial exactly once.
        raw = store.rows("test-flaky")
        assert len(raw) == 4
        agg = aggregate("test-flaky", raw)
        assert agg["totals"] == {"rows": 2, "ok": 2, "error": 0, "timeout": 0}
        (point,) = agg["points"]
        assert point["trials"] == 2 and point["statuses"] == {"ok": 2}

    def test_new_statuses_excludes_cached_rows(self, tmp_path):
        store = ResultStore(tmp_path)
        run_scenario("test-tiny", store=store, workers=0, trials=2)
        again = run_scenario("test-tiny", store=store, workers=0, trials=3)
        assert again.statuses == {"ok": 6}
        assert again.new_statuses == {"ok": 2}
        assert len(again.new_rows) == 2

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("no-such-scenario")

    def test_unknown_override_key_raises(self):
        with pytest.raises(KeyError, match="no grid key"):
            run_scenario("test-tiny", overrides={"typo": [1]})


class TestRunResultHelpers:
    def test_metrics_and_grouping(self):
        result = run_scenario("test-tiny", store=None, workers=0, trials=2)
        assert len(result.metrics("draw")) == 4
        groups = result.by_params()
        assert len(groups) == 2
        assert all(len(rows) == 2 for rows in groups.values())
        assert isinstance(result, RunResult)

    def test_aggregate_structure(self):
        result = run_scenario("test-tiny", store=None, workers=0, trials=2)
        agg = aggregate("test-tiny", result.rows)
        assert agg["totals"] == {"rows": 4, "ok": 4, "error": 0, "timeout": 0}
        assert [p["params"]["a"] for p in agg["points"]] == [1, 2]
        point = agg["points"][0]
        assert point["metrics"]["draw"]["count"] == 2
        assert point["metrics"]["draw"]["min"] <= point["metrics"]["draw"]["mean"]
        blob = json.dumps(agg)  # strict-JSON serializable
        assert "draw" in blob


@_register_once(
    "test-kernel-pref",
    description="records the kernel-worker env pin and executing pid",
    grid={"a": (1,)},
    trials=3,
    prefer_kernel_parallelism=True,
)
def _kernel_pref(params, ctx):
    import os

    return {
        "kernel_env": os.environ.get("REPRO_KERNEL_WORKERS", ""),
        "pid": os.getpid(),
        "draw": int(ctx.rng().integers(0, 2**31)),
    }


class TestParallelismCoordination:
    """`coordinate_parallelism` splits one budget between trial- and
    kernel-sharding so `trials x kernel_workers` never oversubscribes."""

    @pytest.mark.parametrize(
        "workers,prefer,kernel,expected",
        [
            (4, False, None, (4, 1)),   # normal: shard trials, serial kernels
            (4, True, None, (0, 4)),    # scale: inline trials, 4-way kernels
            (2, True, None, (0, 2)),
            (1, False, None, (0, 1)),   # one lane: inline, no pool spin-up
            (0, False, None, (0, 1)),   # explicit inline
            (0, True, None, (0, 1)),
            (4, False, 2, (2, 2)),      # explicit split
            (5, False, 2, (2, 2)),
            (3, False, 2, (0, 2)),      # remainder lane folds into inline
            (4, True, 1, (4, 1)),       # explicit serial kernels win
            (1, False, 4, (0, 1)),      # kernel ask clamped to the budget
        ],
    )
    def test_split(self, workers, prefer, kernel, expected):
        from repro.exp import coordinate_parallelism

        split = coordinate_parallelism(workers, prefer, kernel)
        assert split == expected
        trial_workers, kernel_workers = split
        assert max(trial_workers, 1) * kernel_workers <= max(workers, 1)

    @pytest.mark.parametrize(
        "workers,kernel,expected_env",
        [
            (8, None, "8"),   # the whole budget goes to the kernels
            (4, None, "4"),
            (2, None, "2"),
            (1, None, "1"),
            (0, None, "1"),   # inline stays inline and serial
            (8, 8, "8"),      # explicit kernel ask equal to the budget
            (3, 16, "3"),     # kernel ask clamped to the whole budget
        ],
    )
    def test_grid_ranks_take_no_share_of_the_budget(
        self, workers, kernel, expected_env
    ):
        # Simulated MPC ranks run in process, so a ``ranks`` grid key
        # leaves the split exactly as for a rank-free scale scenario:
        # trials inline, every lane pinned for the kernels.
        import os

        from repro.exp import coordinate_parallelism

        assert coordinate_parallelism(workers, True, kernel) == (
            0,
            int(expected_env),
        )
        result = run_scenario(
            get("test-ranked"), workers=workers, kernel_workers=kernel
        )
        assert result.statuses == {"ok": 2}
        assert sorted(row["metrics"]["ranks"] for row in result.rows) == [1, 4]
        assert {row["metrics"]["pid"] for row in result.rows} == {os.getpid()}
        assert [row["metrics"]["kernel_env"] for row in result.rows] == [
            expected_env
        ] * 2

    def test_prefer_runs_trials_serially_with_kernel_workers_set(self):
        result = run_scenario(get("test-kernel-pref"), workers=4, trials=3)
        assert result.statuses == {"ok": 3}
        # Inline execution: every trial ran in this process, one at a
        # time, with the whole budget pinned for the kernels.
        import os

        assert {row["metrics"]["pid"] for row in result.rows} == {os.getpid()}
        assert [row["metrics"]["kernel_env"] for row in result.rows] == ["4"] * 3

    def test_normal_scenarios_pin_kernels_serial(self):
        result = run_scenario(get("test-kernel-pref"), workers=4, trials=2,
                              kernel_workers=1)
        assert [row["metrics"]["kernel_env"] for row in result.rows] == ["1"] * 2

    def test_rows_bit_identical_across_coordination_modes(self, tmp_path):
        draws = {}
        for key, kwargs in {
            "inline": dict(workers=0),
            "prefer": dict(workers=2),
            "explicit": dict(workers=2, kernel_workers=1),
        }.items():
            result = run_scenario(get("test-kernel-pref"), trials=3, **kwargs)
            draws[key] = [row["metrics"]["draw"] for row in result.rows]
        assert draws["inline"] == draws["prefer"] == draws["explicit"]

    def test_kernel_env_restored_after_trial(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "7")
        run_scenario(get("test-kernel-pref"), workers=2, trials=1)
        assert os.environ["REPRO_KERNEL_WORKERS"] == "7"
        monkeypatch.delenv("REPRO_KERNEL_WORKERS")
        run_scenario(get("test-kernel-pref"), workers=2, trials=1)
        assert "REPRO_KERNEL_WORKERS" not in os.environ
