"""Engine mechanics (registry, reports, file collection) and the CLI."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import all_rules, lint_sources
from repro.devtools.lint.cli import main
from repro.devtools.lint.engine import collect_files, json_report

BAD_DETERMINISM = textwrap.dedent(
    """
    import numpy as np
    rng = np.random.default_rng()
    """
)


class TestRegistry:
    def test_rule_catalogue_complete(self):
        codes = {rule.code for rule in all_rules()}
        # One representative per family: determinism, shared memory,
        # ordering.
        assert {"RPL001", "RPL002", "RPL003", "RPL004"} <= codes
        assert "RPL101" in codes
        assert "RPL301" in codes

    def test_fresh_instances_per_run(self):
        a, b = all_rules(), all_rules()
        assert {id(r) for r in a}.isdisjoint({id(r) for r in b})

    def test_select_and_ignore(self):
        pairs = [("src/repro/core/x.py", BAD_DETERMINISM)]
        assert lint_sources(pairs, select=["RPL1"]) == []
        assert lint_sources(pairs, ignore=["RPL003"]) == []
        assert [v.code for v in lint_sources(pairs, select=["RPL003"])] == [
            "RPL003"
        ]


class TestReports:
    def test_violations_sorted_and_counted(self):
        pairs = [
            (
                "src/repro/core/x.py",
                "import random\nimport numpy as np\nr = np.random.default_rng()\n",
            )
        ]
        violations = lint_sources(pairs)
        assert [v.code for v in violations] == ["RPL001", "RPL003"]
        doc = json.loads(json_report(violations, files=1))
        assert doc["tool"] == "repro-lint"
        assert doc["total"] == 2
        assert doc["counts_by_code"] == {"RPL001": 1, "RPL003": 1}
        assert doc["violations"][0]["line"] == 1

    def test_json_report_byte_stable(self):
        violations = lint_sources([("src/repro/core/x.py", BAD_DETERMINISM)])
        assert json_report(violations, 1) == json_report(violations, 1)


class TestCollectFiles:
    def test_skips_pycache_and_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [f.name for f in files] == ["a.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_files(["no/such/dir"])


@pytest.fixture
def fixture_tree(tmp_path):
    lib = tmp_path / "src" / "repro" / "core"
    lib.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (lib / "bad.py").write_text(BAD_DETERMINISM)
    return tmp_path


class TestCli:
    def test_violation_exit_code_and_text(self, fixture_tree, capsys):
        rc = main([str(fixture_tree / "src")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RPL003" in out
        assert "violation" in out

    def test_clean_exit_code(self, fixture_tree, capsys):
        (fixture_tree / "src" / "repro" / "core" / "bad.py").write_text("x = 1\n")
        rc = main([str(fixture_tree / "src")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, fixture_tree, capsys):
        rc = main([str(fixture_tree / "src"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["counts_by_code"] == {"RPL003": 1}

    def test_json_out_artifact(self, fixture_tree, capsys, tmp_path):
        artifact = tmp_path / "repro-lint.json"
        rc = main([str(fixture_tree / "src"), "--json-out", str(artifact)])
        assert rc == 1
        doc = json.loads(artifact.read_text())
        assert doc["total"] == 1
        # Text still goes to stdout alongside the artifact.
        assert "RPL003" in capsys.readouterr().out

    def test_select_filter(self, fixture_tree, capsys):
        rc = main([str(fixture_tree / "src"), "--select", "RPL1"])
        assert rc == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL301" in out

    def test_missing_path_exit_2(self, capsys):
        assert main(["definitely/not/here"]) == 2
        assert "repro-lint" in capsys.readouterr().err

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_module_entry_point(self, fixture_tree):
        """`python -m repro.devtools.lint` is the documented interface."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(fixture_tree / "src")],
            capture_output=True,
            text=True,
            env=_env_with_src(),
        )
        assert proc.returncode == 1
        assert "RPL003" in proc.stdout


def _env_with_src():
    import os

    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = repo_src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
