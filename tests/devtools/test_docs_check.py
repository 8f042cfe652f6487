"""Tests for the markdown documentation checker."""

from pathlib import Path

from repro.devtools.docs_check import (
    check_links,
    check_readme_package_coverage,
    doc_files,
    extract_links,
    find_repo_root,
    main,
    run_checks,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_repo(tmp_path, readme="# Demo\n\nSee [arch](docs/ARCH.md).\n"):
    """Minimal checkout: README + one package + one docs page."""
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "src" / "repro" / "core" / "__init__.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCH.md").write_text("# Arch\n")
    (tmp_path / "README.md").write_text(readme + "\nThe core package.\n")
    return tmp_path


class TestExtractLinks:
    def test_inline_links_with_lines(self):
        text = "intro\n[a](x.md) and [b](y.md#sec)\n![img](pic.png)\n"
        assert list(extract_links(text)) == [
            (2, "x.md"),
            (2, "y.md#sec"),
            (3, "pic.png"),
        ]

    def test_fenced_code_blocks_are_skipped(self):
        text = "```python\nrow[a](b)\n[fake](nope.md)\n```\n[real](yes.md)\n"
        assert list(extract_links(text)) == [(5, "yes.md")]

    def test_inline_code_spans_are_skipped(self):
        text = "use `[i](j)` indexing, then read [docs](d.md)\n"
        assert list(extract_links(text)) == [(1, "d.md")]


class TestLinkCheck:
    def test_good_repo_is_clean(self, tmp_path):
        root = make_repo(tmp_path)
        assert run_checks(root) == []

    def test_broken_relative_link_is_found(self, tmp_path):
        root = make_repo(tmp_path, readme="See [gone](docs/MISSING.md).\n")
        findings = check_links(root, doc_files(root))
        assert len(findings) == 1
        assert findings[0].path == "README.md"
        assert "docs/MISSING.md" in findings[0].message

    def test_links_resolve_relative_to_their_file(self, tmp_path):
        root = make_repo(tmp_path)
        (root / "docs" / "ARCH.md").write_text("Back to [readme](../README.md).\n")
        assert check_links(root, doc_files(root)) == []

    def test_anchor_and_external_links_are_skipped(self, tmp_path):
        root = make_repo(
            tmp_path,
            readme=(
                "[web](https://example.com) [mail](mailto:a@b.c)\n"
                "[frag](#section) [with-anchor](docs/ARCH.md#top)\n"
            ),
        )
        assert check_links(root, doc_files(root)) == []

    def test_directory_targets_count_as_resolved(self, tmp_path):
        root = make_repo(tmp_path, readme="The [src tree](src/repro).\n")
        assert check_links(root, doc_files(root)) == []

    def test_issue_md_is_not_part_of_the_doc_set(self, tmp_path):
        root = make_repo(tmp_path)
        (root / "ISSUE.md").write_text("[future work](does/not/exist.md)\n")
        assert root / "ISSUE.md" not in doc_files(root)
        assert run_checks(root) == []


class TestReadmeCoverage:
    def test_unmentioned_package_is_found(self, tmp_path):
        root = make_repo(tmp_path)
        pkg = root / "src" / "repro" / "newpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        findings = check_readme_package_coverage(root)
        assert [f.message for f in findings] == [
            "package src/repro/newpkg is not mentioned in README.md"
        ]

    def test_mention_must_be_a_whole_word(self, tmp_path):
        root = make_repo(tmp_path)
        pkg = root / "src" / "repro" / "obs"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (root / "README.md").write_text("observability core\n")
        # "observability" does not count as mentioning the obs package.
        names = {f.message for f in check_readme_package_coverage(root)}
        assert any("obs" in m for m in names)

    def test_non_package_dirs_are_ignored(self, tmp_path):
        root = make_repo(tmp_path)
        (root / "src" / "repro" / "__pycache__").mkdir()
        assert check_readme_package_coverage(root) == []


class TestCli:
    def test_clean_repo_exits_zero(self, tmp_path, capsys):
        root = make_repo(tmp_path)
        assert main([str(root)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_repo(tmp_path, readme="[x](missing.md)\n")
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "README.md:1" in out and "missing.md" in out

    def test_no_repo_root_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert "no repo root" in capsys.readouterr().err

    def test_root_discovery_walks_up(self, tmp_path):
        root = make_repo(tmp_path)
        assert find_repo_root(root / "docs") == root
        assert find_repo_root(Path("/")) is None


class TestRealRepo:
    def test_this_repo_is_clean(self):
        # The actual checkout must pass its own docs check: every
        # relative link resolves and README covers all packages.
        assert run_checks(REPO_ROOT) == []

    def test_doc_set_includes_the_core_documents(self):
        names = {p.relative_to(REPO_ROOT).as_posix() for p in doc_files(REPO_ROOT)}
        assert "README.md" in names
        assert "docs/ARCHITECTURE.md" in names
        assert "src/repro/exp/README.md" in names
        assert "ISSUE.md" not in names
