"""Documentation-drift tests: run the docs lint inside tier-1.

The same checks run as the CI ``docs`` job (``scripts/check_docs.py``); having
them here means a PR that renames a CLI flag or deletes an example cannot pass
the test suite while its documentation still shows the old world.
"""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts", "check_docs.py")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_intra_repo_links_resolve(check_docs):
    assert check_docs.check_links() == []


def test_documented_cli_invocations_parse(check_docs):
    assert check_docs.check_cli_invocations() == []


def test_cli_docstring_matches_parser(check_docs):
    assert check_docs.check_cli_docstring() == []


def test_documented_example_files_exist(check_docs):
    assert check_docs.check_example_files() == []


def test_checker_detects_a_broken_link(check_docs, tmp_path, monkeypatch):
    # guard the guard: a fabricated broken doc must actually fail
    bad = tmp_path / "bad.md"
    bad.write_text("[gone](does/not/exist.md)\n\n```sh\npython -m repro.cli frobnicate --x\n```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_links(paths=("bad.md",))
    problems += check_docs.check_cli_invocations(paths=("bad.md",))
    assert any("broken link" in problem for problem in problems)
    assert any("unknown subcommand" in problem for problem in problems)


def test_documented_env_vars_exist_in_source(check_docs):
    assert check_docs.check_env_vars() == []


def test_env_var_checker_detects_drift(check_docs, tmp_path, monkeypatch):
    # guard the guard: a doc naming a ghost env var must fail ...
    bad = tmp_path / "bad.md"
    bad.write_text("Set `$AUTOQ_REPRO_NONEXISTENT_KNOB` to tune nothing.\n")
    (tmp_path / "src").mkdir()
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    problems = check_docs.check_env_vars(paths=("bad.md",))
    assert any("AUTOQ_REPRO_NONEXISTENT_KNOB" in problem for problem in problems)
    # ... and a source env var documented nowhere must fail too
    (tmp_path / "src" / "mod.py").write_text('DIR = os.environ.get("AUTOQ_REPRO_SECRET_DIR")\n')
    (tmp_path / "empty.md").write_text("no env vars here\n")
    problems = check_docs.check_env_vars(paths=("empty.md",))
    assert any("AUTOQ_REPRO_SECRET_DIR" in problem for problem in problems)


def test_markdown_references_in_code_resolve(check_docs):
    assert check_docs.check_md_references() == []


def test_md_reference_checker_detects_a_missing_document(check_docs, tmp_path, monkeypatch):
    # guard the guard: a module under src/, benchmarks/ or scripts/ naming a
    # document that exists nowhere must fail, while paths that resolve from
    # the root or from docs/ pass; tests/ stays out of the scan, because its
    # guard fixtures (this one included) name missing documents on purpose
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# guide\n")
    (tmp_path / "NOTES.md").write_text("# notes\n")
    for tree in ("src", "benchmarks", "scripts", "tests"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "mod.py").write_text(
            '"""See guide.md, docs/guide.md, NOTES.md and GONE.md."""\n')
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    assert check_docs.check_md_references() == [
        f"{tree}/mod.py:1: names missing document 'GONE.md'"
        for tree in ("benchmarks", "scripts", "src")]
