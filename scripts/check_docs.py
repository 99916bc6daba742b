#!/usr/bin/env python3
"""Documentation lint: keep README/examples/docs in sync with the code.

Checks, in order:

1. **Intra-repo links** — every relative markdown link target in the checked
   files exists on disk.
2. **Documented CLI invocations** — every ``python -m repro.cli <cmd> ...``
   line inside a fenced code block names a real subcommand, and every
   ``--flag`` it shows is accepted by that subcommand's argparse definition.
   Each referenced subcommand's ``--help`` is also rendered once, so a broken
   parser fails the docs job too.
3. **CLI docstring audit** — the subcommand set shown in the
   :mod:`repro.cli` module docstring matches the parser exactly (no
   undocumented subcommands, no documented ghosts).
4. **Example scripts** — every ``*.py`` / ``*.toml`` mentioned in
   ``examples/README.md`` exists in ``examples/``.
5. **Environment variables** — every ``AUTOQ_REPRO_*`` variable the docs
   mention exists in the source, and every one the source reads is documented
   somewhere in the checked files.
6. **Markdown references in code** — every ``*.md`` path a Python file under
   ``src/``, ``benchmarks/`` or ``scripts/`` names resolves from the
   repository root or from ``docs/``.

Run from the repository root::

    PYTHONPATH=src python scripts/check_docs.py

Exits non-zero listing every problem found; CI runs this as the ``docs`` job.
The checks are importable (``tests/test_docs.py`` runs them in tier-1).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shlex
import sys
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the markdown files whose links and code blocks are contract, not prose
CHECKED_FILES = (
    "README.md",
    "examples/README.md",
    "docs/api.md",
    "docs/architecture.md",
    "docs/caching.md",
    "docs/distributed.md",
    "docs/fuzzing.md",
    "docs/robustness.md",
    "docs/service.md",
)

_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_PATTERN = re.compile(r"^```")
_CLI_PATTERN = re.compile(r"python -m repro\.cli\s+(.*)$")
_ENV_PATTERN = re.compile(r"AUTOQ_REPRO_[A-Z][A-Z0-9_]*")
_MD_REFERENCE_PATTERN = re.compile(r"[\w./-]*\w\.md\b")

#: the Python trees whose markdown references must name real documents
PYTHON_TREES = ("src", "benchmarks", "scripts")


def _read(path: str) -> str:
    with open(os.path.join(REPO_ROOT, path), "r", encoding="utf-8") as handle:
        return handle.read()


def check_links(paths=CHECKED_FILES) -> List[str]:
    """Relative link targets that do not exist, as ``file: target`` strings."""
    problems = []
    for path in paths:
        base = os.path.dirname(os.path.join(REPO_ROOT, path))
        for target in _LINK_PATTERN.findall(_read(path)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            if not os.path.exists(os.path.normpath(os.path.join(base, target_path))):
                problems.append(f"{path}: broken link -> {target}")
    return problems


def _code_block_lines(text: str) -> List[str]:
    lines, in_block, continuation = [], False, ""
    for line in text.splitlines():
        if _FENCE_PATTERN.match(line.strip()):
            # a continuation dangling at a fence belongs to the closing block:
            # flush it so the (malformed but present) command is still checked
            if continuation:
                lines.append(continuation)
                continuation = ""
            in_block = not in_block
            continue
        if not in_block:
            continue
        stripped = (continuation + " " + line.strip()).strip() if continuation else line.strip()
        if stripped.endswith("\\"):
            # shell line continuation: join with the following line(s)
            continuation = stripped[:-1].strip()
            continue
        continuation = ""
        lines.append(stripped)
    return lines


def _subcommand_parsers() -> Dict[str, argparse.ArgumentParser]:
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse has no public API for this
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            return dict(action.choices)
    raise AssertionError("repro.cli.build_parser() has no subparsers")


def check_cli_invocations(paths=CHECKED_FILES) -> List[str]:
    """Documented ``repro.cli`` lines whose subcommand or flags don't parse."""
    subparsers = _subcommand_parsers()
    problems = []
    rendered_help = set()
    for path in paths:
        for line in _code_block_lines(_read(path)):
            match = _CLI_PATTERN.search(line)
            if not match:
                continue
            try:
                tokens = shlex.split(match.group(1))
            except ValueError as error:
                problems.append(f"{path}: unparseable command {line!r} ({error})")
                continue
            if not tokens:
                continue
            command = tokens[0]
            if command == "..." or command.startswith("<"):
                continue  # illustrative placeholder, not a real invocation
            if command not in subparsers:
                problems.append(
                    f"{path}: unknown subcommand {command!r} in {line!r} "
                    f"(known: {sorted(subparsers)})"
                )
                continue
            accepted = subparsers[command]._option_string_actions  # noqa: SLF001
            for token in tokens[1:]:
                if token.startswith("--"):
                    flag = token.split("=", 1)[0]
                    if flag not in accepted:
                        problems.append(
                            f"{path}: subcommand {command!r} does not accept {flag!r} "
                            f"(documented in {line!r})"
                        )
            if command not in rendered_help:
                rendered_help.add(command)
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        subparsers[command].parse_args(["--help"])
                    except SystemExit as exit_info:
                        if exit_info.code not in (0, None):
                            problems.append(f"--help of {command!r} exited {exit_info.code}")
    return problems


def check_cli_docstring() -> List[str]:
    """The ``repro.cli`` module docstring must list exactly the real subcommands."""
    import repro.cli as cli_module

    documented = set(re.findall(r"autoq-repro\s+([a-z][a-z-]*)", cli_module.__doc__ or ""))
    actual = set(_subcommand_parsers())
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"repro/cli.py docstring: subcommand {name!r} is undocumented")
    for name in sorted(documented - actual):
        problems.append(f"repro/cli.py docstring: documents nonexistent subcommand {name!r}")
    return problems


def check_example_files() -> List[str]:
    """Every example artifact named in examples/README.md must exist."""
    text = _read("examples/README.md")
    problems = []
    for name in set(re.findall(r"`([\w./-]+\.(?:py|toml))`", text)):
        candidate = name if "/" in name else os.path.join("examples", name)
        if not os.path.exists(os.path.join(REPO_ROOT, candidate)):
            problems.append(f"examples/README.md: mentions missing file {name!r}")
    return problems


def _python_files(trees) -> List[str]:
    """Repo-relative paths of the ``*.py`` files under ``trees``, sorted."""
    paths = []
    for tree in trees:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, tree)):
            paths.extend(os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)
                         for name in filenames if name.endswith(".py"))
    return sorted(paths)


def check_md_references(trees=PYTHON_TREES) -> List[str]:
    """``*.md`` paths named in Python files that resolve neither from the
    repository root nor from ``docs/``, as ``file:line: path`` strings."""
    problems = []
    for path in _python_files(trees):
        for number, line in enumerate(_read(path).splitlines(), 1):
            for reference in _MD_REFERENCE_PATTERN.findall(line):
                if not any(os.path.exists(os.path.join(REPO_ROOT, base, reference))
                           for base in ("", "docs")):
                    problems.append(f"{path}:{number}: names missing document {reference!r}")
    return problems


def _source_env_vars() -> set:
    """Every ``AUTOQ_REPRO_*`` name that appears in a Python file under src/."""
    names = set()
    for path in _python_files(("src",)):
        names.update(_ENV_PATTERN.findall(_read(path)))
    return names


def check_env_vars(paths=CHECKED_FILES) -> List[str]:
    """Documented env vars must exist in src/, and source env vars must be documented."""
    source = _source_env_vars()
    documented = set()
    problems = []
    for path in paths:
        for name in sorted(set(_ENV_PATTERN.findall(_read(path)))):
            documented.add(name)
            if name not in source:
                problems.append(
                    f"{path}: documents env var {name!r}, which no file under src/ reads"
                )
    for name in sorted(source - documented):
        problems.append(
            f"src/: env var {name!r} is read by the code but documented in none of "
            f"{', '.join(paths)}"
        )
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_cli_invocations()
        + check_cli_docstring()
        + check_example_files()
        + check_env_vars()
        + check_md_references()
    )
    for problem in problems:
        print(f"DOCS: {problem}", file=sys.stderr)
    if problems:
        print(f"docs check failed: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
