"""reprolint: the project-aware static analyzer, engine and CLI.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python -m repro.devtools.lint src tests
    python -m repro.devtools.lint src tests --format json
    python -m repro.devtools.lint --list-rules

Exit codes: 0 clean, 1 findings (or unparseable files), 2 usage error.

Every run runs every rule family, the RL5xx flow rules (statement
walks and a call graph, see ``docs/DEVTOOLS.md``) included;
``--select``/``--ignore`` narrow the codes.  ``--format sarif`` /
``--sarif-output PATH`` emit SARIF 2.1.0 for CI annotation;
``--time-limit SECONDS`` fails the run when the whole pass exceeds the
budget.

Suppression is the only way to tolerate a finding: append
``# reprolint: disable=RL102`` (comma-separate for several codes,
``disable=all`` for everything) to the offending line, with a comment
saying why.  Suppressed findings still appear in the JSON report under
``"suppressed"`` so they can be audited; the policy in
``docs/TESTING.md`` is that *pre-existing defects are fixed, not
suppressed* -- disables are for deliberate, commented exceptions only.

Roles: files under a directory named ``tests`` are linted as test code,
everything else as production code; some rules (the wall-clock and
flow families) only apply to production code, where tests legitimately
time with the wall clock, block and leak on purpose.
``--force-role`` overrides the detection (the fixture suite uses it).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import pathlib
import re
import sys
import time
from typing import Iterable, Sequence

from repro.devtools.findings import Finding, LintReport
from repro.devtools.rules import ALL_RULES, RULE_CODES, ProjectRule, rule_table
from repro.devtools.sarif import to_sarif

__all__ = ["FileContext", "run_lint", "main"]

#: Directory names never descended into when a *directory* is scanned.
#: Files named explicitly on the command line are always linted, which
#: is how the fixture suite lints `tests/devtools/fixtures/` content
#: that this default exclusion hides from whole-tree runs.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", "build", "dist", "fixtures"}
)

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclasses.dataclass
class FileContext:
    """One parsed source file as the rules see it."""

    path: pathlib.Path
    role: str  # "src" | "test"
    source: str
    tree: ast.AST
    #: line number -> set of suppressed codes ({"ALL"} suppresses all).
    suppressions: dict


def _parse_suppressions(source: str) -> dict:
    suppressions: dict = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        }
        suppressions[number] = codes
    return suppressions


def _role_of(path: pathlib.Path) -> str:
    return "test" if "tests" in path.parts else "src"


def collect_files(
    paths: Sequence[str | pathlib.Path],
    excluded_dirs: frozenset = DEFAULT_EXCLUDED_DIRS,
) -> list[pathlib.Path]:
    """Expand files and directories into the list of files to lint."""
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in excluded_dirs for part in candidate.parts):
                    continue
                if candidate not in seen:
                    seen.add(candidate)
                    files.append(candidate)
        elif path.suffix == ".py":
            if path not in seen:
                seen.add(path)
                files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


def _load(path: pathlib.Path, role: str) -> FileContext | Finding:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return Finding(
            path=str(path), line=1, col=1, code="RL000", message=f"cannot parse: {exc}"
        )
    return FileContext(
        path=path,
        role=role,
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


def _wanted(code: str, select: set | None, ignore: set) -> bool:
    if code in ignore or any(code.startswith(prefix) for prefix in ignore):
        return False
    if select is None:
        return True
    return code in select or any(code.startswith(prefix) for prefix in select)


def run_lint(
    paths: Sequence[str | pathlib.Path],
    force_role: str | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] = (),
) -> LintReport:
    """Lint ``paths`` (files and/or directories) and return the report.

    ``select``/``ignore`` take full codes or prefixes (``RL5`` matches
    the whole flow family); a rule none of whose codes is wanted is
    not run.  ``force_role`` pins every file to one role instead of
    inferring test-ness from the path.
    """
    select_set = {code.upper() for code in select} if select is not None else None
    ignore_set = {code.upper() for code in ignore}
    report = LintReport()
    contexts: list[FileContext] = []
    for path in collect_files(paths):
        role = force_role if force_role is not None else _role_of(path)
        loaded = _load(path, role)
        if isinstance(loaded, Finding):
            report.errors.append(loaded)
            continue
        contexts.append(loaded)
    report.files_checked = len(contexts)

    raw: list[tuple[Finding, FileContext]] = []
    by_path = {str(ctx.path): ctx for ctx in contexts}
    for rule in ALL_RULES:
        if not any(_wanted(code, select_set, ignore_set) for code in rule.codes):
            continue
        if isinstance(rule, ProjectRule):
            eligible = [ctx for ctx in contexts if ctx.role in rule.roles]
            for finding in rule.check_project(eligible):
                raw.append((finding, by_path[finding.path]))
        else:
            for ctx in contexts:
                if ctx.role not in rule.roles:
                    continue
                for finding in rule.check(ctx):
                    raw.append((finding, ctx))

    for finding, ctx in raw:
        if not _wanted(finding.code, select_set, ignore_set):
            continue
        codes_here = ctx.suppressions.get(finding.line, set())
        if "ALL" in codes_here or finding.code in codes_here:
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    report.findings.sort()
    report.suppressed.sort()
    report.errors.sort()
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="reprolint: project-aware static analysis "
        "(asyncio, observability and flow rules)",
    )
    parser.add_argument("paths", nargs="*", default=(), help="files or directories")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--sarif-output",
        default=None,
        metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (any --format)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if the whole run takes longer than this",
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated codes/prefixes to run"
    )
    parser.add_argument(
        "--ignore", default="", help="comma-separated codes/prefixes to skip"
    )
    parser.add_argument(
        "--force-role",
        choices=("src", "test"),
        default=None,
        help="lint every file as this role instead of inferring from the path",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, name, description in rule_table():
            print(f"{code}  {name:28s} {description}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: src tests)", file=sys.stderr)
        return 2

    def split(raw: str) -> list[str]:
        return [token.strip() for token in raw.split(",") if token.strip()]

    unknown = [
        code
        for code in split(args.select or "") + split(args.ignore)
        if not any(known.startswith(code.upper()) for known in RULE_CODES)
    ]
    if unknown:
        print(f"error: unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = run_lint(
            args.paths,
            force_role=args.force_role,
            select=split(args.select) if args.select is not None else None,
            ignore=split(args.ignore),
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.sarif_output is not None:
        pathlib.Path(args.sarif_output).write_text(
            json.dumps(to_sarif(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    if args.fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.fmt == "sarif":
        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
    else:
        for finding in report.errors + report.findings:
            print(finding.render())
        summary = (
            f"reprolint: {len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.errors)} unparseable, "
            f"{report.files_checked} file(s) checked in {elapsed:.2f}s"
        )
        print(summary, file=sys.stderr)

    if args.time_limit is not None and elapsed > args.time_limit:
        print(
            f"error: lint run took {elapsed:.2f}s, over the "
            f"--time-limit budget of {args.time_limit:.2f}s",
            file=sys.stderr,
        )
        return 1
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
