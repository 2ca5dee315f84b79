"""Fixture-driven tests for the per-file reprolint rules (RL1xx, RL4xx).

Each rule has a ``<code>_bad.py`` fixture that must trip it at known
lines and a ``<code>_good.py`` fixture of near-miss idiomatic code that
must stay clean.  The fixtures live under ``tests/devtools/fixtures``,
which whole-tree lint runs skip (the files are deliberately broken);
these tests pass the paths explicitly, which bypasses the exclusion.
The RL5xx flow family has its own tests in ``test_flow_rules.py``.
"""

from __future__ import annotations

import pathlib

from repro.devtools.lint import run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint_fixture(*names: str, role: str = "src"):
    report = run_lint([FIXTURES / name for name in names], force_role=role)
    assert not report.errors, [error.render() for error in report.errors]
    return report


def codes_and_lines(report) -> list[tuple[str, int]]:
    return [(finding.code, finding.line) for finding in report.findings]


# ---------------------------------------------------------------- RL1xx


def test_rl102_flags_swallowing_handlers():
    report = lint_fixture("rl102_bad.py")
    assert codes_and_lines(report) == [
        ("RL102", 7),
        ("RL102", 14),
        ("RL102", 21),
        ("RL102", 28),
    ]


def test_rl102_good_fixture_is_clean():
    assert lint_fixture("rl102_good.py").findings == []


# ---------------------------------------------------------------- RL4xx


def test_rl401_flags_wall_clock_latencies():
    report = lint_fixture("rl401_bad.py")
    assert codes_and_lines(report) == [
        ("RL401", 9),
        ("RL401", 16),
        ("RL401", 21),
    ]
    assert "now_ns" in report.findings[0].message


def test_rl401_good_fixture_is_clean():
    assert lint_fixture("rl401_good.py").findings == []


def test_obs_rules_do_not_apply_to_test_code():
    # Tests time things however they like; the obs family is
    # production-code-only.
    report = lint_fixture("rl401_bad.py", role="test")
    assert report.findings == []
