"""Fixture-driven tests for the RL5xx flow rules.

Same contract as ``test_reprolint_rules.py``: each rule has a
``<code>_bad.py`` fixture that must trip at pinned lines and a
``<code>_good.py`` near-miss fixture that must stay clean.  The flow
family runs only on production code.
"""

from __future__ import annotations

import pathlib

from repro.devtools.lint import run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint_flow(*names: str, role: str = "src"):
    report = run_lint(
        [FIXTURES / name for name in names],
        force_role=role,
        select=["RL5"],
    )
    assert not report.errors, [error.render() for error in report.errors]
    return report


def codes_and_lines(report) -> list[tuple[str, int]]:
    return [(finding.code, finding.line) for finding in report.findings]


# ---------------------------------------------------------------- RL501


def test_rl501_flags_torn_read_modify_write():
    report = lint_flow("rl501_bad.py")
    assert codes_and_lines(report) == [("RL501", 15), ("RL501", 21)]
    assert "`self._count`" in report.findings[0].message
    assert "torn read-modify-write" in report.findings[0].message


def test_rl501_good_fixture_is_clean():
    assert lint_flow("rl501_good.py").findings == []


# ---------------------------------------------------------------- RL502


def test_rl502_flags_direct_blocking_calls():
    report = lint_flow("rl502_bad.py")
    assert codes_and_lines(report) == [
        ("RL502", 10),
        ("RL502", 13),
        ("RL502", 16),
        ("RL502", 19),
    ]
    messages = [finding.message for finding in report.findings]
    assert "time.sleep()" in messages[0]
    assert "hashlib.sha256()" in messages[1]
    assert "shutil.rmtree()" in messages[2]
    assert "synchronous file I/O" in messages[3]


def test_rl502_good_fixture_is_clean():
    assert lint_flow("rl502_good.py").findings == []


def test_rl502_chain_crosses_modules():
    report = lint_flow("rl502_chain_entry.py", "rl502_chain_helper.py")
    assert codes_and_lines(report) == [("RL502", 7)]
    message = report.findings[0].message
    assert "drive -> settle -> nap" in message
    assert report.findings[0].path.endswith("rl502_chain_entry.py")


# ---------------------------------------------------------------- RL503


def test_rl503_flags_leak_paths():
    report = lint_flow("rl503_bad.py")
    assert codes_and_lines(report) == [("RL503", 8), ("RL503", 15)]
    assert "`writer`" in report.findings[0].message
    assert "`conn`" in report.findings[1].message


def test_rl503_good_fixture_is_clean():
    # finally-based release, ownership transfer, and release-on-all-paths
    # are exactly the remediations the finding message recommends; they
    # must not re-flag.
    assert lint_flow("rl503_good.py").findings == []


# ------------------------------------------------------------- gating


def test_flow_family_skips_test_role():
    # Test code blocks, tears, and leaks on purpose.
    assert lint_flow("rl502_bad.py", role="test").findings == []


def test_suppression_comments_apply_to_flow_findings(tmp_path):
    source = (FIXTURES / "rl502_bad.py").read_text(encoding="utf-8")
    patched = source.replace(
        "time.sleep(0.1)  # line 10",
        "time.sleep(0.1)  # reprolint: disable=RL502",
    )
    target = tmp_path / "patched.py"
    target.write_text(patched, encoding="utf-8")
    report = run_lint([target], force_role="src", select=["RL5"])
    assert [finding.line for finding in report.suppressed] == [10]
    assert [finding.line for finding in report.findings] == [13, 16, 19]
