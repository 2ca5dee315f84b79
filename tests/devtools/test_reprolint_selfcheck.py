"""The acceptance gate: reprolint over the real tree must be clean.

This is the test-suite form of ``python -m repro.devtools.lint src
tests examples`` exiting 0 -- any rule regression or new defect in the
codebase fails here before CI even runs the standalone lint step.  The one run
covers every family, the RL5xx flow analysis included: every RL5xx hit
on the tree has been triaged -- real defects were fixed (see
tests/net/), false positives carry a documented ``# reprolint:
disable=`` comment -- so any new finding here is a new defect.
"""

from __future__ import annotations

import pathlib

from repro.devtools.lint import run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_reprolint_is_clean_on_the_real_tree():
    report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"])
    assert [f.render() for f in report.findings] == []
    assert [f.render() for f in report.errors] == []
    assert report.exit_code == 0
    # sanity: the walk actually saw the codebase, not an empty dir, and
    # the flow family ran (the tree's documented RL5xx disables fire).
    assert report.files_checked > 100
    assert any(f.code.startswith("RL5") for f in report.suppressed)


def test_flow_analysis_is_clean_on_the_real_tree():
    """The RL5xx acceptance gate: ``--select RL5 src tests examples`` exits 0.

    A new RL5xx finding here is a new defect, not noise to tolerate.
    The flow pass must also be deterministic: a second run over the
    unchanged tree reports the identical suppressed set.
    """
    paths = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "examples"]
    report = run_lint(paths, select=["RL5"])
    assert [f.render() for f in report.findings] == []
    assert [f.render() for f in report.errors] == []
    assert report.exit_code == 0
    suppressed = [f.render() for f in report.suppressed]
    assert suppressed
    assert all(f.code.startswith("RL5") for f in report.suppressed)

    again = run_lint(paths, select=["RL5"])
    assert [f.render() for f in again.findings] == []
    assert [f.render() for f in again.suppressed] == suppressed
