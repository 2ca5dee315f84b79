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


def lint_flow(*names: str, role: str = "src", select=("RL5",)):
    report = run_lint(
        [FIXTURES / name for name in names],
        force_role=role,
        select=list(select),
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


def test_rl501_flags_the_windows_seen_in_history():
    # A daemon's start/stop at early commits and the benchmark harness's
    # cycle: straight-line read -> await -> write.
    report = lint_flow("rl501_shapes_bad.py", select=["RL501"])
    history = [finding for finding in report.findings if finding.line <= 43]
    assert [(finding.line, finding.message.split("`")[1]) for finding in history] == [
        (17, "self._server"),
        (20, "self.port"),
        (27, "self._server"),
        (43, "self._spares"),
    ]


def test_rl501_lock_context_comes_from_async_with():
    # Nested lock blocks and a semaphore cover (rl501_good.py); a context
    # manager that is no lock covers nothing.
    assert lint_flow("rl501_good.py").findings == []
    report = lint_flow("rl501_shapes_bad.py", select=["RL501"])
    by_line = {finding.line: finding.message for finding in report.findings}
    assert "`non_lock_context`" in by_line[57]


def test_rl501_follows_branches_loops_and_handlers():
    # A read on one branch and an await on the other never meet
    # (rl501_good.py); a read carried round a loop, or into a handler,
    # meets the await that comes first.
    report = lint_flow("rl501_shapes_bad.py", select=["RL501"])
    assert codes_and_lines(report)[-2:] == [("RL501", 63), ("RL501", 71)]


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


def test_rl502_chain_five_hops_deep():
    report = lint_flow("rl502_deep_chain.py")
    assert codes_and_lines(report) == [("RL502", 12)]
    assert (
        "Daemon.handle_connection -> Daemon._timed_dispatch -> Daemon._dispatch "
        "-> Daemon._store_piece -> BlockStore.put -> digest_bytes"
    ) in report.findings[0].message


def test_rl502_unresolved_receiver_resolves_to_nothing():
    # ``hashlib.sha256(data).digest()`` must not land on the project's
    # ``BlockStore.digest``: only the hashing itself is reported.
    report = lint_flow("rl502_unresolved_receiver.py")
    assert codes_and_lines(report) == [("RL502", 19)]
    assert "hashlib.sha256()" in report.findings[0].message


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


def test_rl503_flags_the_leaks_seen_in_history():
    # A pool's acquire with a raising call before the hand-off, and the
    # benchmark harness's setup loop that closes only on a failed start.
    report = lint_flow("rl503_shapes_bad.py")
    assert codes_and_lines(report)[:2] == [("RL503", 18), ("RL503", 39)]
    assert "`writer`" in report.findings[0].message
    assert "`session.start()`" in report.findings[1].message


def test_rl503_follows_exception_edges_and_loop_exits():
    # A typed handler lets other exceptions leave holding the resource, a
    # break skips a release in the loop's else; a catch-all handler and a
    # release after the loop are clean (rl503_good.py).
    report = lint_flow("rl503_shapes_bad.py")
    assert codes_and_lines(report)[2:] == [("RL503", 50), ("RL503", 60)]
    assert lint_flow("rl503_good.py").findings == []


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
