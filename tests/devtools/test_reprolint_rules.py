"""Fixture-driven tests for every reprolint rule family.

Each rule has a ``<code>_bad.py`` fixture that must trip it at known
lines and a ``<code>_good.py`` fixture of near-miss idiomatic code that
must stay clean.  The fixtures live under ``tests/devtools/fixtures``,
which whole-tree lint runs skip (the files are deliberately broken);
these tests pass the paths explicitly, which bypasses the exclusion.
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


def test_rl101_flags_unawaited_coroutines():
    report = lint_fixture("rl101_bad.py")
    assert codes_and_lines(report) == [
        ("RL101", 9),
        ("RL101", 15),
        ("RL101", 19),
        ("RL101", 20),
    ]


def test_rl101_good_fixture_is_clean():
    assert lint_fixture("rl101_good.py").findings == []


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


def test_rl103_flags_network_awaits_under_lock():
    report = lint_fixture("rl103_bad.py")
    assert codes_and_lines(report) == [
        ("RL103", 13),
        ("RL103", 17),
        ("RL103", 21),
    ]


def test_rl103_good_fixture_is_clean():
    assert lint_fixture("rl103_good.py").findings == []


def test_rl104_flags_dropped_task_handles():
    report = lint_fixture("rl104_bad.py")
    assert codes_and_lines(report) == [
        ("RL104", 7),
        ("RL104", 11),
        ("RL104", 12),
    ]


def test_rl104_good_fixture_is_clean():
    assert lint_fixture("rl104_good.py").findings == []


# ---------------------------------------------------------------- RL2xx


def test_rl201_flags_plain_arithmetic_on_gf_values():
    report = lint_fixture("rl201_bad.py")
    assert codes_and_lines(report) == [
        ("RL201", 8),
        ("RL201", 14),
        ("RL201", 20),
        ("RL201", 25),
    ]
    assert "field.add" in report.findings[0].message


def test_rl201_good_fixture_is_clean():
    assert lint_fixture("rl201_good.py").findings == []


def test_rl202_flags_raw_arrays_into_gf_consumers():
    report = lint_fixture("rl202_bad.py")
    assert codes_and_lines(report) == [
        ("RL202", 9),
        ("RL202", 13),
        ("RL202", 17),
    ]


def test_rl202_good_fixture_is_clean():
    assert lint_fixture("rl202_good.py").findings == []


def test_rl2xx_cover_the_batched_kernels():
    """RL201/RL202 must apply to repro.gf.kernels entry points too."""
    report = lint_fixture("rl2xx_kernels_bad.py")
    assert codes_and_lines(report) == [
        ("RL201", 10),
        ("RL202", 14),
    ]


def test_rl2xx_kernels_good_fixture_is_clean():
    assert lint_fixture("rl2xx_kernels_good.py").findings == []


def test_gf_rules_do_not_apply_to_test_code():
    # Tests legitimately build raw arrays to probe edge cases; the
    # GF-domain family is production-code-only.
    report = lint_fixture("rl201_bad.py", "rl202_bad.py", role="test")
    assert report.findings == []


# ---------------------------------------------------------------- RL3xx


def test_protocol_drift_fixture_trips_rl301_and_rl302():
    report = lint_fixture(
        "proto_bad/protocol.py", "proto_bad/server.py", "proto_bad/client.py"
    )
    by_code: dict[str, list] = {}
    for finding in report.findings:
        by_code.setdefault(finding.code, []).append(finding)

    rl301 = sorted((f.line, f.message) for f in by_code["RL301"])
    assert len(rl301) == 2
    assert "MessageType.ORPHAN" in rl301[0][1]
    assert "Fetch is missing from the decode registry" in rl301[1][1]

    rl302 = sorted(f.message for f in by_code["RL302"])
    assert len(rl302) == 2
    assert any("client sends Fetch" in message for message in rl302)
    assert any("dispatches Legacy" in message for message in rl302)


def test_protocol_drift_consistent_project_is_clean():
    report = lint_fixture(
        "proto_good/protocol.py", "proto_good/server.py", "proto_good/client.py"
    )
    assert report.findings == []


def test_protocol_drift_needs_all_three_files():
    # With no server.py/client.py alongside, the drifted protocol module
    # is not a checkable group and must not produce spurious findings.
    report = lint_fixture("proto_bad/protocol.py")
    assert report.findings == []


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


def test_rl402_flags_off_scheme_metric_names():
    report = lint_fixture("rl402_bad.py")
    assert codes_and_lines(report) == [
        ("RL402", 9),
        ("RL402", 10),
        ("RL402", 11),
        ("RL402", 15),
        ("RL402", 16),
    ]
    assert "domain.noun_verb" in report.findings[0].message
    assert "unregistered domain" in report.findings[1].message


def test_rl402_good_fixture_is_clean():
    assert lint_fixture("rl402_good.py").findings == []


def test_obs_rules_do_not_apply_to_test_code():
    # Tests time things however they like and invent metric names for
    # assertions; the obs family is production-code-only.
    report = lint_fixture("rl401_bad.py", "rl402_bad.py", role="test")
    assert report.findings == []


def test_rl303_flags_duplicated_wire_literals():
    report = lint_fixture("rl303_bad.py")
    assert codes_and_lines(report) == [
        ("RL303", 7),
        ("RL303", 12),
        ("RL303", 16),
        ("RL303", 18),
    ]
    assert "PROTOCOL_MAGIC" in report.findings[0].message
    assert "serialization.MAGIC" in report.findings[1].message
    assert "MAX_BODY_BYTES" in report.findings[2].message


def test_rl303_good_fixture_is_clean():
    assert lint_fixture("rl303_good.py").findings == []
