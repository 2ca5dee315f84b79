"""CLI, suppression, selection, and JSON-report tests for reprolint."""

from __future__ import annotations

import json
import pathlib
import re

from repro.devtools.findings import REPORT_SCHEMA_VERSION
from repro.devtools.lint import collect_files, main, run_lint
from repro.devtools.rules import RULE_CODES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# ------------------------------------------------------------ exit codes


def test_exit_zero_on_clean_file(capsys):
    code = main([str(FIXTURES / "rl102_good.py"), "--force-role", "src"])
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_exit_one_with_rendered_findings(capsys):
    code = main([str(FIXTURES / "rl102_bad.py"), "--force-role", "src"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4
    # the classic path:line:col CODE message shape
    assert lines[0].startswith(f"{FIXTURES / 'rl102_bad.py'}:7:5 RL102 ")


def test_exit_two_without_paths(capsys):
    assert main([]) == 2
    assert "no paths given" in capsys.readouterr().err


def test_exit_two_on_unknown_rule_code(capsys):
    code = main([str(FIXTURES / "rl102_bad.py"), "--select", "RL999"])
    assert code == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_exit_two_on_missing_path(capsys):
    code = main([str(FIXTURES / "does_not_exist")])
    assert code == 2


def test_list_rules_prints_every_code(capsys):
    assert RULE_CODES == {"RL102", "RL401", "RL501", "RL502", "RL503"}
    assert main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == RULE_CODES


def test_testing_doc_names_exactly_the_rule_codes():
    # The "Static analysis" section of docs/TESTING.md is the rule
    # catalogue; retiring or adding a rule must update it.
    doc = (FIXTURES.parents[2] / "docs" / "TESTING.md").read_text(encoding="utf-8")
    section = doc.split("\n## Static analysis\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"\bRL\d{3}\b", section)) == RULE_CODES | {"RL000"}


# ------------------------------------------------------------ suppression


def test_disable_comments_suppress_exact_codes():
    report = run_lint([FIXTURES / "suppressed.py"], force_role="src")
    # three deliberate disables recorded (one code, several codes,
    # ``all``), one live finding where the comment names the wrong code
    assert [f.line for f in report.suppressed] == [11, 18, 25]
    assert all(f.code == "RL102" for f in report.suppressed)
    assert [(f.code, f.line) for f in report.findings] == [("RL102", 32)]


def test_suppressed_findings_still_visible_in_json(capsys):
    code = main(
        [str(FIXTURES / "suppressed.py"), "--force-role", "src", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["suppressed"]) == 3
    assert len(payload["findings"]) == 1


# ------------------------------------------------------------ select/ignore


def test_select_by_family_prefix():
    report = run_lint(
        [FIXTURES / "rl102_bad.py", FIXTURES / "rl401_bad.py"],
        force_role="src",
        select=["RL4"],
    )
    assert {f.code for f in report.findings} == {"RL401"}


def test_ignore_single_code():
    report = run_lint(
        [FIXTURES / "rl102_bad.py"], force_role="src", ignore=["RL102"]
    )
    assert report.findings == []
    assert report.exit_code == 0


# ------------------------------------------------------------ JSON schema


def test_json_report_schema(capsys):
    code = main(
        [str(FIXTURES / "rl102_bad.py"), "--force-role", "src", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "schema_version",
        "files_checked",
        "findings",
        "suppressed",
        "errors",
    }
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert finding["code"] == "RL102"


# ------------------------------------------------------------ parse errors


def test_unparseable_file_reported_as_rl000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    report = run_lint([broken])
    assert report.findings == []
    assert [error.code for error in report.errors] == ["RL000"]
    assert report.exit_code == 1


# ------------------------------------------------------------ file walking


def test_directory_walk_skips_fixture_dir():
    walked = collect_files([FIXTURES.parent])
    assert all("fixtures" not in path.parts for path in walked)


def test_explicit_file_bypasses_exclusions():
    target = FIXTURES / "rl102_bad.py"
    assert collect_files([target]) == [target]


def test_role_inferred_from_path_for_directories():
    # Under tests/ the wall-clock rule is off by default, so its bad
    # fixture linted *without* --force-role stays quiet ...
    report = run_lint([FIXTURES / "rl401_bad.py"])
    assert report.findings == []
    # ... while the asyncio family applies to both roles.
    report = run_lint([FIXTURES / "rl102_bad.py"])
    assert len(report.findings) == 4


# ------------------------------------------------------------------ SARIF


def test_sarif_format_on_stdout(capsys):
    code = main(
        [str(FIXTURES / "rl102_bad.py"), "--force-role", "src", "--format", "sarif"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids == RULE_CODES | {"RL000"}
    results = run["results"]
    assert len(results) == 4
    for result in results:
        assert result["ruleId"] == "RL102"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert "suppressions" not in result


def test_sarif_marks_suppressed_findings_in_source(capsys):
    code = main(
        [str(FIXTURES / "suppressed.py"), "--force-role", "src", "--format", "sarif"]
    )
    assert code == 1
    results = json.loads(capsys.readouterr().out)["runs"][0]["results"]
    suppressed = [r for r in results if "suppressions" in r]
    assert len(suppressed) == 3
    assert all(
        r["suppressions"] == [{"kind": "inSource"}] for r in suppressed
    )


def test_sarif_output_file_alongside_text_format(tmp_path, capsys):
    out = tmp_path / "report.sarif"
    code = main(
        [
            str(FIXTURES / "rl102_bad.py"),
            "--force-role",
            "src",
            "--sarif-output",
            str(out),
        ]
    )
    assert code == 1
    capsys.readouterr()  # text format still went to stdout/stderr
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["version"] == "2.1.0"
    assert len(payload["runs"][0]["results"]) == 4


# ------------------------------------------------------- flow + timing


def test_select_rl5_runs_the_flow_family_via_main(capsys):
    # No flag turns the flow family on: every run runs every family.
    code = main(
        [str(FIXTURES / "rl502_bad.py"), "--force-role", "src",
         "--select", "RL5"]
    )
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[1] for line in lines] == ["RL502"] * 4


def test_time_limit_zero_always_fails(capsys):
    code = main(
        [str(FIXTURES / "rl102_good.py"), "--force-role", "src",
         "--time-limit", "0"]
    )
    assert code == 1
    assert "over the --time-limit budget" in capsys.readouterr().err
