"""SARIF 2.1.0 emission for reprolint reports.

One run, one tool (``reprolint``), rules populated from the registry's
rule table so viewers can show per-rule help.  Live findings become
plain results; suppressed findings become results with an ``inSource``
suppression (the ``# reprolint: disable=`` comment).
Parse errors map to rule ``RL000`` at level ``error``.

The schema reference:
https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html
"""

from __future__ import annotations

import pathlib

from repro.devtools.findings import Finding, LintReport
from repro.devtools.rules import rule_table

__all__ = ["to_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _uri(path: str) -> str:
    return pathlib.PurePath(path).as_posix()


def _result(finding: Finding, suppressions: list | None = None) -> dict:
    result = {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _uri(finding.path),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }
    if suppressions is not None:
        result["suppressions"] = suppressions
    return result


def to_sarif(report: LintReport) -> dict:
    rules = [
        {
            "id": code,
            "name": name,
            "shortDescription": {"text": description},
        }
        for code, name, description in rule_table()
    ]
    rules.append(
        {
            "id": "RL000",
            "name": "parse-error",
            "shortDescription": {"text": "file could not be parsed"},
        }
    )
    results = [_result(finding) for finding in sorted(report.findings)]
    results += [_result(finding) for finding in sorted(report.errors)]
    results += [
        _result(finding, suppressions=[{"kind": "inSource"}])
        for finding in sorted(report.suppressed)
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
