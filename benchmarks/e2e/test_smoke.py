"""Smoke test of the ledger: `pytest benchmarks/e2e` (not part of tier-1).

Runs all four workloads at ``--smoke`` size, timed and traced, and checks
the output against BENCHMARK.json.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
EXACT = (
    "repair_wire_bytes",
    "reconstruct_wire_bytes_per_user_byte",
    "stored_bytes_per_user_byte",
)


def _run(tmp_path, name, *flags) -> dict:
    out = tmp_path / name
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seed", "7", "--work-dir", str(tmp_path / "work"), "--out", str(out), *flags],
        check=True,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    start = time.perf_counter()
    result = _run(tmp_path_factory.mktemp("full"), "full.json")
    result["elapsed"] = time.perf_counter() - start
    return result


def test_all_workloads_finish_within_a_minute(full):
    assert full["elapsed"] < 60
    assert full["claim"] is None
    ran = {(run["workload"], run["mode"]) for run in full["runs"]}
    assert ran == {
        (workload["name"], mode)
        for workload in SPEC["workloads"]
        for mode in ("timed", "traced")
    }


def test_every_declared_metric_is_reported_with_its_unit(full):
    for run in full["runs"]:
        declared = SPEC["end_to_end" if run["mode"] == "timed" else "per_layer"]
        assert run["metrics"].keys() == {metric["name"] for metric in declared}
        for metric in declared:
            reported = run["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
        assert run["why"] and run["environment"]["nproc"]


def test_no_operation_fails(full):
    for run in full["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 3
        assert not run["problems"]
        if run["mode"] == "timed":
            assert run["report_only"]["op_failure_ratio"]["value"] == 0


def test_exact_metrics_repeat_for_one_seed(full, tmp_path):
    again = _run(tmp_path, "again.json", "--trace", "0")
    first = {run["workload"]: run for run in full["runs"] if run["mode"] == "timed"}
    for run in again["runs"]:
        for name in EXACT:
            assert (
                run["metrics"][name]["value"]
                == first[run["workload"]]["metrics"][name]["value"]
            )
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())
