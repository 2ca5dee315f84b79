"""Tests for the `repro simulate` CLI subcommand."""

import argparse

import pytest

from repro.cli import build_parser, main


def run(capsys, *extra):
    code = main([
        "simulate", "--peers", "30", "--horizon", "200", "--files", "2",
        "--file-size", "4096", "--seed", "5", *extra,
    ])
    return code, capsys.readouterr().out


#: Runnable argument sets, at least one per ``--scheme`` choice.
EVERY_SCHEME = [
    ("replication", []),
    ("erasure", ["-k", "4", "-H", "4"]),
    ("rc", ["-k", "4", "-H", "4", "-d", "5", "-i", "1"]),
    ("rc", ["-k", "4", "-H", "4"]),  # -d defaults to k
    ("pm-mbr", ["-k", "4", "-H", "4", "-d", "6"]),
    ("pm-msr", ["-k", "4", "-H", "4"]),
]


def scheme_choices():
    """The ``choices`` of ``repro simulate --scheme``, read off the parser."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    simulate = subparsers.choices["simulate"]
    return next(
        action.choices for action in simulate._actions if "--scheme" in action.option_strings
    )


class TestSimulate:
    def test_default_rc_run(self, capsys):
        code, out = run(capsys, "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1")
        assert code == 0
        assert "files_restored_ok" in out
        assert "2/2" in out
        assert "repairs_completed" in out

    @pytest.mark.parametrize("scheme,extra", EVERY_SCHEME)
    def test_every_scheme_runs(self, capsys, scheme, extra):
        code, out = run(capsys, "--scheme", scheme, *extra)
        assert code == 0
        assert "2/2" in out

    def test_every_scheme_runs_covers_the_parser_choices(self):
        assert {scheme for scheme, _ in EVERY_SCHEME} == set(scheme_choices())

    def test_lazy_policy(self, capsys):
        code, out = run(
            capsys,
            "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--lazy-threshold", "5",
        )
        assert code == 0
        assert "LazyMaintenance" in out

    def test_transient_churn_flag(self, capsys):
        code, out = run(
            capsys,
            "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--mean-online", "40", "--mean-offline", "8",
        )
        assert code == 0
        # The summary must show disconnects actually happened.
        line = next(l for l in out.splitlines() if "transient_disconnects" in l)
        assert int(line.split()[-1].replace(",", "")) > 0

    def test_save_and_replay_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "churn.json"
        code, _ = run(
            capsys,
            "--scheme", "replication",
            "--save-trace", str(trace_path),
        )
        assert code == 0
        assert trace_path.exists()
        code, out = run(
            capsys,
            "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--trace", str(trace_path),
        )
        assert code == 0
        assert "2/2" in out


class TestBadParameters:
    """Parameters no scheme or policy accepts fail before the simulation
    starts, with one ``error:`` line and exit 1 -- never a traceback."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["-k", "4", "-H", "4", "-d", "2"],
            ["--scheme", "pm-msr", "-k", "4", "-H", "1"],
            ["--scheme", "replication", "-k", "0", "-H", "0"],
            ["--lazy-threshold", "2", "-k", "4"],
            ["--peers", "5"],
        ],
        ids=["rc-d-below-k", "pm-msr-too-few-nodes", "no-replicas",
             "lazy-threshold-below-k", "too-few-peers"],
    )
    def test_one_error_line_and_exit_1(self, capsys, extra):
        code = main(["simulate", "--seed", "5", "--horizon", "50", *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "Traceback" not in captured.err


class TestRestoreLoopExceptionPolicy:
    """Regression for the old ``except Exception: pass`` around the
    restore loop: expected decode failures count as not-restored, while
    genuine defects propagate instead of being eaten."""

    def test_reconstruct_error_counts_as_not_restored(self, capsys, monkeypatch):
        from repro.codes.base import ReconstructError
        from repro.p2p.system import BackupSystem

        def boom(self, file_id):
            raise ReconstructError("churn destroyed too many blocks")

        monkeypatch.setattr(BackupSystem, "restore_file", boom)
        code, out = run(
            capsys, "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1"
        )
        assert code == 2
        assert "0/2" in out

    def test_unexpected_defect_propagates(self, capsys, monkeypatch):
        from repro.p2p.system import BackupSystem

        def boom(self, file_id):
            raise TypeError("genuine bug, must not be swallowed")

        monkeypatch.setattr(BackupSystem, "restore_file", boom)
        with pytest.raises(TypeError):
            run(capsys, "--scheme", "rc", "-k", "4", "-H", "4", "-d", "5", "-i", "1")
