"""Suppression fixture: violations silenced per line, one left live.

Policy reminder (docs/TESTING.md): disables are for deliberate,
commented exceptions -- pre-existing defects get fixed, not suppressed.
"""


def justified_best_effort(cleanup):
    try:
        cleanup()
    except Exception:  # reprolint: disable=RL102
        pass  # best-effort cleanup in this (contrived) scenario


def multi_code_suppression(cleanup):
    try:
        cleanup()
    except Exception:  # reprolint: disable=RL401,RL102
        pass


def suppress_all(cleanup):
    try:
        cleanup()
    except Exception:  # reprolint: disable=all
        pass


def still_caught(cleanup):
    try:
        cleanup()
    except Exception:  # wrong code: # reprolint: disable=RL401
        pass
