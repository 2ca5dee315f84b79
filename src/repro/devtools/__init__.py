"""Project-aware developer tooling.

The one tool that lives here today is **reprolint**
(:mod:`repro.devtools.lint`): an AST-based linter whose rules encode the
invariants generic linters cannot know about this codebase --

- **RL1xx (asyncio)**: the networked subsystem is a concurrent asyncio
  daemon/client/pool stack, so a broad handler that swallows
  cancellation is a bug class that survives unit tests and surfaces
  only under chaos load;
- **RL4xx (observability)**: durations come from the monotonic
  nanosecond clock, never from wall-clock subtraction;
- **RL5xx (flow)**: per-function statement walks and a call graph over
  the asyncio stack -- torn read-modify-write across an await, blocking
  work reachable from a coroutine, and resource leak paths.

Run it with ``python -m repro.devtools.lint src tests`` (see
``docs/TESTING.md``, "Static analysis").  The imports here are lazy so
``python -m repro.devtools.lint`` does not import the module twice.
"""

from __future__ import annotations

__all__ = ["Finding", "LintReport", "run_lint"]


def __getattr__(name: str):
    if name in ("Finding", "LintReport"):
        from repro.devtools import findings

        return getattr(findings, name)
    if name == "run_lint":
        from repro.devtools.lint import run_lint

        return run_lint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
