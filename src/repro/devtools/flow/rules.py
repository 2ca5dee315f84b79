"""The RL5xx flow rule: glue between the engine and the flow analyses.

One :class:`~repro.devtools.rules.base.ProjectRule` owns the whole
family -- the per-file passes share CFG construction and the
interprocedural pass needs every file's summary, so splitting into three
rule objects would re-analyze the tree three times.  ``--select RL503``
still works: the engine filters by code after emission.

Production-code only (``roles={"src"}``): test code blocks, tears state,
and leaks on purpose -- a test that calls ``time.sleep`` in a stub
daemon is exercising timeouts, not shipping a stalled event loop.
"""

from __future__ import annotations

from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.flow.callgraph import CallGraph
from repro.devtools.flow.summaries import analyze_file
from repro.devtools.rules.base import ProjectRule

__all__ = ["FlowRule"]


class FlowRule(ProjectRule):
    code = "RL501"
    name = "flow-async"
    description = (
        "flow-sensitive async analysis: torn read-modify-write, blocking "
        "reachability, resource leak paths"
    )
    codes = ("RL501", "RL502", "RL503")
    code_descriptions = {
        "RL501": "shared self-attribute read-modify-write torn across an "
        "await without a covering lock",
        "RL502": "blocking call (sleep, sync I/O, subprocess, hashlib, GF "
        "kernels) reachable from async context",
        "RL503": "acquired resource with a path to function exit that "
        "skips release",
    }
    roles = frozenset({"src"})

    def check_project(self, ctxs) -> Iterator[Finding]:
        infos = [analyze_file(ctx) for ctx in ctxs]
        for info in infos:
            yield from info.local_findings

        for info, line, col, message in CallGraph(infos).iter_rl502():
            yield Finding(
                path=info.path, line=line, col=col, code="RL502", message=message
            )
