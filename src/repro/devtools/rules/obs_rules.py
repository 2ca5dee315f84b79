"""RL4xx: the observability rule.

The obs layer only stays trustworthy if every duration comes from the
monotonic high-resolution clock (``repro.obs.now_ns``, backed by
``perf_counter_ns``).  **RL401** flags latency arithmetic on
``time.time()`` / ``time.monotonic()`` values: wall-clock differences
jump under NTP steps, and float seconds lose nanosecond resolution
exactly where handler latencies live; ``now_ns()`` has neither problem.
Metric names need no lint rule: ``repro.obs.registry`` validates each
one when its instrument is created.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules.base import (
    Rule,
    iter_scope_nodes,
    iter_scopes,
    terminal_name,
)
from repro.devtools.tables import WALL_CLOCK_FUNCTIONS

__all__ = ["WallClockLatencyRule"]


def _is_wall_clock_call(node: ast.AST) -> str | None:
    """``time.time()`` / ``time.monotonic()`` -> the attribute name."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in WALL_CLOCK_FUNCTIONS
        and terminal_name(func.value) == "time"
    ):
        return func.attr
    return None


class WallClockLatencyRule(Rule):
    """RL401: a latency computed by subtracting wall-clock timestamps.

    The taint is scope-local: a name assigned from
    ``time.time()``/``time.monotonic()`` used on either side of ``-``
    (or ``-=``), or a direct wall-clock call inside the subtraction.
    Plain timestamping (logging an epoch second, scheduling) never
    subtracts and stays legal.
    """

    code = "RL401"
    name = "wall-clock-latency"
    description = (
        "latency computed from time.time()/time.monotonic(); "
        "use repro.obs.now_ns (perf_counter_ns)"
    )
    roles = frozenset({"src"})

    def check(self, ctx) -> Iterator[Finding]:
        for scope in iter_scopes(ctx.tree):
            tainted: set[str] = set()
            for node in iter_scope_nodes(scope):
                if isinstance(node, ast.Assign):
                    if _is_wall_clock_call(node.value) is not None:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                tainted.add(target.id)
                    else:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                tainted.discard(target.id)

            def taints(node: ast.AST) -> bool:
                if isinstance(node, ast.Name) and node.id in tainted:
                    return True
                return _is_wall_clock_call(node) is not None

            for node in iter_scope_nodes(scope):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                    if taints(node.left) or taints(node.right):
                        yield self.finding(
                            ctx,
                            node,
                            "wall-clock subtraction measures a latency with "
                            "time.time()/time.monotonic(); use "
                            "repro.obs.now_ns() so durations are monotonic "
                            "nanoseconds",
                        )
                elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
                    if taints(node.target) or taints(node.value):
                        yield self.finding(
                            ctx,
                            node,
                            "wall-clock `-=` measures a latency with "
                            "time.time()/time.monotonic(); use "
                            "repro.obs.now_ns() so durations are monotonic "
                            "nanoseconds",
                        )
