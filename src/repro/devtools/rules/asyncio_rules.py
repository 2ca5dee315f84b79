"""RL1xx: the asyncio rule for the concurrent daemon/client/pool stack.

A broad handler that eats what it catches is the bug class that
survives unit tests and surfaces only under chaos load: a swallowed
``asyncio.CancelledError`` keeps a cancelled task running, and a silent
``except Exception: pass`` hides real defects.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules.base import Rule, terminal_name

__all__ = ["SwallowedExceptionRule"]


def _handler_breadth(handler: ast.ExceptHandler) -> str | None:
    """``"bare"``, ``"base"``, ``"exception"`` or ``None`` (narrow)."""

    def of(node: ast.AST | None) -> str | None:
        if node is None:
            return "bare"
        if isinstance(node, ast.Tuple):
            widths = [of(element) for element in node.elts]
            for width in ("bare", "base", "exception"):
                if width in widths:
                    return width
            return None
        name = terminal_name(node)
        if name == "BaseException":
            return "base"
        if name == "Exception":
            return "exception"
        return None

    return of(handler.type)


class SwallowedExceptionRule(Rule):
    """RL102: a broad handler that swallows what it catches.

    ``except:`` and ``except BaseException`` eat
    ``asyncio.CancelledError`` and ``KeyboardInterrupt`` unless they
    re-raise -- a cancelled task that keeps running is how shutdown
    hangs are born.  ``except Exception`` is tolerated only when the
    handler re-raises or actually *uses* the bound exception (logs it,
    wraps it, returns it); a silent ``pass`` hides real defects.
    """

    code = "RL102"
    name = "swallowed-exception"
    description = "broad except handler neither re-raises nor uses the exception"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            breadth = _handler_breadth(node)
            if breadth is None:
                continue
            reraises = any(
                isinstance(child, ast.Raise)
                for stmt in node.body
                for child in ast.walk(stmt)
            )
            if reraises:
                continue
            if breadth in ("bare", "base"):
                spelled = "bare `except:`" if breadth == "bare" else "`except BaseException`"
                yield self.finding(
                    ctx,
                    node,
                    f"{spelled} without re-raise swallows "
                    f"asyncio.CancelledError/KeyboardInterrupt; re-raise or "
                    f"narrow the exception",
                )
                continue
            uses_binding = node.name is not None and any(
                isinstance(child, ast.Name) and child.id == node.name
                for stmt in node.body
                for child in ast.walk(stmt)
            )
            if not uses_binding:
                yield self.finding(
                    ctx,
                    node,
                    "`except Exception` silently discards the error; narrow it "
                    "to the exceptions this block can handle, re-raise, or "
                    "log the bound exception",
                )
