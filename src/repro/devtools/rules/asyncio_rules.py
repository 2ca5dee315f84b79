"""RL1xx: asyncio rules for the concurrent daemon/client/pool stack.

These are the bug classes PRs 1-3 actually shipped (or nearly shipped):
coroutines built and dropped, broad handlers eating errors silently,
mutual exclusion held across a slow peer's network round trip, and task
handles garbage-collected mid-flight.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules.base import (
    Rule,
    call_name,
    iter_with_async_context,
    terminal_name,
)
from repro.devtools.tables import (
    ASYNC_METHODS,
    ASYNC_MODULE_FUNCTIONS,
    ASYNCIO_COROUTINE_FUNCTIONS,
    LOCK_NAME_HINTS,
    NETWORK_AWAIT_NAMES,
    TASK_SPAWN_NAMES,
)

__all__ = [
    "UnawaitedCoroutineRule",
    "SwallowedExceptionRule",
    "LockAcrossNetworkAwaitRule",
    "DroppedTaskRule",
]


class UnawaitedCoroutineRule(Rule):
    """RL101: a known-async API called as a bare statement, un-awaited.

    The call builds a coroutine object and throws it away: the request
    never happens, and Python only tells you via a ``RuntimeWarning``
    nobody reads under pytest.  Matches (a) the module-level coroutine
    functions of ``repro.net.protocol`` and ``asyncio.<fn>`` factories
    anywhere, and (b) known-async *method* names when the enclosing
    function is ``async def``.
    """

    code = "RL101"
    name = "unawaited-coroutine"
    description = "known-async API called without await; the coroutine is dropped"

    def check(self, ctx) -> Iterator[Finding]:
        for node, in_async in iter_with_async_context(ctx.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            func = call.func
            if isinstance(func, ast.Name) and func.id in ASYNC_MODULE_FUNCTIONS:
                yield self.finding(
                    ctx,
                    node,
                    f"coroutine `{func.id}(...)` is never awaited; "
                    f"the message is silently not sent/read",
                )
            elif isinstance(func, ast.Attribute):
                receiver = terminal_name(func.value)
                if receiver == "asyncio" and func.attr in ASYNCIO_COROUTINE_FUNCTIONS:
                    yield self.finding(
                        ctx,
                        node,
                        f"`asyncio.{func.attr}(...)` returns an awaitable that is "
                        f"dropped here",
                    )
                elif in_async and func.attr in ASYNC_METHODS:
                    yield self.finding(
                        ctx,
                        node,
                        f"`.{func.attr}(...)` is async on the repro.net surface; "
                        f"calling it without await drops the coroutine",
                    )


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


class LockAcrossNetworkAwaitRule(Rule):
    """RL103: a lock/semaphore held across an await of network I/O.

    One slow or stalled peer inside the critical section serializes
    every other coroutine queued on the primitive.  Compute first or
    copy state out, then talk to the network outside the ``async with``.
    """

    code = "RL103"
    name = "lock-across-network-await"
    description = "asyncio lock/semaphore held across an await of network I/O"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncWith):
                continue
            guard = None
            for item in node.items:
                name = terminal_name(item.context_expr)
                if name is None and isinstance(item.context_expr, ast.Call):
                    name = call_name(item.context_expr)
                if name is not None and any(
                    hint in name.lower() for hint in LOCK_NAME_HINTS
                ):
                    guard = name
                    break
            if guard is None:
                continue
            for stmt in node.body:
                for child in ast.walk(stmt):
                    if not isinstance(child, ast.Await):
                        continue
                    awaited = child.value
                    target = None
                    if isinstance(awaited, ast.Call):
                        target = call_name(awaited)
                        # unwrap asyncio.wait_for(inner(...), timeout=...)
                        if (
                            target in ("wait_for", "wait")
                            and awaited.args
                            and isinstance(awaited.args[0], ast.Call)
                        ):
                            target = call_name(awaited.args[0])
                    if target in NETWORK_AWAIT_NAMES:
                        yield self.finding(
                            ctx,
                            child,
                            f"`await {target}(...)` runs while `{guard}` is "
                            f"held; one stalled peer blocks every waiter -- "
                            f"move the network I/O outside the critical "
                            f"section",
                        )


class DroppedTaskRule(Rule):
    """RL104: ``create_task`` / ``ensure_future`` result discarded.

    The event loop keeps only a weak reference to running tasks: a
    handle nobody stores can be garbage-collected mid-flight, and its
    exception (if any) is reported to nobody.  Keep the handle in a
    tracked set (see ``PeerDaemon._handlers``) or await it.
    """

    code = "RL104"
    name = "dropped-task"
    description = "create_task/ensure_future handle dropped without tracking"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            name = call_name(node.value)
            if name in TASK_SPAWN_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"`{name}(...)` handle is dropped; the task may be "
                    f"garbage-collected mid-flight and its exception lost -- "
                    f"store it in a tracked set or await it",
                )
