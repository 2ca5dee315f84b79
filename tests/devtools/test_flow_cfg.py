"""Unit tests for the flow engine's CFG builder.

Structural properties the RL5xx passes rely on: branch joins, loop
back-edges, lock-context annotation from ``async with``, and -- most
load-bearing -- that every path into a ``try/finally`` observes the
finally body before reaching exit, because that is exactly how RL503
credits a ``finally: conn.close()`` release.
"""

from __future__ import annotations

import ast
import textwrap

from repro.devtools.flow import build_cfg


def func_cfg(source: str):
    tree = ast.parse(textwrap.dedent(source).lstrip("\n"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return build_cfg(node)
    raise AssertionError("no function in source")


def node_at(cfg, line: int, part: str | None = None):
    for node in cfg.nodes:
        if node.line == line and (part is None or node.part == part):
            return node
    raise AssertionError(f"no node at line {line} (part={part})")


def assert_exit_only_via(cfg, start: int, required: int):
    """Every path from ``start`` (over normal and raise edges) must hit
    node ``required`` before it can reach function exit."""
    stack, seen = [start], set()
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if nid == required:
            continue
        assert nid != cfg.exit, "exit reached without passing the required node"
        stack.extend(cfg.successors(nid))


# ---------------------------------------------------------------- shape


def test_if_else_branches_rejoin():
    cfg = func_cfg(
        """
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """
    )
    test = node_at(cfg, 2, "test")
    then_stmt = node_at(cfg, 3)
    else_stmt = node_at(cfg, 5)
    ret = node_at(cfg, 6)
    assert then_stmt.nid in test.succs and else_stmt.nid in test.succs
    assert ret.nid in then_stmt.succs and ret.nid in else_stmt.succs
    assert cfg.exit in ret.succs


def test_while_loop_has_back_edge_and_break_exit():
    cfg = func_cfg(
        """
        def f(x):
            while x:
                if x > 2:
                    break
                x -= 1
            return x
        """
    )
    test = node_at(cfg, 2, "test")
    decrement = node_at(cfg, 5)
    brk = node_at(cfg, 4)
    ret = node_at(cfg, 6)
    assert test.nid in decrement.succs  # back edge
    assert ret.nid in brk.succs  # break jumps past the loop
    assert ret.nid in test.succs  # loop-done edge


# ----------------------------------------------------------- lock context


def test_async_with_lock_annotates_body_nodes():
    cfg = func_cfg(
        """
        class C:
            async def m(self):
                async with self._lock:
                    self.x = 1
                async with peer._lock:
                    self.y = 2
                self.z = 3
        """,
    )
    # Another object's lock of the same name is a different lock: it
    # cannot cover a window on a ``self`` attribute (RL501).
    assert node_at(cfg, 4).locks == frozenset({"self._lock"})
    assert node_at(cfg, 6).locks == frozenset({"_lock"})
    assert node_at(cfg, 7).locks == frozenset()


def test_nested_async_with_accumulates_locks():
    cfg = func_cfg(
        """
        class C:
            async def m(self):
                async with self._outer_lock:
                    async with self._inner_lock:
                        self.x = 1
        """,
    )
    innermost = node_at(cfg, 5)
    assert innermost.locks == frozenset({"self._outer_lock", "self._inner_lock"})


def test_non_lock_context_manager_adds_no_lock():
    cfg = func_cfg(
        """
        class C:
            async def m(self):
                async with self.session:
                    self.x = 1
        """,
    )
    assert node_at(cfg, 4).locks == frozenset()


# ------------------------------------------------------------ try/finally


def test_return_routes_through_finally():
    cfg = func_cfg(
        """
        async def f(conn):
            try:
                return 1
            finally:
                conn.release()
        """
    )
    ret = node_at(cfg, 3)
    release = node_at(cfg, 5)
    assert_exit_only_via(cfg, ret.nid, release.nid)


def test_exception_in_try_body_routes_through_finally():
    cfg = func_cfg(
        """
        async def f(conn):
            try:
                risky()
            finally:
                conn.release()
        """
    )
    risky = node_at(cfg, 3)
    release = node_at(cfg, 5)
    assert risky.raise_succs, "a call must have a raise edge"
    assert_exit_only_via(cfg, risky.nid, release.nid)


def test_finally_head_carries_no_raise_edges():
    cfg = func_cfg(
        """
        def f(conn):
            try:
                risky()
            finally:
                conn.release()
        """
    )
    head = node_at(cfg, 2, "finally")
    assert head.raise_succs == []


def test_catch_all_handler_head_cannot_propagate():
    cfg = func_cfg(
        """
        def f():
            try:
                risky()
            except BaseException:
                cleanup()
                raise
        """
    )
    head = node_at(cfg, 4, "except")
    assert head.raise_succs == []


def test_typed_handler_head_keeps_propagation_edge():
    cfg = func_cfg(
        """
        def f():
            try:
                risky()
            except ValueError:
                cleanup()
        """
    )
    head = node_at(cfg, 4, "except")
    assert cfg.exit in head.raise_succs


def test_handler_body_exception_still_runs_finally():
    cfg = func_cfg(
        """
        def f(conn):
            try:
                risky()
            except ValueError:
                rethrow()
            finally:
                conn.release()
        """
    )
    rethrow = node_at(cfg, 5)
    release = node_at(cfg, 7)
    assert_exit_only_via(cfg, rethrow.nid, release.nid)
