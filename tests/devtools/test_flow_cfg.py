"""Control-flow cases the RL501/RL503 statement walks must get right.

Each case is checked through the rules themselves, on a small inline
source: branch joins, loop back edges and ``break`` exits, the lock
context of ``async with``, and -- most load-bearing -- that every path
into a ``try/finally`` runs the finally body before it leaves the
function, because that is how RL503 credits a ``finally:
conn.release()``.  Every case pairs a clean function with a flagged
near miss that differs only in the control-flow shape under test, so a
walk that ignored the shape would fail one side.
"""

from __future__ import annotations

import re
import textwrap

from repro.devtools.lint import run_lint


def flagged(tmp_path, source: str) -> list[tuple[str, str]]:
    """``(code, function name)`` for each RL5xx finding on ``source``."""
    target = tmp_path / "case.py"
    target.write_text(
        "import asyncio\n\n" + textwrap.dedent(source).lstrip("\n"), encoding="utf-8"
    )
    report = run_lint([target], force_role="src", select=["RL5"])
    assert not report.errors, [error.render() for error in report.errors]
    return sorted(
        (finding.code, re.search(r" in `(\w+)`", finding.message).group(1))
        for finding in report.findings
    )


# ---------------------------------------------------------------- shape


def test_if_else_branches_rejoin(tmp_path):
    # The await on one branch reaches the write after the join; a release
    # after the join covers both branches.
    assert flagged(
        tmp_path,
        """
        class C:
            async def await_on_one_branch(self, x):
                v = self._count
                if x:
                    await asyncio.sleep(0)
                else:
                    pass
                self._count = v + 1

            async def no_await_on_either(self, x):
                v = self._count
                if x:
                    a = 1
                else:
                    a = 2
                self._count = v + a

        async def release_after_join(pool, x):
            conn = await pool.acquire()
            if x:
                a = 1
            else:
                a = 2
            conn.release()
            return a

        async def release_on_one_branch(pool, x):
            conn = await pool.acquire()
            if x:
                conn.release()
            else:
                a = 2
        """,
    ) == [("RL501", "await_on_one_branch"), ("RL503", "release_on_one_branch")]


def test_while_loop_has_back_edge_and_break_exit(tmp_path):
    # The read at the bottom of one iteration meets the write at the top
    # of the next (back edge); ``break`` leaves past the loop's ``else``
    # but reaches the statement after the loop.
    assert flagged(
        tmp_path,
        """
        class C:
            async def read_carried_round_the_loop(self, x):
                v = 0
                while x:
                    self._total = v + 1
                    v = self._total
                    await asyncio.sleep(0)

        async def break_then_release(pool, x):
            conn = await pool.acquire()
            while x:
                if x > 2:
                    break
                x -= 1
            conn.release()

        async def break_skips_else_release(pool, x):
            conn = await pool.acquire()
            while x:
                if x > 2:
                    break
                x -= 1
            else:
                conn.release()
        """,
    ) == [("RL501", "read_carried_round_the_loop"), ("RL503", "break_skips_else_release")]


# ----------------------------------------------------------- lock context


def test_async_with_lock_annotates_body_nodes(tmp_path):
    # A lock covers only while its block is open, and another object's
    # lock of the same name is a different lock.
    assert flagged(
        tmp_path,
        """
        class C:
            async def own_lock(self):
                async with self._lock:
                    v = self._count
                    await asyncio.sleep(0)
                    self._count = v + 1

            async def other_objects_lock(self, peer):
                async with peer._lock:
                    v = self._count
                async with self._lock:
                    await asyncio.sleep(0)
                    self._count = v + 1

            async def await_after_the_block(self):
                async with self._lock:
                    v = self._count
                await asyncio.sleep(0)
                self._count = v + 1
        """,
    ) == [("RL501", "await_after_the_block"), ("RL501", "other_objects_lock")]


def test_nested_async_with_accumulates_locks(tmp_path):
    # A read under both locks is still covered by the outer one after the
    # inner block closes; a read under the inner lock alone is not.
    assert flagged(
        tmp_path,
        """
        class C:
            async def read_under_both(self):
                async with self._outer_lock:
                    async with self._inner_lock:
                        v = self._count
                    await asyncio.sleep(0)
                    self._count = v + 1

            async def read_under_inner_only(self):
                async with self._inner_lock:
                    v = self._count
                async with self._outer_lock:
                    await asyncio.sleep(0)
                    self._count = v + 1
        """,
    ) == [("RL501", "read_under_inner_only")]


def test_non_lock_context_manager_adds_no_lock(tmp_path):
    assert flagged(
        tmp_path,
        """
        class C:
            async def under_a_session(self):
                async with self.session:
                    v = self._count
                    await asyncio.sleep(0)
                    self._count = v + 1
        """,
    ) == [("RL501", "under_a_session")]


# ------------------------------------------------------------ try/finally


def test_return_routes_through_finally(tmp_path):
    assert flagged(
        tmp_path,
        """
        async def returns_through_finally(pool):
            conn = await pool.acquire()
            try:
                return 1
            finally:
                conn.release()

        async def returns_before_release(pool, x):
            conn = await pool.acquire()
            if x:
                return 1
            conn.release()
        """,
    ) == [("RL503", "returns_before_release")]


def test_exception_in_try_body_routes_through_finally(tmp_path):
    # A call may raise: only a finally catches that path.
    assert flagged(
        tmp_path,
        """
        async def raises_through_finally(pool):
            conn = await pool.acquire()
            try:
                risky()
            finally:
                conn.release()

        async def raises_before_release(pool):
            conn = await pool.acquire()
            risky()
            conn.release()
        """,
    ) == [("RL503", "raises_before_release")]


def test_finally_head_carries_no_raise_edges(tmp_path):
    # Entering the finally body raises nothing, nor does a statement
    # without a call; a call before the release inside it may.
    assert flagged(
        tmp_path,
        """
        async def plain_statement_before_release(pool):
            conn = await pool.acquire()
            try:
                risky()
            finally:
                done = True
                conn.release()
            return done

        async def call_before_release(pool, log):
            conn = await pool.acquire()
            try:
                risky()
            finally:
                log.write("done")
                conn.release()
        """,
    ) == [("RL503", "call_before_release")]


def test_catch_all_handler_head_cannot_propagate(tmp_path):
    assert flagged(
        tmp_path,
        """
        async def catch_all_releases(pool):
            conn = await pool.acquire()
            try:
                risky()
            except BaseException:
                conn.release()
                raise
            conn.release()

        async def bare_except_releases(pool):
            conn = await pool.acquire()
            try:
                risky()
            except:
                conn.release()
                raise
            conn.release()
        """,
    ) == []


def test_typed_handler_head_keeps_propagation_edge(tmp_path):
    # An exception the handler does not match leaves still holding.
    assert flagged(
        tmp_path,
        """
        async def typed_handler_releases(pool):
            conn = await pool.acquire()
            try:
                risky()
            except ValueError:
                conn.release()
                raise
            conn.release()
        """,
    ) == [("RL503", "typed_handler_releases")]


def test_handler_body_exception_still_runs_finally(tmp_path):
    assert flagged(
        tmp_path,
        """
        async def handler_raise_runs_finally(pool):
            conn = await pool.acquire()
            try:
                risky()
            except ValueError:
                rethrow()
            finally:
                conn.release()

        async def handler_raise_skips_release(pool):
            conn = await pool.acquire()
            try:
                risky()
            except ValueError:
                rethrow()
            conn.release()
        """,
    ) == [("RL503", "handler_raise_skips_release")]
