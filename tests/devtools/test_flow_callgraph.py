"""Unit tests for the flow engine's call graph and interprocedural passes.

Resolution is conservative-quiet: these tests pin both directions --
the edges that *must* exist (same-module bare names, ``self`` methods,
unique project-wide names, hinted receivers) and the ones that must
stay silent (stoplisted generic names, stdlib module receivers,
ambiguous targets).
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

from repro.devtools.rules.flow_rules import CallGraph, analyze_file


class Ctx:
    """The slice of FileContext that analyze_file consumes."""

    def __init__(self, path: str, source: str):
        self.path = pathlib.Path(path)
        self.source = textwrap.dedent(source)
        self.tree = ast.parse(self.source)


def info(path: str, source: str):
    summaries, _ = analyze_file(Ctx(path, source))
    return summaries


def rl502_messages(*infos):
    graph = CallGraph([summary for summaries in infos for summary in summaries])
    return [finding.message for finding in graph.iter_rl502()]


# ------------------------------------------------------------- resolution


def test_cross_module_chain_resolves_by_unique_name():
    entry = info(
        "src/app/entry.py",
        """
        async def drive():
            settle()
        """,
    )
    helper = info(
        "src/app/helper.py",
        """
        import time

        def settle():
            nap()

        def nap():
            time.sleep(0.5)
        """,
    )
    messages = rl502_messages(entry, helper)
    assert len(messages) == 1
    assert "drive -> settle -> nap" in messages[0]
    assert "time.sleep()" in messages[0]


def test_self_method_resolves_within_class():
    module = info(
        "src/app/daemon.py",
        """
        import os

        class Daemon:
            async def flush(self):
                self._sync()

            def _sync(self):
                os.fsync(3)
        """,
    )
    messages = rl502_messages(module)
    assert len(messages) == 1
    assert "Daemon.flush -> Daemon._sync" in messages[0]


def test_stoplisted_generic_name_produces_no_edge():
    # `.get()` collides with dict/queue builtins: no hint, no edge, no
    # finding -- even though a blocking `get` exists in the project.
    module = info(
        "src/app/thing.py",
        """
        import time

        class Fetcher:
            def get(self):
                time.sleep(1)

        async def use(registry):
            return registry.get()
        """,
    )
    assert rl502_messages(module) == []


def test_known_receiver_hint_beats_the_stoplist():
    # `self.store.put(...)`: the project knows `store` is the BlockStore,
    # so the otherwise-stoplisted `put` resolves.
    module = info(
        "src/app/store.py",
        """
        import os

        class BlockStore:
            def put(self, key, blob):
                os.fsync(3)

        class Daemon:
            async def handle(self, key, blob):
                self.store.put(key, blob)
        """,
    )
    messages = rl502_messages(module)
    assert len(messages) == 1
    assert "Daemon.handle -> BlockStore.put" in messages[0]


def test_stdlib_module_receiver_is_silent():
    module = info(
        "src/app/waiter.py",
        """
        async def pause():
            await asyncio.sleep(1)
        """,
    )
    assert rl502_messages(module) == []


def test_ambiguous_name_produces_no_edge():
    one = info(
        "src/app/one.py",
        """
        import time

        def work():
            time.sleep(1)
        """,
    )
    two = info(
        "src/app/two.py",
        """
        def work():
            return 1
        """,
    )
    entry = info(
        "src/app/main.py",
        """
        async def drive():
            work()
        """,
    )
    assert rl502_messages(entry, one, two) == []


def test_async_callee_is_not_a_blocking_chain():
    # An async callee is analyzed on its own; awaiting it is fine.
    module = info(
        "src/app/pipeline.py",
        """
        import time

        async def outer():
            await inner()

        async def inner():
            time.sleep(1)
        """,
    )
    messages = rl502_messages(module)
    # exactly one finding: the direct hit inside `inner`, no chain
    # finding at the `outer` call site.
    assert len(messages) == 1
    assert "inside async `inner`" in messages[0]


def test_mutual_recursion_terminates_clean():
    module = info(
        "src/app/recur.py",
        """
        def ping(n):
            return pong(n - 1)

        def pong(n):
            return ping(n - 1)

        async def drive():
            ping(3)
        """,
    )
    assert rl502_messages(module) == []
