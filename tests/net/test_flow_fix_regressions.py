"""Regressions for the defects the RL5xx flow analysis found.

Each test pins one fix from the flow-lint triage (see docs/TESTING.md,
"The RL5xx catalogue"):

- RL503 on ``ConnectionPool.acquire``: a freshly opened stream was
  stranded if the post-connect bookkeeping raised;
- RL501 on ``PeerDaemon.start``/``stop``: the listener and port were
  read and rewritten across awaits with no covering lock, so concurrent
  lifecycle calls could double-bind or half-tear the daemon;
- RL502 on the daemon's request dispatch: handlers do real blocking
  work (fsync'd writes, GF row combines) and used to run directly on
  the event loop, stalling every other connection.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.net.blockstore import BlockStore
from repro.net.client import PeerClient, RetryPolicy
from repro.net.pool import ConnectionPool
from repro.net.protocol import Ping
from repro.net.server import PeerDaemon
from tests.net import counted


async def _started_daemon(tmp_path, name="store"):
    daemon = PeerDaemon(
        BlockStore(tmp_path / name), rng=np.random.default_rng(7)
    )
    await daemon.start()
    return daemon


class _RaisingCounter:
    def inc(self, amount=1):
        raise RuntimeError("metrics backend fell over")


class TestPoolAcquireHandoff:
    """RL503: the stream must be owned or closed on *every* exit path."""

    def test_bookkeeping_failure_closes_the_fresh_stream(self, tmp_path, monkeypatch):
        async def scenario():
            daemon = await _started_daemon(tmp_path)
            pool = ConnectionPool(*daemon.address, size=2)
            captured = []
            real_open = asyncio.open_connection

            async def capturing_open(*args, **kwargs):
                reader, writer = await real_open(*args, **kwargs)
                captured.append(writer)
                return reader, writer

            monkeypatch.setattr(asyncio, "open_connection", capturing_open)
            monkeypatch.setattr(pool, "_m_opened", _RaisingCounter())
            try:
                with pytest.raises(RuntimeError, match="metrics backend"):
                    await pool.acquire()
                assert len(captured) == 1
                # the stream opened for this checkout must not leak: a
                # raise after the connect still tears it down.
                assert captured[0].is_closing()
            finally:
                await pool.aclose()
                await daemon.stop()

        asyncio.run(scenario())

    def test_successful_acquire_still_counts(self, tmp_path):
        async def scenario():
            daemon = await _started_daemon(tmp_path)
            pool = ConnectionPool(*daemon.address, size=2)
            try:
                conn = await pool.acquire()
                assert counted(pool, "pool.connections_opened_total") == 1
                pool.release(conn)
            finally:
                await pool.aclose()
                await daemon.stop()

        asyncio.run(scenario())


class TestLifecycleLock:
    """RL501: start/stop read-then-rewrite the listener across awaits."""

    def test_concurrent_starts_bind_exactly_one_listener(self, tmp_path):
        async def scenario():
            daemon = PeerDaemon(
                BlockStore(tmp_path / "store"), rng=np.random.default_rng(7)
            )
            results = await asyncio.gather(
                daemon.start(), daemon.start(), return_exceptions=True
            )
            failures = [r for r in results if isinstance(r, RuntimeError)]
            assert len(failures) == 1  # exactly one loser, exactly one bind
            assert "already started" in str(failures[0])

            client = PeerClient(
                *daemon.address, retry=RetryPolicy(retries=1, backoff=0.01)
            )
            try:
                assert await client.ping() is True
            finally:
                await client.aclose()
                await daemon.stop()
            assert daemon._server is None

        asyncio.run(scenario())

    def test_concurrent_stops_tear_down_once_and_cleanly(self, tmp_path):
        async def scenario():
            daemon = await _started_daemon(tmp_path)
            results = await asyncio.gather(
                daemon.stop(), daemon.stop(), return_exceptions=True
            )
            assert results == [None, None]
            assert daemon._server is None
            # the daemon restarts fine after the double stop
            await daemon.start()
            await daemon.stop()

        asyncio.run(scenario())


class TestDispatchOffTheLoop:
    """RL502: blocking handler work must not stall the event loop."""

    def test_slow_handler_leaves_the_loop_responsive(self, tmp_path):
        async def scenario():
            daemon = await _started_daemon(tmp_path)
            real_dispatch = daemon._dispatch

            def slow_dispatch(request):
                if isinstance(request, Ping):
                    time.sleep(0.25)  # a handler hogging its thread
                return real_dispatch(request)

            daemon._dispatch = slow_dispatch
            client = PeerClient(
                *daemon.address, retry=RetryPolicy(retries=1, backoff=0.01)
            )
            try:
                ping = asyncio.ensure_future(client.ping())
                ticks = 0
                while not ping.done():
                    await asyncio.sleep(0.01)
                    ticks += 1
                assert await ping is True
                # While the handler slept on the dispatch thread, the
                # loop kept turning; were dispatch still inline, the
                # heartbeat would have managed one or two ticks at most.
                assert ticks >= 10
            finally:
                await client.aclose()
                await daemon.stop()

        asyncio.run(scenario())
