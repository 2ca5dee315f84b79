"""ConnectionPool and the pooled PeerClient transport.

Covers the pool's contract: reuse across sequential requests,
health-check eviction of streams the daemon closed, transparent one-shot
reconnect (no retry budget spent), idle reaping, the concurrency bound,
teardown, and the interaction with client-side fault injection (a
poisoned stream is never returned to the pool).
"""

import asyncio

import numpy as np
import pytest

from repro.net.blockstore import BlockStore
from repro.net.client import DEFAULT_POOL_SIZE, PeerClient, RetryPolicy, default_pool_size
from repro.net.faults import FaultPlan, FaultRule
from repro.net.pool import ConnectionPool
from repro.net.server import PeerDaemon
from tests.net import counted, with_daemon


def pooled(**client_kwargs):
    """Client options for this file: two retries on a fixed schedule."""
    return {"retry": RetryPolicy(retries=2, backoff=0.01, jitter=0.0), **client_kwargs}


class TestReuse:
    def test_sequential_requests_share_one_stream(self, tmp_path):
        async def scenario(daemon, client):
            for _ in range(6):
                assert await client.ping() is True
            assert counted(daemon, "daemon.connections_total") == 1
            assert counted(client, "pool.connections_opened_total") == 1
            assert counted(client, "pool.connections_reused_total") == 5

        with_daemon(tmp_path, scenario, client_kwargs=pooled())

    def test_concurrent_requests_bounded_by_pool_size(self, tmp_path):
        async def scenario(daemon, client):
            results = await asyncio.gather(*(client.ping() for _ in range(12)))
            assert all(results)
            assert counted(daemon, "daemon.connections_total") <= DEFAULT_POOL_SIZE
            assert counted(client, "pool.connections_opened_total") <= DEFAULT_POOL_SIZE

        with_daemon(tmp_path, scenario, client_kwargs=pooled())

    def test_client_survives_reuse_across_event_loops(self, tmp_path):
        """A client reused after ``asyncio.run`` rebuilds its pool on the
        new loop instead of tripping over loop-bound primitives (the
        pool's semaphore) or transports owned by the dead loop."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        client = PeerClient("127.0.0.1", port, retry=RetryPolicy(retries=1, backoff=0.01))

        async def one_session(number, close_client):
            daemon = PeerDaemon(
                BlockStore(tmp_path / f"store_{number}"),
                port=port,
                rng=np.random.default_rng(number),
            )
            await daemon.start()
            try:
                assert await client.ping() is True
                return client.pool
            finally:
                if close_client:
                    await client.aclose()
                await daemon.stop()

        # First loop leaves its pooled stream dangling on purpose: the
        # second loop must abandon it and rebuild, not reuse it.
        first_pool = asyncio.run(one_session(1, close_client=False))
        second_pool = asyncio.run(one_session(2, close_client=True))
        assert first_pool is not second_pool


class TestBrokenStreams:
    def test_server_closed_stream_recovers_without_retry(self, tmp_path):
        """A stream the daemon closed between requests is replaced
        (health-check eviction or transparent reconnect) without
        spending the retry budget."""

        async def scenario(daemon, client):
            assert await client.ping() is True
            # Sever every server-side connection behind the pool's back.
            for writer in list(daemon._connections):
                writer.close()
            await asyncio.sleep(0.05)
            assert await client.ping() is True
            assert counted(client, "client.failures_total") == 0
            assert (
                counted(client, "pool.connections_evicted_total")
                + counted(client, "client.reconnects_total")
                >= 1
            )

        with_daemon(tmp_path, scenario, client_kwargs=pooled())

    def test_aclose_then_reuse_degrades_to_fresh(self, tmp_path):
        async def scenario(daemon, client):
            assert await client.ping() is True
            await client.aclose()
            assert client.pool is None
            assert await client.ping() is True  # rebuilt lazily

        with_daemon(tmp_path, scenario, client_kwargs=pooled())


class TestIdleReaping:
    def test_stale_idle_streams_are_reaped(self, tmp_path):
        async def scenario(daemon, client):
            assert await client.ping() is True
            await asyncio.sleep(0.15)
            assert await client.ping() is True
            assert counted(client, "pool.connections_reaped_total") == 1
            assert counted(client, "pool.connections_opened_total") == 2

        with_daemon(
            tmp_path,
            scenario,
            client_kwargs=pooled(pool_idle_timeout=0.05),
        )


class TestFaultInteraction:
    def test_client_truncate_poisons_the_stream(self, tmp_path):
        """A stream that carried a deliberately cut frame is discarded,
        and the retry rides a new connection."""
        plan = FaultPlan(
            seed=5,
            rules=[
                FaultRule(
                    kind="truncate", side="client", operation="ping", times=1
                )
            ],
        )

        async def scenario(daemon, client):
            assert await client.ping() is True  # fault absorbed by retry
            assert counted(client, "client.failures_total") == 1
            poisoned_generation = counted(daemon, "daemon.connections_total")
            assert poisoned_generation == 2  # cut stream + its replacement
            assert await client.ping() is True
            # The replacement stream is healthy and was reused.
            assert counted(daemon, "daemon.connections_total") == poisoned_generation

        with_daemon(
            tmp_path,
            scenario,
            client_kwargs=pooled(fault_plan=plan),
        )


class TestPoolPrimitive:
    def test_negative_size_rejected(self):
        for size in (-1, 0):  # zero streams would be no transport at all
            with pytest.raises(ValueError):
                ConnectionPool("127.0.0.1", 1, size=size)

    def test_release_never_pools_beyond_size(self, tmp_path):
        async def scenario(daemon, client):
            pool = ConnectionPool(*daemon.address, size=1)
            first = await pool.acquire()
            pool.release(first)
            second = await pool.acquire()
            assert second is first  # LIFO reuse
            pool.release(second, discard=True)
            assert counted(pool, "pool.connections_evicted_total") == 0
            assert counted(pool, "pool.connections_opened_total") == 1
            await pool.aclose()

        with_daemon(tmp_path, scenario)


class TestEnvDefault:
    def test_env_var_is_ignored(self, tmp_path, monkeypatch):
        """``REPRO_NET_POOL_SIZE`` selects nothing: every client pools."""
        monkeypatch.setenv("REPRO_NET_POOL_SIZE", "0")
        assert default_pool_size() == DEFAULT_POOL_SIZE

        async def scenario(daemon, client):
            assert await client.ping() is True
            assert client.pool.size == DEFAULT_POOL_SIZE

        with_daemon(tmp_path, scenario)

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_POOL_SIZE", "many")
        assert default_pool_size() == 4
        monkeypatch.setenv("REPRO_NET_POOL_SIZE", "-3")
        assert default_pool_size() == 4


class _ExplodingWriter:
    """A writer whose teardown surface raises, as after a loop is gone."""

    def __init__(self):
        self.transport = self

    def abort(self):
        raise RuntimeError("transport already torn down")

    def close(self):
        raise RuntimeError("transport already torn down")

    async def wait_closed(self):
        raise ConnectionResetError("peer vanished")

    def is_closing(self):
        return False


class TestTeardownNeverRaises:
    """Regression: teardown failures are debug-logged, not swallowed
    bare and not propagated (the old handlers were ``except Exception:
    pass``, reprolint RL102's very first catches)."""

    def test_abort_logs_and_survives_raising_transport(self, caplog):
        import logging

        from repro.net.pool import PooledConnection

        pool = ConnectionPool("127.0.0.1", 9, size=1)
        conn = PooledConnection(reader=None, writer=_ExplodingWriter())
        with caplog.at_level(logging.DEBUG, logger="repro.net.pool"):
            pool._abort(conn)  # must not raise
        assert "aborting pooled stream" in caplog.text

    def test_aclose_logs_and_survives_raising_streams(self, caplog):
        import logging

        from repro.net.pool import PooledConnection

        pool = ConnectionPool("127.0.0.1", 9, size=2)
        pool._idle = [
            PooledConnection(reader=None, writer=_ExplodingWriter()),
            PooledConnection(reader=None, writer=_ExplodingWriter()),
        ]
        with caplog.at_level(logging.DEBUG, logger="repro.net.pool"):
            asyncio.run(pool.aclose())  # must not raise
        assert "closing pooled stream failed" in caplog.text
        assert pool._idle == []
