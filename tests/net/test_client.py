"""PeerClient: timeouts, retry/backoff against a flaky stub server."""

import asyncio

import pytest

from repro.net.client import PeerClient, RetryPolicy
from repro.net.errors import PeerUnavailableError, RemoteError
from repro.net.protocol import (
    Error,
    ErrorCode,
    Ok,
    encode_message,
    read_message,
)
from tests.net import counted


class FlakyServer:
    """A stub daemon that fails the first ``failures`` connections.

    Failure modes: 'drop' closes the connection before answering (a
    crashing peer); 'hang' accepts but never replies (a stalled peer,
    exercises the read timeout).  Afterwards it answers every request
    with OK.
    """

    def __init__(self, failures: int, mode: str = "drop"):
        self.failures = failures
        self.mode = mode
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        if self.connections <= self.failures:
            if self.mode == "hang":
                try:
                    await asyncio.sleep(30)
                finally:
                    writer.close()
                return
            writer.close()  # drop: slam the door
            return
        try:
            while True:
                try:
                    await read_message(reader)
                except asyncio.IncompleteReadError:
                    break
                writer.write(encode_message(Ok()))
                await writer.drain()
        finally:
            writer.close()


def run(coro):
    return asyncio.run(coro)


class TestRetry:
    def test_succeeds_after_transient_drops(self):
        async def scenario():
            async with FlakyServer(failures=2) as server:
                client = PeerClient(
                    "127.0.0.1",
                    server.port,
                    retry=RetryPolicy(retries=3, backoff=0.01),
                )
                assert await client.ping() is True
                return counted(client, "client.failures_total"), server.connections

        failures, connections = run(scenario())
        assert failures == 2
        assert connections == 3  # 2 drops + 1 success

    def test_gives_up_after_retry_budget(self):
        async def scenario():
            async with FlakyServer(failures=100) as server:
                client = PeerClient(
                    "127.0.0.1",
                    server.port,
                    retry=RetryPolicy(retries=2, backoff=0.01),
                )
                with pytest.raises(PeerUnavailableError, match="3 attempts"):
                    await client.ping()
                return server.connections

        assert run(scenario()) == 3  # initial try + 2 retries

    def test_read_timeout_triggers_retry(self):
        async def scenario():
            async with FlakyServer(failures=1, mode="hang") as server:
                client = PeerClient(
                    "127.0.0.1",
                    server.port,
                    read_timeout=0.1,
                    retry=RetryPolicy(retries=2, backoff=0.01),
                )
                assert await client.ping() is True
                return counted(client, "client.failures_total")

        assert run(scenario()) == 1

    def test_dead_port_raises_peer_unavailable(self):
        async def scenario():
            # Bind-then-close to get a port nothing listens on.
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            client = PeerClient(
                "127.0.0.1", port, retry=RetryPolicy(retries=1, backoff=0.01)
            )
            with pytest.raises(PeerUnavailableError):
                await client.ping()
            assert await client.is_alive() is False

        run(scenario())

    def test_error_response_not_retried(self):
        """An ERROR answer means the peer is alive: raise immediately."""

        async def scenario():
            connections = 0

            async def handle(reader, writer):
                nonlocal connections
                connections += 1
                await read_message(reader)
                writer.write(
                    encode_message(
                        Error(code=int(ErrorCode.NOT_FOUND), message="nope")
                    )
                )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = PeerClient(
                    "127.0.0.1", port, retry=RetryPolicy(retries=3, backoff=0.01)
                )
                with pytest.raises(RemoteError) as excinfo:
                    await client.get_piece("missing/0")
                assert excinfo.value.code == int(ErrorCode.NOT_FOUND)
            return connections

        assert run(scenario()) == 1  # no retry on application errors


class TestWriteTimeout:
    def test_stalled_peer_does_not_hang_large_upload(self):
        """A peer that accepts the connection but never reads must trip
        the write timeout (read_timeout bounds the drain) instead of
        stalling ``writer.drain()`` forever on a bulky piece upload."""

        async def scenario():
            release = asyncio.Event()

            async def handle(reader, writer):
                # Accept, then never read a byte: the client's send
                # buffer fills and its drain() blocks.
                await release.wait()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                client = PeerClient(
                    "127.0.0.1",
                    port,
                    read_timeout=0.2,
                    retry=RetryPolicy(retries=0, backoff=0.01),
                )
                blob = b"\x00" * (8 << 20)  # far beyond any socket buffer
                loop = asyncio.get_running_loop()
                start = loop.time()
                with pytest.raises(PeerUnavailableError):
                    await client.store_piece("f/0", blob)
                elapsed = loop.time() - start
                release.set()
                await client.aclose()
            return elapsed

        # Before the fix this hung until the suite's hard timeout; the
        # bounded drain fails the attempt in roughly read_timeout.
        assert run(scenario()) < 5.0


class TestBackoffSchedule:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(retries=6, backoff=0.1, backoff_cap=1.0, jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(6)]
        assert delays[:4] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]
        assert delays[4] == delays[5] == pytest.approx(1.0)  # capped

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestJitter:
    def test_jitter_stays_within_envelope(self):
        policy = RetryPolicy(retries=8, backoff=0.1, backoff_cap=1.0, jitter=0.25, seed=1)
        for attempt in range(8):
            base = min(0.1 * 2**attempt, 1.0)
            delay = policy.delay(attempt)
            assert base * 0.75 <= delay <= base  # shaved, never inflated

    def test_seeded_jitter_is_reproducible(self):
        schedule = [
            RetryPolicy(backoff=0.1, jitter=0.25, seed=99).delay(a) for a in range(4)
        ]
        again = [
            RetryPolicy(backoff=0.1, jitter=0.25, seed=99).delay(a) for a in range(4)
        ]
        assert schedule == again

    def test_two_clients_do_not_retry_in_lockstep(self):
        """The point of jitter: clients hitting the same outage spread
        their retries instead of synchronizing on the recovering peer."""
        first = RetryPolicy(backoff=0.1, backoff_cap=1.0, jitter=0.25, seed=1)
        second = RetryPolicy(backoff=0.1, backoff_cap=1.0, jitter=0.25, seed=2)
        schedule_a = [first.delay(attempt) for attempt in range(4)]
        schedule_b = [second.delay(attempt) for attempt in range(4)]
        assert all(a != b for a, b in zip(schedule_a, schedule_b))
