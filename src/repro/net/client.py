"""The peer client: pooled connections, timeouts, retries, typed requests.

One :class:`PeerClient` talks to one daemon.  Requests ride on a
:class:`~repro.net.pool.ConnectionPool` of up to ``DEFAULT_POOL_SIZE``
(4) persistent streams, so a burst of small messages (reconstruction's
per-piece GET_ROWS, a multi-chunk insert storm) pays the TCP connect
round-trip once per stream instead of once per message.

Pooled streams introduce one new failure shape: the daemon may close a
connection *between* our requests (restart, idle reaping), so the first
write on a reused stream can fail even though the peer is perfectly
healthy.  :meth:`PeerClient._request_once` absorbs that case with a
single transparent reconnect on a provably fresh connection -- it does
not consume the retry budget and is invisible to fault accounting
(injected faults are decided once, before checkout, and are never
re-rolled by the reconnect).

Failure handling distinguishes *transport* failures from *application*
failures:

- connect/read/write timeouts, refused connections, and resets are
  retried with exponential backoff (``backoff * 2^attempt``, capped,
  minus a seeded random jitter so a crowd of clients hammered by the
  same outage does not retry in lockstep), then surface as
  :class:`PeerUnavailableError` -- the caller should treat the peer as
  dead and substitute another helper;
- a well-formed ERROR response raises :class:`RemoteError` immediately:
  the peer is alive and retrying won't change its answer.

Any stream whose conversation ended in anything but a complete, clean
response is discarded rather than returned to the pool, so protocol
desync cannot leak from one request into the next.

Each transport event is counted once, per peer, in the client's obs
registry: ``client.failures_total`` and ``client.reconnects_total``
here, ``pool.connections_*_total`` in the pool.  The pools record into
that same registry (a :class:`~repro.net.coordinator.Coordinator`
shares its own with every client), so a loop switch or :meth:`aclose`
that drops a pool loses no count.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np

from repro.gf.field import GaloisField
from repro.net.errors import (
    ChecksumError,
    PeerUnavailableError,
    ProtocolError,
    RemoteError,
)
from repro.net.faults import FaultKind, FaultPlan
from repro.net.pool import ConnectionPool, PooledConnection
from repro.net.protocol import (
    Error,
    FragmentData,
    GetPiece,
    GetRows,
    GetStats,
    Message,
    Ok,
    PieceData,
    Ping,
    RepairRead,
    Rows,
    StatsData,
    StorePiece,
    encode_message,
    operation_name,
    read_message,
    write_message,
)
from repro.obs import SNAPSHOT_FORMAT, MetricsRegistry, now_ns

__all__ = ["PeerClient", "RetryPolicy", "DEFAULT_POOL_SIZE", "default_pool_size"]

#: Streams a client keeps per peer; also its bound on concurrent
#: requests to that peer.
DEFAULT_POOL_SIZE = 4


def default_pool_size() -> int:
    """The streams every client keeps per peer (:data:`DEFAULT_POOL_SIZE`)."""
    return DEFAULT_POOL_SIZE


class RetryPolicy:
    """Exponential-backoff schedule for transport failures.

    ``jitter`` shaves up to that fraction off each delay, drawn from a
    seeded ``random.Random`` -- two policies with different seeds (or
    the default OS seeding) produce different schedules, which is what
    keeps simultaneous retriers from synchronizing on a recovering peer
    (the classic thundering-herd failure mode).  Set ``jitter=0.0`` for
    an exact, deterministic schedule.
    """

    def __init__(
        self,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.25,
        seed: int | None = None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff * (2.0 ** attempt), self.backoff_cap)
        if self.jitter == 0.0:
            return base
        return base * (1.0 - self.jitter * self._rng.random())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryPolicy(retries={self.retries}, backoff={self.backoff}, "
            f"cap={self.backoff_cap}, jitter={self.jitter})"
        )


class PeerClient:
    """Typed requests against one peer daemon at ``(host, port)``."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        read_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        fault_scope: str | None = None,
        pool_idle_timeout: float = 30.0,
        registry: MetricsRegistry | None = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.fault_scope = fault_scope
        self.pool_idle_timeout = pool_idle_timeout
        # The pool binds to the running event loop (its semaphore does),
        # so it is created lazily on first request and rebuilt if the
        # client outlives an ``asyncio.run`` and is reused on a new loop.
        self._pool: ConnectionPool | None = None
        self._pool_loop: asyncio.AbstractEventLoop | None = None
        #: Coordinator-shared or per-client obs registry (``REPRO_OBS``),
        #: also handed to every pool, so its counts outlive each pool.
        self.obs = registry if registry is not None else MetricsRegistry()
        peer = f"{host}:{port}"
        # Transport attempts that failed and were retried, and stale
        # pooled streams replaced without spending the retry budget.
        self._m_failures = self.obs.counter("client.failures_total", peer=peer)
        self._m_reconnects = self.obs.counter("client.reconnects_total", peer=peer)
        # Per-opcode (requests counter, rpc-latency histogram), cached by
        # message type so the request hot path never rebuilds label keys.
        self._op_instruments: dict[str, tuple] = {}

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def pool(self) -> ConnectionPool | None:
        """The live connection pool (``None`` before the first request)."""
        return self._pool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PeerClient({self.host}:{self.port})"

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _pool_for_loop(self) -> ConnectionPool:
        loop = asyncio.get_running_loop()
        if self._pool is None or self._pool_loop is not loop:
            if self._pool is not None:
                self._pool.abandon()
            self._pool = ConnectionPool(
                self.host,
                self.port,
                DEFAULT_POOL_SIZE,
                connect_timeout=self.connect_timeout,
                idle_timeout=self.pool_idle_timeout,
                registry=self.obs,
            )
            self._pool_loop = loop
        return self._pool

    async def _converse(self, conn: PooledConnection, message: Message, event) -> Message:
        """One request/response exchange on an already-open stream."""
        writer, reader = conn.writer, conn.reader
        if event is not None and event.kind is FaultKind.CORRUPT:
            # Corruption hashes ~32 bytes per flipped byte from tiny
            # label seeds, never the frame itself; inline beats a
            # thread hop at that size.
            frame = self.fault_plan.corrupt_frame(  # reprolint: disable=RL502
                encode_message(message), event
            )
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), timeout=self.read_timeout)
        elif event is not None and event.kind is FaultKind.TRUNCATE:
            # Send a prefix, then EOF: the daemon sees a cut frame.
            writer.write(
                self.fault_plan.truncate_frame(encode_message(message), event)
            )
            await asyncio.wait_for(writer.drain(), timeout=self.read_timeout)
            writer.write_eof()
        else:
            await write_message(writer, message, timeout=self.read_timeout)
        return await asyncio.wait_for(read_message(reader), timeout=self.read_timeout)

    async def _request_once(self, message: Message) -> Message:
        event = None
        if self.fault_plan is not None:
            # Fault decisions hash a handful of label strings (a seeded
            # deterministic draw, microseconds), never the payload.
            event = self.fault_plan.decide(  # reprolint: disable=RL502
                operation_name(message),
                getattr(message, "key", ""),
                side="client",
                scope=self.fault_scope,
            )
        if event is not None and event.kind is FaultKind.DROP:
            # The network ate the request before it left the host.
            raise ConnectionResetError("fault injection: client connection dropped")
        if event is not None and event.kind is FaultKind.DELAY:
            await asyncio.sleep(self.fault_plan.rule(event).delay)
        pool = self._pool_for_loop()
        for attempt in (0, 1):
            conn = await pool.acquire(fresh=attempt > 0)
            reused = conn.reused
            try:
                response = await self._converse(conn, message, event)
            except BaseException as exc:
                pool.release(conn, discard=True)
                # A reused stream that dies on first touch usually means
                # the daemon closed it between our requests.  Reconnect
                # once on a guaranteed-fresh stream; anything else (a
                # fresh-stream failure, a timeout, an injected fault)
                # goes to the normal retry/backoff path.
                stale_stream = isinstance(
                    exc, (OSError, asyncio.IncompleteReadError)
                ) and not isinstance(exc, asyncio.TimeoutError)
                if attempt == 0 and reused and event is None and stale_stream:
                    self._m_reconnects.inc()
                    continue
                raise
            # A stream that carried a deliberately mangled frame is out
            # of protocol sync; never return it to the pool.
            poisoned = event is not None and event.kind in (
                FaultKind.TRUNCATE,
                FaultKind.CORRUPT,
            )
            pool.release(conn, discard=poisoned)
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def _instruments(self, message: Message) -> tuple:
        """The per-opcode (requests counter, rpc histogram) pair."""
        key = type(message).__name__
        cached = self._op_instruments.get(key)
        if cached is None:
            op = operation_name(message)
            peer = f"{self.host}:{self.port}"
            cached = self._op_instruments[key] = (
                self.obs.counter("client.requests_total", peer=peer, op=op),
                self.obs.histogram("client.rpc_ns", peer=peer, op=op),
            )
        return cached

    async def request(self, message: Message) -> Message:
        """Send one request, retrying transport failures with backoff.

        A reply whose payload fails its CRC32 changed in transit, like a
        cut one, so it is retried too; a persistently failing peer
        raises :class:`PeerUnavailableError`.  The recorded RPC latency
        (``client.rpc_ns``) is what the caller perceived: retries and
        their backoff sleeps included.
        """
        start = now_ns() if self.obs.enabled else 0
        last: Exception | None = None
        for attempt in range(self.retry.retries + 1):
            try:
                response = await self._request_once(message)
            except (
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ChecksumError,
            ) as exc:
                self._m_failures.inc()
                last = exc
                if attempt < self.retry.retries:
                    await asyncio.sleep(self.retry.delay(attempt))
                continue
            counter, histogram = self._instruments(message)
            counter.inc()
            if start:
                histogram.observe(now_ns() - start)
            if isinstance(response, Error):
                raise RemoteError(response.code, response.message)
            return response
        raise PeerUnavailableError(
            f"peer {self.host}:{self.port} unreachable after "
            f"{self.retry.retries + 1} attempts: {last!r}"
        ) from last

    async def aclose(self) -> None:
        """Close any pooled streams.  The client stays usable after."""
        pool, loop = self._pool, self._pool_loop
        self._pool = None
        self._pool_loop = None
        if pool is None:
            return
        if asyncio.get_running_loop() is loop:
            await pool.aclose()
        else:
            # The pool belongs to a loop that is gone; a graceful close
            # cannot await on it, so just drop the transports.
            pool.abandon()

    async def _expect(self, message: Message, response_type: type) -> Message:
        response = await self.request(message)
        if not isinstance(response, response_type):
            raise ProtocolError(
                f"expected {response_type.__name__}, peer sent "
                f"{type(response).__name__}"
            )
        return response

    # ------------------------------------------------------------------
    # typed requests
    # ------------------------------------------------------------------

    async def ping(self) -> bool:
        """Liveness probe; returns True or raises PeerUnavailableError."""
        await self._expect(Ping(), Ok)
        return True

    async def is_alive(self) -> bool:
        """Like :meth:`ping` but returns False instead of raising."""
        try:
            return await self.ping()
        except PeerUnavailableError:
            return False

    async def store_piece(self, key: str, blob: bytes) -> None:
        """Upload a serialized piece to the peer's blockstore."""
        await self._expect(StorePiece(key=key, blob=blob), Ok)

    async def get_piece(self, key: str) -> bytes:
        """Download the full serialized piece stored under ``key``."""
        response = await self._expect(GetPiece(key=key), PieceData)
        return response.blob

    async def get_coefficients(self, key: str) -> bytes:
        """Download only the coefficient rows (a zero-data-width piece)."""
        response = await self._expect(
            GetPiece(key=key, coeffs_only=True), PieceData
        )
        return response.blob

    async def get_rows(self, key: str, rows, field: GaloisField) -> np.ndarray:
        """Download the selected data fragments of a piece."""
        response = await self._expect(
            GetRows(key=key, rows=tuple(int(row) for row in rows)), Rows
        )
        return response.to_matrix(field)

    async def repair_read(self, key: str) -> bytes:
        """Ask the peer for one helper-side coded fragment (fig. 2a)."""
        response = await self._expect(RepairRead(key=key), FragmentData)
        return response.blob

    async def get_stats(self) -> dict:
        """Fetch the peer daemon's metrics snapshot (STATS opcode).

        Validates the payload's self-declared version; a daemon speaking
        a different snapshot schema raises :class:`ProtocolError`.
        """
        response = await self._expect(GetStats(), StatsData)
        snapshot = response.to_snapshot()
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ProtocolError(
                f"peer sent snapshot format {snapshot.get('format')!r}, "
                f"expected {SNAPSHOT_FORMAT!r}"
            )
        return snapshot
