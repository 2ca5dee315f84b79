"""Pooled persistent connections to one peer daemon.

A :class:`ConnectionPool` keeps up to ``size`` open TCP streams to a
single ``(host, port)`` and hands them out one checkout at a time, so a
burst of requests (reconstruction's per-piece GET_ROWS, a multi-chunk
insert storm) pays the connect round-trip once per stream instead of
once per message.  The pool is deliberately small and boring:

- **checkout** (:meth:`acquire`) health-checks each idle stream before
  handing it out -- a stream whose transport is closing or whose reader
  already saw EOF (the daemon stopped, crashed, or reaped it) is
  evicted and replaced by a fresh connection;
- **idle reaping**: streams unused for longer than ``idle_timeout``
  seconds are closed on the next checkout/checkin instead of
  accumulating server-side file descriptors forever;
- **bounded concurrency**: at most ``size`` streams exist at once; a
  request beyond that waits for a checkin;
- **broken-stream eviction**: the caller returns a stream with
  ``discard=True`` whenever the conversation on it ended anywhere but
  cleanly (timeout, cut frame, injected fault) and the pool aborts it
  -- a suspect stream is never reused.

Each of those events -- a fresh connect, an idle checkout, an eviction,
a reap -- is counted once, in the ``pool.connections_*_total{peer}``
counters of the registry the pool was given.  A client hands its pool
its own registry, which outlives the pool, so no count is lost when the
pool is closed or rebuilt for a new event loop.

The pool never starts background tasks, so it is safe to create in
tests and CLIs that tear their event loop down immediately after use.
"""

from __future__ import annotations

import asyncio
import logging

from repro.obs import MetricsRegistry, now_ns

__all__ = ["ConnectionPool", "PooledConnection"]

logger = logging.getLogger(__name__)


class PooledConnection:
    """One open stream to the peer, plus the pool's bookkeeping."""

    __slots__ = ("reader", "writer", "last_used_ns", "reused")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.last_used_ns = now_ns()
        #: True when this checkout came from the idle list rather than a
        #: fresh connect -- the client uses it to decide whether a
        #: failure deserves a transparent reconnect.
        self.reused = False

    def healthy(self) -> bool:
        """Cheap local liveness check (no round trip on the wire)."""
        return not (self.writer.is_closing() or self.reader.at_eof())


class ConnectionPool:
    """Up to ``size`` persistent streams to one ``(host, port)``."""

    def __init__(
        self,
        host: str,
        port: int,
        size: int,
        connect_timeout: float = 5.0,
        idle_timeout: float = 30.0,
        registry: MetricsRegistry | None = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self.connect_timeout = connect_timeout
        self.idle_timeout = idle_timeout
        self._idle: list[PooledConnection] = []
        self._slots = asyncio.Semaphore(size)
        self._closed = False
        #: Where the pool counts fresh connects, idle-list checkouts,
        #: unhealthy streams dropped at checkout and idle streams reaped,
        #: per peer.  The owning client's registry outlives the pool.
        self.obs = registry if registry is not None else MetricsRegistry()
        peer = f"{host}:{port}"
        self._m_opened = self.obs.counter("pool.connections_opened_total", peer=peer)
        self._m_reused = self.obs.counter("pool.connections_reused_total", peer=peer)
        self._m_evicted = self.obs.counter("pool.connections_evicted_total", peer=peer)
        self._m_reaped = self.obs.counter("pool.connections_reaped_total", peer=peer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConnectionPool({self.host}:{self.port}, size={self.size}, "
            f"idle={len(self._idle)})"
        )

    # ------------------------------------------------------------------
    # checkout / checkin
    # ------------------------------------------------------------------

    async def acquire(self, fresh: bool = False) -> PooledConnection:
        """Check out one stream, opening a new connection if needed.

        ``fresh=True`` skips the idle list -- the caller just watched a
        reused stream die and wants a connection that is provably new.
        Waits when all ``size`` streams are checked out.
        """
        await self._slots.acquire()
        try:
            if not fresh:
                self.reap()
                while self._idle:
                    conn = self._idle.pop()
                    if conn.healthy():
                        conn.reused = True
                        self._m_reused.inc()
                        return conn
                    self._m_evicted.inc()
                    self._abort(conn)
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.connect_timeout,
            )
            # Take ownership of the stream *before* the bookkeeping:
            # anything failing between connect and hand-off (a metrics
            # hiccup, KeyboardInterrupt) would otherwise strand the
            # socket -- the outer handler releases the slot but knows
            # nothing about the stream.
            conn = PooledConnection(reader, writer)
            try:
                self._m_opened.inc()
            except BaseException:
                writer.close()
                raise
            return conn
        except BaseException:
            self._slots.release()
            raise

    def release(self, conn: PooledConnection, discard: bool = False) -> None:
        """Check a stream back in (``discard=True``: it is broken/suspect)."""
        keep = (
            not discard
            and not self._closed
            and len(self._idle) < self.size
            and conn.healthy()
        )
        if keep:
            conn.last_used_ns = now_ns()
            conn.reused = False
            self._idle.append(conn)
            self.reap()
        else:
            self._abort(conn)
        self._slots.release()

    # ------------------------------------------------------------------
    # reaping and teardown
    # ------------------------------------------------------------------

    def reap(self) -> int:
        """Close idle streams unused for longer than ``idle_timeout``."""
        now = now_ns()
        limit_ns = self.idle_timeout * 1e9
        stale = [
            conn for conn in self._idle if now - conn.last_used_ns > limit_ns
        ]
        if stale:
            self._idle = [conn for conn in self._idle if conn not in stale]
            for conn in stale:
                self._m_reaped.inc()
                self._abort(conn)
        return len(stale)

    def _abort(self, conn: PooledConnection) -> None:
        """Drop a stream immediately, discarding any unflushed bytes."""
        try:
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
            else:  # pragma: no cover - transport already detached
                conn.writer.close()
        except Exception as exc:  # noqa: BLE001 - teardown must never raise
            logger.debug(
                "aborting pooled stream to %s:%d failed: %r", self.host, self.port, exc
            )

    async def aclose(self) -> None:
        """Close every idle stream; further checkins are discarded.

        The pool stays usable after close -- :meth:`acquire` simply
        opens fresh connections that are closed again on release -- so a
        late retry against a closed coordinator opens a fresh stream
        instead of crashing.
        """
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            try:
                conn.writer.close()
            except Exception as exc:  # noqa: BLE001 - teardown must never raise
                logger.debug("closing pooled stream failed: %r", exc)
                continue
        for conn in idle:
            try:
                await conn.writer.wait_closed()
            except Exception as exc:  # noqa: BLE001 - peer may already be gone
                logger.debug("waiting for pooled stream close failed: %r", exc)
                continue

    def abandon(self) -> None:
        """Best-effort synchronous teardown (e.g. the owning event loop
        is already gone and ``aclose`` can no longer run)."""
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            self._abort(conn)
