"""The peer daemon: one storage peer serving its blockstore over TCP.

A :class:`PeerDaemon` is the networked analogue of the simulator's
:class:`repro.p2p.peer.Peer`: it holds pieces and answers the life-cycle
requests of :mod:`repro.net.protocol`.  Two properties carry over from
the paper's system model:

- **Helper-side encoding.**  REPAIR_READ computes the participant's
  random linear combination *on the daemon* (fig. 2a), so a repair
  downloads one coded fragment per helper instead of the helper's whole
  piece -- the entire point of Regenerating Codes, now enforced by the
  protocol rather than simulated.
- **One request stream per peer.**  A daemon dispatches one request at
  a time and everything else queues, as a peer host serving its own
  request stream does (see the dispatch lock below).

Connections are **persistent**: the handler loops, serving any number of
sequential requests per connection until the client closes it, a fault
severs it, or it sits idle past ``idle_timeout`` -- the server half of
the client's :class:`~repro.net.pool.ConnectionPool`.  A one-shot
client still works unchanged (it just closes after its one exchange).

Request handlers do blocking work (fsync'd writes, GF row combines,
digest checks), so they run off the event loop, on one dispatch pool
shared by every daemon in the process: one thread per CPU the process
may run on, however many daemons a :class:`~repro.net.cluster.LocalCluster`
hosts.  Each daemon still dispatches one request at a time -- its
blockstore, rng and per-opcode instruments rely on that -- through a
per-daemon lock held on the loop until the dispatch has returned.  That
lock is the daemon's one admission bound: requests from any number of
connections wait for it in arrival order.  STATS alone skips it and
runs inline on the loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import os
import threading

import numpy as np

from repro.core.blocks import Piece
from repro.core.regenerating import participant_contribution
from repro.core.serialization import (
    SerializationError,
    fragment_to_bytes,
    piece_from_bytes,
    piece_to_bytes,
)
from repro.gf.kernels import usable_cpus
from repro.net.blockstore import BlockCorruptionError, BlockStore
from repro.net.errors import ProtocolError
from repro.net.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.protocol import (
    Error,
    ErrorCode,
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
    read_message_sized,
    write_message,
)
from repro.obs import MetricsRegistry, now_ns

__all__ = ["PeerDaemon"]

logger = logging.getLogger(__name__)

_DISPATCH_POOL: concurrent.futures.ThreadPoolExecutor | None = None
_DISPATCH_POOL_LOCK = threading.Lock()


def _dispatch_pool() -> concurrent.futures.ThreadPoolExecutor:
    """The pool every daemon in this process dispatches on, created on
    first use with one ``daemon-dispatch`` thread per usable CPU.

    No dispatch waits on another daemon, so one thread is enough for
    correctness; more only let daemons' dispatches run side by side.
    """
    global _DISPATCH_POOL
    with _DISPATCH_POOL_LOCK:
        if _DISPATCH_POOL is None:
            _DISPATCH_POOL = concurrent.futures.ThreadPoolExecutor(
                max_workers=usable_cpus(), thread_name_prefix="daemon-dispatch"
            )
        return _DISPATCH_POOL


def _drop_dispatch_pool() -> None:
    """A forked child inherits the pool but none of its threads: start over."""
    global _DISPATCH_POOL, _DISPATCH_POOL_LOCK
    _DISPATCH_POOL = None
    _DISPATCH_POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_dispatch_pool)


def _release_on(loop: asyncio.AbstractEventLoop, lock: asyncio.Lock) -> None:
    """Release ``lock`` on its loop from a dispatch thread."""
    try:
        loop.call_soon_threadsafe(lock.release)
    except RuntimeError:
        pass  # the loop has closed: nothing can be waiting on the lock


class PeerDaemon:
    """An asyncio TCP server exposing one blockstore to the swarm.

    Parameters
    ----------
    store:
        The on-disk piece store this peer serves.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read the
        chosen one from :attr:`port` after :meth:`start`).
    rng:
        Randomness for helper-side repair combinations.  Defaults to an
        OS-seeded generator; pass a seeded one for reproducible tests.
    fault_plan:
        Optional :class:`repro.net.faults.FaultPlan`; every request is
        offered to the plan, which may drop, delay, truncate, or corrupt
        the response -- or crash the daemon outright.
    fault_scope:
        Label identifying this daemon to scoped fault rules (a
        :class:`LocalCluster` sets ``"peerNN"``).
    idle_timeout:
        Seconds a persistent connection may sit between requests (and a
        response drain may stall) before the daemon closes it.  ``None``
        (the default) keeps connections forever -- fine for tests and
        trusted clusters; the CLI sets a finite value so abandoned
        pooled streams don't pin file descriptors.
    registry:
        The :class:`repro.obs.MetricsRegistry` this daemon records into
        (and serves over the STATS opcode).  Defaults to a fresh
        registry honouring the ``REPRO_OBS`` switch.  A store without
        its own registry is attached to this one, so blockstore byte and
        fsync metrics show up in the daemon's snapshot.
    """

    def __init__(
        self,
        store: BlockStore,
        host: str = "127.0.0.1",
        port: int = 0,
        rng: np.random.Generator | None = None,
        fault_plan: FaultPlan | None = None,
        fault_scope: str | None = None,
        idle_timeout: float | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        self.store = store
        self.host = host
        self.port = port
        self.rng = rng if rng is not None else np.random.default_rng()
        self.fault_plan = fault_plan
        self.fault_scope = fault_scope
        self.idle_timeout = idle_timeout
        # Serializes start()/stop(): both read-then-rewrite the listener
        # and port across awaits, so concurrent lifecycle calls would
        # otherwise race (two listeners, half-torn shutdown).
        self._lifecycle_lock = asyncio.Lock()
        # Dispatches run on the shared pool, but the blockstore, the rng
        # and the per-opcode instruments are only safe under serialized
        # dispatch: this lock admits one of this daemon's dispatches at a
        # time and is held until that dispatch has returned.  asyncio
        # primitives bind to one loop, so the lock is remade when the
        # daemon is driven by a new one (see _loop_dispatch_lock).
        self._dispatch_lock = asyncio.Lock()
        self._dispatch_loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self.obs = registry if registry is not None else MetricsRegistry()
        if self.store.obs is None:
            self.store.obs = self.obs
        self._bytes_received = self.obs.counter("daemon.bytes_received_total")
        self._bytes_sent = self.obs.counter("daemon.bytes_sent_total")
        self._connections_open = self.obs.gauge("daemon.connections_open")
        self._connections_total = self.obs.counter("daemon.connections_total")
        # Per-opcode (requests counter, handler-latency histogram,
        # queue-wait histogram), cached so the hot request loop never
        # rebuilds label keys.
        self._op_instruments: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        async with self._lifecycle_lock:
            if self._server is not None:
                raise RuntimeError("daemon already started")
            self._loop_dispatch_lock()
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        logger.info("peer daemon listening on %s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, sever open connections, close the listener.

        Persistent connections make closing them part of shutdown: a
        pooled client may hold an idle stream open indefinitely, and on
        Python >= 3.12 ``Server.wait_closed()`` waits for every active
        handler, so leaving them up would hang shutdown forever.
        """
        async with self._lifecycle_lock:
            server, self._server = self._server, None
            if server is not None:
                server.close()
            for writer in list(self._connections):
                writer.close()
            if server is not None:
                await server.wait_closed()
                logger.info("peer daemon on %s:%d stopped", self.host, self.port)
            if self._handlers:
                # Severed handlers wake up on EOF; wait for them to
                # unwind so no task is left to be cancelled noisily at
                # loop teardown.
                await asyncio.gather(*list(self._handlers), return_exceptions=True)
            # A handler cancelled mid-dispatch has unwound while its
            # dispatch may still run, holding the lock: wait it out, so
            # the store is idle (a decommission can wipe it) on return.
            async with self._loop_dispatch_lock():
                pass

    def _loop_dispatch_lock(self) -> asyncio.Lock:
        """The dispatch lock, remade if a new event loop drives the daemon.

        A lock left held under a closed loop can never be released, and
        nothing of that loop's can be waited on any more.
        """
        loop = asyncio.get_running_loop()
        if self._dispatch_loop is not loop:
            self._dispatch_lock = asyncio.Lock()
            self._dispatch_loop = loop
        return self._dispatch_lock

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled -- CLI entry point."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) peers dial; valid after :meth:`start`."""
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._server is not None

    def crash(self) -> None:
        """Simulate a hard crash: stop listening, sever every connection.

        Unlike :meth:`stop`, in-flight requests get no answer -- their
        connections are cut mid-exchange.  The blockstore directory
        survives, so the daemon can be restarted like any crashed peer.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
            logger.info("peer daemon on %s:%d crashed", self.host, self.port)
        for writer in list(self._connections):
            writer.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _decide_fault(self, request: Message) -> FaultEvent | None:
        if self.fault_plan is None:
            return None
        event = self.fault_plan.decide(
            operation_name(request),
            getattr(request, "key", ""),
            side="server",
            scope=self.fault_scope,
        )
        if event is not None:
            self.obs.counter("daemon.faults_total", kind=event.kind.value).inc()
        return event

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        self._connections_total.inc()
        self._connections_open.inc()
        try:
            while True:
                # An idle connection must not pin its last exchange: a
                # STORE_PIECE body or a ROWS view of a stored piece is
                # megabytes, and a pooled stream may idle indefinitely.
                request = response = None
                try:
                    if self.idle_timeout is not None:
                        request, frame_bytes = await asyncio.wait_for(
                            read_message_sized(reader), timeout=self.idle_timeout
                        )
                    else:
                        request, frame_bytes = await read_message_sized(reader)
                except asyncio.TimeoutError:
                    break  # idle past the deadline; reap the connection
                except asyncio.IncompleteReadError:
                    break  # clean EOF between frames
                except ProtocolError as exc:
                    sent = await write_message(
                        writer, Error(code=int(ErrorCode.BAD_REQUEST), message=str(exc))
                    )
                    self._bytes_sent.inc(sent)
                    break  # framing is lost; drop the connection
                self._bytes_received.inc(frame_bytes)
                parsed_ns = now_ns()
                # Fault decisions hash a handful of label strings (a
                # seeded deterministic draw, microseconds); the flagged
                # sha256 never sees request payloads, and the plan's
                # counters live on this loop thread.
                event = self._decide_fault(request)  # reprolint: disable=RL502
                if event is not None and event.kind is FaultKind.CRASH:
                    self.crash()
                    break
                if event is not None and event.kind is FaultKind.DROP:
                    break  # sever without answering
                if event is not None and event.kind is FaultKind.DELAY:
                    # Stall before the dispatch lock: a slow peer must
                    # not block its healthy transfers.
                    await asyncio.sleep(self.fault_plan.rule(event).delay)
                if isinstance(request, GetStats):
                    # STATS snapshots the registry, whose dicts this
                    # loop thread mutates -- it must not hop threads,
                    # and it touches no disk and no GF kernel, so
                    # running it inline cannot stall the loop.
                    response = self._timed_dispatch(  # reprolint: disable=RL502
                        request, parsed_ns
                    )
                else:
                    # Get-or-create the per-opcode instruments here:
                    # registry creation is not thread-safe, so it must
                    # happen on the loop thread; the dispatch thread
                    # then only updates existing instruments.
                    self._instruments(request)
                    response = await self._dispatch_off_loop(request, parsed_ns)
                if event is not None and event.kind is FaultKind.TRUNCATE:
                    frame = self.fault_plan.truncate_frame(
                        encode_message(response), event
                    )
                    writer.write(frame)
                    self._bytes_sent.inc(len(frame))
                    await writer.drain()
                    break  # the rest of the frame is never coming
                if event is not None and event.kind is FaultKind.CORRUPT:
                    # Corruption hashes ~32 bytes per flipped byte from
                    # tiny label seeds, never the frame itself; inline
                    # beats a thread hop at that size.
                    frame = self.fault_plan.corrupt_frame(  # reprolint: disable=RL502
                        encode_message(response), event
                    )
                    writer.write(frame)
                    self._bytes_sent.inc(len(frame))
                    await writer.drain()
                    continue
                try:
                    sent = await write_message(
                        writer, response, timeout=self.idle_timeout
                    )
                    self._bytes_sent.inc(sent)
                except asyncio.TimeoutError:
                    break  # client stopped reading; don't stall the handler
        except (ConnectionResetError, BrokenPipeError):
            logger.debug("connection from %s reset", peername)
        finally:
            self._connections_open.dec()
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_off_loop(self, request: Message, parsed_ns: int) -> Message:
        """Run one dispatch on the shared pool, serialized per daemon.

        The lock is released only once the dispatch has returned -- also
        when this handler is cancelled while it runs -- so the next
        request never overlaps an abandoned one's store write or rng draw.
        """
        lock = self._dispatch_lock
        await lock.acquire()
        try:
            future = _dispatch_pool().submit(self._timed_dispatch, request, parsed_ns)
        except BaseException:
            lock.release()
            raise
        try:
            return await asyncio.wrap_future(future)
        finally:
            if future.done():
                lock.release()
            else:
                # Cancelled while the dispatch runs: its completion
                # releases the lock, on this loop.
                loop = asyncio.get_running_loop()
                future.add_done_callback(lambda _: _release_on(loop, lock))

    def _instruments(self, request: Message) -> tuple:
        """The per-opcode (requests counter, handler histogram, queue-wait
        histogram) triple."""
        key = type(request).__name__
        cached = self._op_instruments.get(key)
        if cached is None:
            op = operation_name(request)
            cached = self._op_instruments[key] = (
                self.obs.counter("daemon.requests_total", op=op),
                self.obs.histogram("daemon.handler_ns", op=op),
                self.obs.histogram("daemon.queue_ns", op=op),
            )
        return cached

    def _timed_dispatch(self, request: Message, parsed_ns: int) -> Message:
        """Dispatch with its queue wait and compute time recorded per opcode.

        The queue wait runs from ``parsed_ns``, when the loop parsed the
        request, to this call: any injected DELAY, this daemon's dispatch
        lock and a free pool thread.  Runs on a dispatch thread (except
        STATS, which stays on the loop); the caller pre-creates this
        opcode's instruments so only updates happen here.
        """
        if not self.obs.enabled:
            return self._dispatch(request)
        _, handler_ns, queue_ns = self._instruments(request)
        start = now_ns()
        queue_ns.observe(start - parsed_ns)
        response = self._dispatch(request)
        handler_ns.observe(now_ns() - start)
        return response

    def _dispatch(self, request: Message) -> Message:
        self._instruments(request)[0].inc()
        try:
            if isinstance(request, Ping):
                return Ok()
            if isinstance(request, StorePiece):
                return self._store_piece(request)
            if isinstance(request, GetPiece):
                return self._get_piece(request)
            if isinstance(request, GetRows):
                return self._get_rows(request)
            if isinstance(request, RepairRead):
                return self._repair_read(request)
            if isinstance(request, GetStats):
                return self._get_stats(request)
            return Error(
                code=int(ErrorCode.BAD_REQUEST),
                message=f"unexpected request type {type(request).__name__}",
            )
        except KeyError as exc:
            return Error(
                code=int(ErrorCode.NOT_FOUND), message=f"no piece stored: {exc}"
            )
        except BlockCorruptionError as exc:
            return Error(code=int(ErrorCode.CORRUPT), message=str(exc))
        except SerializationError as exc:
            return Error(code=int(ErrorCode.CORRUPT), message=str(exc))
        except Exception as exc:  # noqa: BLE001 - daemon must not die on a request
            logger.exception("request failed")
            return Error(code=int(ErrorCode.INTERNAL), message=repr(exc))

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------

    def _store_piece(self, request: StorePiece) -> Message:
        # Parse before storing: a piece that fails its CRC32 (format v2)
        # is rejected at ingress, not discovered at repair time.  The
        # parse checks header and CRC and copies nothing.
        piece_from_bytes(request.blob)
        self.store.put(request.key, request.blob)
        return Ok()

    def _load_piece(self, key: str) -> tuple[Piece, object]:
        return piece_from_bytes(self.store.get(key))

    def _get_piece(self, request: GetPiece) -> Message:
        blob = self.store.get(request.key)
        if not request.coeffs_only:
            return PieceData(blob=blob)
        piece, field = piece_from_bytes(blob)
        # Re-serialize with zero-width data rows: a coefficient-only
        # probe is the (n_piece, n_file) coefficient matrix alone.
        coeffs_only = Piece(
            index=piece.index,
            data=piece.data[:, :0],
            coefficients=piece.coefficients,
        )
        return PieceData(blob=piece_to_bytes(coeffs_only, field))

    def _get_rows(self, request: GetRows) -> Message:
        piece, field = self._load_piece(request.key)
        for row in request.rows:
            if row >= piece.n_piece:
                return Error(
                    code=int(ErrorCode.BAD_REQUEST),
                    message=f"row {row} out of range (piece has {piece.n_piece})",
                )
        rows = request.rows
        if rows and rows == tuple(range(rows[0], rows[0] + len(rows))):
            # A contiguous ascending run (a reconstruction's split piece
            # gives its first rows): a view of the stored blob.
            matrix = piece.data[rows[0] : rows[0] + len(rows)]
        else:
            matrix = piece.data[list(rows), :]
        return Rows.from_matrix(field, matrix)

    def _repair_read(self, request: RepairRead) -> Message:
        """The participant phase of maintenance, computed server-side.

        Needs no code parameters: everything
        :func:`~repro.core.regenerating.participant_contribution` uses is
        in the stored piece itself.
        """
        piece, field = self._load_piece(request.key)
        fragment = participant_contribution(field, piece, self.rng)
        return FragmentData(blob=fragment_to_bytes(fragment, field))

    def _get_stats(self, request: GetStats) -> Message:
        """The STATS opcode: this daemon's registry as versioned JSON."""
        return StatsData.from_snapshot(self.snapshot())

    def snapshot(self) -> dict:
        """The daemon's metrics (including its store's) as a snapshot."""
        return self.obs.snapshot()
