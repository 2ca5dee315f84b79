"""Life-cycle coordination over live peers: insert, repair, reconstruct.

The :class:`Coordinator` is the networked counterpart of the simulator's
maintenance logic: it owns the code (:class:`RandomLinearRegeneratingCode`)
and drives real daemons through :class:`repro.net.client.PeerClient`.

**Insertion** encodes locally and scatters the k + h pieces round-robin
over the given peers, skipping dead ones.

**Maintenance** contacts ``d`` live helpers with REPAIR_READ -- each
helper computes its random combination server-side and uploads one
fragment -- then synthesizes the newcomer's piece locally and stores it
on the newcomer peer.  Dead helpers are substituted from the remaining
survivors while at least ``d`` remain; otherwise :class:`NetRepairError`.

**Reconstruction** moves the bytes of the coefficient-first download
(paper section 3.2 / 4.3): ``n_file`` data fragments plus the small
coefficient overhead -- "without paying any extra-cost", now measured on
a real wire.  Scan-order selection keeps the first ``n_file`` rows
whenever they are independent, so one probe round downloads the first
``n_file // n_piece`` pieces whole and the rest of the k as coefficients
only; after the plan, one GET_ROWS fetches the split piece's rows.

The record of every operation comes back in a stats dataclass so tests
and benchmarks can assert the paper's traffic accounting.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import pathlib
from collections.abc import Iterator

import numpy as np

from repro.core.params import RCParams
from repro.core.regenerating import DecodingError, RandomLinearRegeneratingCode
from repro.core.blocks import Piece
from repro.core.serialization import (
    HEADER_SIZE,
    SerializationError,
    fragment_from_bytes,
    piece_from_bytes,
    piece_to_bytes,
)
from repro.gf import linalg
from repro.gf.field import GF
from repro.net.client import PeerClient, RetryPolicy
from repro.net.errors import (
    InsufficientPeersError,
    NetError,
    NetReconstructError,
    NetRepairError,
    PeerUnavailableError,
    ProtocolError,
    RemoteError,
)
from repro.net.faults import FaultPlan
from repro.obs import MetricsRegistry, Span

#: A peer answered, but what it said is unusable: a typed ERROR reply, a
#: response that does not parse, or a payload failing its integrity
#: check.  In every life-cycle operation the right reaction is the same
#: as for a dead peer -- substitute another piece holder -- because a
#: peer sending garbage is as lost as one sending nothing.
PEER_FAILURES = (
    PeerUnavailableError,
    RemoteError,
    ProtocolError,
    SerializationError,
)

__all__ = [
    "PeerAddress",
    "NetManifest",
    "InsertStats",
    "RepairStats",
    "ReconstructStats",
    "Coordinator",
]

MANIFEST_FORMAT = 1

#: Serialized piece bytes one :meth:`Coordinator.insert` may hold at once,
#: from ``piece_to_bytes`` until the store returns.  A piece larger than
#: this still goes out, alone.  At 8 MiB a 16 MiB RC(8,8,10,1) insert
#: keeps three pieces in flight; smaller files place every piece at once.
_INSERT_BUDGET_BYTES = 8 << 20

#: Per-peer registry counter -> the :meth:`Coordinator.transport_stats`
#: key that sums it over every peer.
_TRANSPORT_COUNTERS = {
    "pool.connections_opened_total": "connections_opened",
    "pool.connections_reused_total": "connections_reused",
    "client.reconnects_total": "pool_reconnects",
    "client.failures_total": "transport_failures",
}


@dataclasses.dataclass(frozen=True)
class PeerAddress:
    """Where a piece lives: the daemon's dial address."""

    host: str
    port: int

    def __str__(self) -> str:
        # IPv6 literals must be bracketed when joined with a port
        # (RFC 3986 host syntax) so parse(str(addr)) round-trips.
        if ":" in self.host:
            return f"[{self.host}]:{self.port}"
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "PeerAddress":
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"peer address must be host:port, got {text!r}")
        if host.startswith("[") and host.endswith("]"):
            # Bracketed IPv6 literal: "[::1]:9000" dials host "::1".
            host = host[1:-1]
            if not host:
                raise ValueError(f"peer address must be host:port, got {text!r}")
        elif ":" in host:
            raise ValueError(
                f"IPv6 peer address must be bracketed [addr]:port, got {text!r}"
            )
        return cls(host=host, port=int(port))


@dataclasses.dataclass
class NetManifest:
    """Everything needed to repair or reconstruct a file from the swarm.

    The networked analogue of the CLI's ``manifest.json``: code
    parameters plus the piece -> peer placement map.  In a deployed
    system this would live in a replicated directory service; here it is
    a JSON file the coordinator updates after each repair.
    """

    file_id: str
    k: int
    h: int
    d: int
    i: int
    q: int
    file_size: int
    pieces: dict[int, PeerAddress] = dataclasses.field(default_factory=dict)

    @property
    def params(self) -> RCParams:
        return RCParams(k=self.k, h=self.h, d=self.d, i=self.i)

    def key(self, index: int) -> str:
        """The blockstore key of piece ``index``."""
        return f"{self.file_id}/{index}"

    # ------------------------------------------------------------------
    # JSON persistence
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": MANIFEST_FORMAT,
                "file_id": self.file_id,
                "k": self.k,
                "h": self.h,
                "d": self.d,
                "i": self.i,
                "q": self.q,
                "file_size": self.file_size,
                "pieces": {
                    str(index): {"host": loc.host, "port": loc.port}
                    for index, loc in sorted(self.pieces.items())
                },
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "NetManifest":
        raw = json.loads(text)
        if raw.get("format") != MANIFEST_FORMAT:
            raise NetError(f"unsupported net-manifest format {raw.get('format')!r}")
        return cls(
            file_id=raw["file_id"],
            k=raw["k"],
            h=raw["h"],
            d=raw["d"],
            i=raw["i"],
            q=raw["q"],
            file_size=raw["file_size"],
            pieces={
                int(index): PeerAddress(host=loc["host"], port=loc["port"])
                for index, loc in raw["pieces"].items()
            },
        )

    def save(self, path) -> None:
        pathlib.Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "NetManifest":
        return cls.from_json(pathlib.Path(path).read_text())


@dataclasses.dataclass(frozen=True)
class InsertStats:
    """Outcome of a networked insertion."""

    manifest: NetManifest
    bytes_uploaded: int
    peers_used: int
    peers_skipped: int


@dataclasses.dataclass(frozen=True)
class RepairStats:
    """Outcome of a networked repair, with the paper's traffic split."""

    index: int
    helpers: tuple[int, ...]          # piece indices that contributed
    helpers_failed: tuple[int, ...]   # contacted but dead/corrupt, substituted
    payload_bytes: int                # d * |fragment| on the wire
    coefficient_bytes: int            # the section-4.1 overhead

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.coefficient_bytes


@dataclasses.dataclass(frozen=True)
class ReconstructStats:
    """Outcome of a networked reconstruction (coefficient-first bytes)."""

    fragments_downloaded: int         # data rows downloaded (n_file unless a draw was dependent)
    payload_bytes: int                # their element bytes
    coefficient_bytes: int            # header + coefficients of every probed piece
    pieces_probed: int                # GET_PIECE requests, whole or coefficients only
    pieces_used: int                  # pieces the decode takes rows from


class Coordinator:
    """Drives the paper's life cycle against real peer daemons."""

    def __init__(
        self,
        params: RCParams,
        field=None,
        rng: np.random.Generator | None = None,
        connect_timeout: float = 5.0,
        read_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.code = RandomLinearRegeneratingCode(
            params, field=field if field is not None else GF(16), rng=rng
        )
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: Optional fault plan handed to every client this coordinator
        #: opens (client-side injection; daemons hold their own hook).
        self.fault_plan = fault_plan
        #: The obs registry every client (and its pool) shares with this
        #: coordinator, so :meth:`metrics_snapshot` covers the whole
        #: client-side stack.  Defaults to a fresh registry honouring
        #: the ``REPRO_OBS`` switch.
        self.obs = registry if registry is not None else MetricsRegistry()
        self._clients: dict[PeerAddress, PeerClient] = {}

    @classmethod
    def from_manifest(
        cls, manifest: NetManifest, rng: np.random.Generator | None = None, **kwargs
    ) -> "Coordinator":
        return cls(manifest.params, field=GF(manifest.q), rng=rng, **kwargs)

    @property
    def params(self) -> RCParams:
        return self.code.params

    @property
    def field(self):
        return self.code.field

    def client(self, location: PeerAddress) -> PeerClient:
        """The client for one peer, with this coordinator's timeout policy.

        One :class:`PeerClient` (and hence one connection pool) is kept
        per :class:`PeerAddress` for the coordinator's lifetime, so the
        retry loops in insert/repair/reconstruct reuse warm streams
        instead of dialing the peer anew on every attempt.  Close the
        pools with :meth:`aclose` (or use the coordinator as an async
        context manager).
        """
        client = self._clients.get(location)
        if client is None:
            client = PeerClient(
                location.host,
                location.port,
                connect_timeout=self.connect_timeout,
                read_timeout=self.read_timeout,
                retry=self.retry,
                fault_plan=self.fault_plan,
                registry=self.obs,
            )
            self._clients[location] = client
        return client

    async def aclose(self) -> None:
        """Close every cached client's pooled connections.

        Their counts stay in :attr:`obs`, which outlives every pool.
        """
        clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            await client.aclose()

    async def __aenter__(self) -> "Coordinator":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def transport_stats(self) -> dict[str, int]:
        """Connection counters over this coordinator's lifetime.

        Each key sums one per-peer counter of :attr:`obs` over every
        peer, so the totals survive :meth:`aclose` and a loop switch.
        Under ``REPRO_OBS=off`` the registry records nothing and every
        key reads zero.
        """
        totals = dict.fromkeys(_TRANSPORT_COUNTERS.values(), 0)
        for entry in self.obs.snapshot()["counters"]:
            key = _TRANSPORT_COUNTERS.get(entry["name"])
            if key is not None:
                totals[key] += entry["value"]
        return totals

    def metrics_snapshot(self) -> dict:
        """The coordinator-side registry as ``repro-obs-snapshot-v1``.

        Covers every instrument recorded by this coordinator and the
        clients/pools it opened: per-op-class latency histograms with
        p50/p95/p99 (``coordinator.op_ns``), span phase timings
        (``span.*``), per-peer RPC latencies and failure counters, and
        placement/substitution counts.
        """
        return self.obs.snapshot()

    @contextlib.contextmanager
    def _operation(self, op: str) -> Iterator[Span]:
        """One life-cycle operation: its root span, then its latency in
        ``coordinator.op_ns`` on success or its ``NetError`` type in
        ``coordinator.errors_total`` on failure."""
        span = self.obs.span(op)
        try:
            with span:
                yield span
        except NetError as exc:
            self.obs.counter(
                "coordinator.errors_total", op=op, error=type(exc).__name__
            ).inc()
            raise
        self.obs.histogram("coordinator.op_ns", op=op).observe(span.duration_ns)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    async def insert(
        self, data: bytes, peers: list[PeerAddress], file_id: str
    ) -> InsertStats:
        """Encode ``data`` and scatter the k + h pieces over ``peers``.

        Pieces are placed round-robin; a peer that is dead (or rejects
        the upload) is skipped and the piece moves on to the next
        candidate.  Raises :class:`InsufficientPeersError` -- with the
        partial placement attached for cleanup -- when any piece cannot
        be placed anywhere.
        """
        with self._operation("insert") as span:
            if not peers:
                raise InsufficientPeersError("insertion needs at least one peer")
            # Encoding a large file is CPU-heavy GF matmul work; run it off the
            # event loop so the daemon keeps serving while the kernel fans out
            # across REPRO_GF_WORKERS threads.  The encode child span is the
            # CPU half of the paper's Table-1 split; the place/store_rpc spans
            # are the transfer half.
            with span.child("encode"):
                encoded = await asyncio.to_thread(self.code.insert, data)
            manifest = NetManifest(
                file_id=file_id,
                k=self.params.k,
                h=self.params.h,
                d=self.params.d,
                i=self.params.i,
                q=self.field.q,
                file_size=len(data),
            )
            dead: set[PeerAddress] = set()
            in_flight = 0
            room = asyncio.Condition()

            async def place(piece) -> tuple[int, PeerAddress, int] | None:
                nonlocal in_flight
                size = HEADER_SIZE + piece.storage_bytes(self.field)
                async with room:
                    await room.wait_for(
                        lambda: not in_flight or in_flight + size <= _INSERT_BUDGET_BYTES
                    )
                    in_flight += size
                try:
                    return await store(piece)
                finally:
                    async with room:
                        in_flight -= size
                        room.notify_all()

            async def store(piece) -> tuple[int, PeerAddress, int] | None:
                blob = piece_to_bytes(piece, self.field)
                for step in range(len(peers)):
                    location = peers[(piece.index + step) % len(peers)]
                    if location in dead:
                        continue
                    try:
                        with span.child("store_rpc"):
                            await self.client(location).store_piece(
                                manifest.key(piece.index), blob
                            )
                        return piece.index, location, len(blob)
                    except PeerUnavailableError:
                        dead.add(location)
                    except (RemoteError, ProtocolError):
                        # The peer is alive but would not take this upload
                        # (e.g. the blob was mangled in transit and failed
                        # ingress CRC).  Try the next peer; do not blacklist.
                        continue
                return None  # homeless: reported collectively below

            with span.child("place"):
                placements = await asyncio.gather(
                    *(place(piece) for piece in encoded.pieces)
                )
            uploaded = 0
            unplaced = []
            for piece, placement in zip(encoded.pieces, placements):
                if placement is None:
                    unplaced.append(piece.index)
                    continue
                index, location, nbytes = placement
                manifest.pieces[index] = location
                uploaded += nbytes
            if unplaced:
                # Every placement task has settled by now: no dangling
                # uploads, and the partial placement is in the exception so
                # the caller can clean up or retry the missing pieces.
                raise InsufficientPeersError(
                    f"pieces {unplaced} found no live peer "
                    f"({len(dead)}/{len(peers)} peers dead); "
                    f"{len(manifest.pieces)} of {len(encoded.pieces)} pieces placed",
                    placed=manifest.pieces,
                    unplaced=unplaced,
                )
            used = {location for location in manifest.pieces.values()}
            self.obs.counter("coordinator.pieces_placed_total").inc(len(manifest.pieces))
            return InsertStats(
                manifest=manifest,
                bytes_uploaded=uploaded,
                peers_used=len(used),
                peers_skipped=len(dead),
            )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    async def repair(
        self,
        manifest: NetManifest,
        lost_index: int,
        newcomer: PeerAddress,
    ) -> RepairStats:
        """Regenerate piece ``lost_index`` onto ``newcomer``.

        Contacts ``d`` helpers concurrently; a helper that is dead,
        holds a corrupt piece, or uploads a fragment that fails to parse
        is replaced by the next surviving piece holder.  Fails with
        :class:`NetRepairError` once fewer than ``d`` candidates remain
        -- the durability boundary of the code.  Updates ``manifest`` in
        place on success.
        """
        with self._operation("repair") as span:
            d = self.params.d
            candidates = [
                (index, location)
                for index, location in sorted(manifest.pieces.items())
                if index != lost_index
            ]
            if len(candidates) < d:
                raise NetRepairError(
                    f"repair of piece {lost_index} needs d={d} helpers, only "
                    f"{len(candidates)} pieces remain"
                )

            async def contribute(index: int, location: PeerAddress):
                # One helper contact: the RPC that asks a participant for its
                # server-side combination (or discovers the helper is gone).
                with span.child("probe"):
                    blob = await self.client(location).repair_read(manifest.key(index))
                # Parse here so a fragment mangled on the wire (CRC failure,
                # cut frame reassembled wrong) fails *this* helper and gets
                # substituted, instead of aborting the whole repair.
                fragment, field = fragment_from_bytes(blob)
                if field != self.field:
                    raise SerializationError(
                        f"helper {index} sent a fragment over {field}, "
                        f"expected {self.field}"
                    )
                return index, fragment

            fragments: list[tuple[int, object]] = []
            failed: list[int] = []
            selected, remaining = candidates[:d], candidates[d:]
            with span.child("fetch_fragments"):
                while selected:
                    outcomes = await asyncio.gather(
                        *(contribute(index, location) for index, location in selected),
                        return_exceptions=True,
                    )
                    for (index, _), outcome in zip(selected, outcomes):
                        if isinstance(outcome, PEER_FAILURES):
                            failed.append(index)
                        elif isinstance(outcome, BaseException):
                            raise outcome
                        else:
                            fragments.append(outcome)
                    missing = d - len(fragments)
                    if missing == 0:
                        break
                    if len(remaining) < missing:
                        raise NetRepairError(
                            f"repair of piece {lost_index}: {len(failed)} helpers "
                            f"failed ({sorted(failed)}) and only {len(remaining)} "
                            f"substitutes remain for {missing} open slots"
                        )
                    selected, remaining = remaining[:missing], remaining[missing:]
            if failed:
                self.obs.counter("coordinator.helpers_substituted_total").inc(len(failed))

            helpers = tuple(index for index, _ in fragments)
            uploads = [fragment for _, fragment in fragments]
            payload = sum(fragment.data_bytes(self.field) for fragment in uploads)
            coefficients = sum(
                fragment.coefficient_bytes(self.field) for fragment in uploads
            )
            with span.child("combine"):
                # The newcomer's piece synthesis: the CPU half of a repair.
                # The GF matmul underneath blocks for the whole combine, so
                # run it off the loop like the reconstruction decode.
                piece = await asyncio.to_thread(
                    self.code.newcomer_repair, uploads, lost_index
                )
                blob = piece_to_bytes(piece, self.field)
            try:
                with span.child("store"):
                    await self.client(newcomer).store_piece(
                        manifest.key(lost_index), blob
                    )
            except PEER_FAILURES as exc:
                # Any way the newcomer can fail the upload -- dead, a typed
                # ERROR refusal, or a garbled reply -- is the same repair
                # failure to the caller; keep the typed-error contract.
                raise NetRepairError(
                    f"newcomer {newcomer} refused the regenerated piece: {exc}"
                ) from exc
            manifest.pieces[lost_index] = newcomer
            return RepairStats(
                index=lost_index,
                helpers=helpers,
                helpers_failed=tuple(failed),
                payload_bytes=payload,
                coefficient_bytes=coefficients,
            )

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------

    async def reconstruct(
        self, manifest: NetManifest
    ) -> tuple[bytes, ReconstructStats]:
        """Download and decode the file: one probe round, then one GET_ROWS.

        Scan-order extraction keeps the first ``n_file`` coefficient rows
        whenever they are independent, which all but ~1/(2^q - 1) of draws
        are.  So the plan uses the first ``n_file // n_piece`` pieces whole
        and splits one more.  The probe round downloads those pieces whole
        (GET_PIECE) and the rest of the k as coefficients only; the plan is
        made from all their coefficient rows, and GET_ROWS fetches only the
        selected rows not already held -- normally the split piece's
        ``n_file mod n_piece``.  The bytes moved equal the paper's
        coefficient-first download.

        A probe that meets a dead, corrupt or garbled holder is replaced by
        the next candidate with the same request; a rank-deficient stack
        tops up with coefficient-only probes; a piece whose holder dies
        before its GET_ROWS is dropped and the plan recomputed -- the
        mirror image of repair's dead-helper substitution.
        """
        with self._operation("reconstruct") as span:
            plan, stacked, stats = await self._download_selection(manifest, span)
            # The final decode is the other big GF product; keep the event
            # loop free while the blocked kernel runs.
            with span.child("decode"):
                original = await asyncio.to_thread(
                    linalg.gf_matmul, self.field, plan.inverse, stacked
                )
            del stacked
            # One copy from the decoded matrix to the caller's bytes.
            data = bytes(
                self.field.elements_to_buffer(original.reshape(-1))[: manifest.file_size]
            )
            return data, stats

    async def _download_selection(self, manifest: NetManifest, span: Span):
        """The plan, its ``n_file`` selected data rows stacked, and the stats.

        Every frame it downloads is dropped on return, so the caller's
        decode allocates its output beside the stack alone.
        """
        candidates = list(sorted(manifest.pieces.items()))
        n_whole = self.params.n_file // self.params.n_piece
        # Probed pieces as (index, location, piece); the plan stacks the
        # whole ones first, so scan order selects their rows.
        whole: list[tuple[int, PeerAddress, Piece]] = []
        partial: list[tuple[int, PeerAddress, Piece]] = []
        probed = rows_downloaded = payload = coefficient_bytes = 0

        async def probe(index: int, location: PeerAddress, is_whole: bool):
            client, key = self.client(location), manifest.key(index)
            if is_whole:
                blob = await client.get_piece(key)
            else:
                blob = await client.get_coefficients(key)
            piece, field = piece_from_bytes(blob)
            if field != self.field:
                raise NetReconstructError(
                    f"piece {index} encoded over {field}, expected {self.field}"
                )
            return is_whole, (index, location, piece), len(blob)

        want = self.params.k
        while True:
            # The probe downloads plus the rank selection/inversion are one
            # "plan" span per attempt.
            with span.child("plan"):
                while len(whole) + len(partial) < want and candidates:
                    missing = want - len(whole) - len(partial)
                    batch, candidates = candidates[:missing], candidates[missing:]
                    # A failed whole probe leaves a whole slot open, so its
                    # substitute is fetched whole too.
                    whole_slots = n_whole - len(whole)
                    probed += len(batch)
                    outcomes = await asyncio.gather(
                        *(
                            probe(index, location, slot < whole_slots)
                            for slot, (index, location) in enumerate(batch)
                        ),
                        return_exceptions=True,
                    )
                    for outcome in outcomes:
                        if isinstance(outcome, PEER_FAILURES):
                            continue  # dead, corrupt, or garbled peer: skip it
                        if isinstance(outcome, BaseException):
                            raise outcome
                        is_whole, (index, location, piece), nbytes = outcome
                        (whole if is_whole else partial).append((index, location, piece))
                        # A whole blob is header + coefficients + data rows;
                        # the rows are payload, the rest coefficient overhead.
                        coefficient_bytes += nbytes - piece.data.nbytes
                        payload += piece.data.nbytes
                        if is_whole:
                            rows_downloaded += piece.n_piece
                collected = whole + partial
                if len(collected) < self.params.k:
                    raise NetReconstructError(
                        f"only {len(collected)} pieces reachable, need at least "
                        f"k={self.params.k}"
                    )
                try:
                    # Rank selection + inversion over the coefficient
                    # matrix is the other CPU spike of a reconstruction;
                    # off the loop so concurrent ops keep flowing.
                    plan = await asyncio.to_thread(
                        self.code.plan_reconstruction,
                        [piece for _, _, piece in collected],
                    )
                except DecodingError as exc:
                    if not candidates:
                        raise NetReconstructError(
                            f"reachable pieces do not span the file: {exc}"
                        ) from exc
                    want = len(collected) + 1  # probe one more piece and retry
                    continue

            # Fetch the selected rows the whole pieces do not hold.
            wanted: dict[int, list[int]] = {}
            for position, row in plan.selection:
                if position >= len(whole):
                    wanted.setdefault(position, []).append(row)

            async def fetch_rows(position: int):
                index, location, _ = collected[position]
                matrix = await self.client(location).get_rows(
                    manifest.key(index), wanted[position], self.field
                )
                return position, matrix

            with span.child("fetch"):
                outcomes = await asyncio.gather(
                    *(fetch_rows(position) for position in wanted),
                    return_exceptions=True,
                )
            matrices: dict[int, np.ndarray] = {}
            for outcome in outcomes:
                if isinstance(outcome, PEER_FAILURES):
                    continue
                if isinstance(outcome, BaseException):
                    raise outcome
                position, matrix = outcome
                matrices[position] = matrix
                payload += matrix.nbytes
                rows_downloaded += matrix.shape[0]
            lost = [position for position in wanted if position not in matrices]
            if lost:
                # A piece died after its probe: drop it, re-plan.
                for position in sorted(lost, reverse=True):
                    del partial[position - len(whole)]
                want = max(self.params.k, len(whole) + len(partial))
                continue

            # Stack the planned rows in selection order.
            cursor = dict.fromkeys(wanted, 0)
            rows = []
            for position, row in plan.selection:
                if position < len(whole):
                    rows.append(whole[position][2].data[row])
                else:
                    rows.append(matrices[position][cursor[position]])
                    cursor[position] += 1
            stats = ReconstructStats(
                fragments_downloaded=rows_downloaded,
                payload_bytes=payload,
                coefficient_bytes=coefficient_bytes,
                pieces_probed=probed,
                pieces_used=len({position for position, _ in plan.selection}),
            )
            return plan, np.stack(rows), stats
