"""The P2P backup system: churn, maintenance, and real coded data.

This is the system the paper targets ("peer-to-peer data backup systems
where the data maintenance due to the high node churn is far more
frequent than data insertion or retrieval", section 5.2) and plans to
deploy into as future work.  The simulator runs *real* encode / repair /
reconstruct operations of any :class:`repro.codes.RedundancyScheme`, so
traffic numbers are measured, not modeled -- only time is simulated.

Flow: peers join with sampled lifetimes; a peer's permanent departure
destroys its blocks; the maintenance policy reacts by scheduling
repairs, each of which contacts live holders, moves real coded bytes,
and takes (pipelined) transfer-plus-computation time; files whose live
blocks can no longer reconstruct are lost.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.codes.base import (
    Block,
    EncodedObject,
    ReconstructError,
    RedundancyScheme,
    RepairError,
)
from repro.core.regenerating import DecodingError
from repro.p2p.availability import AlwaysOnline, AvailabilityModel
from repro.p2p.churn import ExponentialLifetime, LifetimeModel
from repro.p2p.events import EventQueue
from repro.p2p.maintenance import EagerMaintenance, MaintenancePolicy
from repro.p2p.metrics import RepairRecord, SimulationMetrics
from repro.p2p.network import LinkScheduler, NetworkModel, PipelinedComputation
from repro.p2p.peer import Peer
from repro.p2p.placement import PlacementError, choose_peers

__all__ = ["SimulationConfig", "StoredFile", "BackupSystem"]


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run.

    Time units are arbitrary but consistent (tests use hours); bandwidth
    is bits/second with transfer times scaled by ``seconds_per_time_unit``.
    """

    initial_peers: int = 64
    lifetime_model: LifetimeModel = dataclasses.field(
        default_factory=lambda: ExponentialLifetime(mean=500.0)
    )
    #: Transient on/off behaviour; the default never disconnects, which
    #: reproduces the permanent-churn-only model of the cited systems.
    availability_model: AvailabilityModel = dataclasses.field(
        default_factory=AlwaysOnline
    )
    peer_arrival_rate: float = 0.0
    upload_bps: float = 1e6
    download_bps: float = 8e6
    bandwidth_jitter: float = 0.0
    latency_seconds: float = 0.05
    ops_per_second: float = float("inf")
    seconds_per_time_unit: float = 3600.0
    reinsert_on_repair_failure: bool = True
    #: When True, concurrent transfers through one peer's access link
    #: serialize (a repair storm through few helpers takes longer).
    model_link_contention: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_peers < 0:
            raise ValueError("initial_peers cannot be negative")
        if self.peer_arrival_rate < 0:
            raise ValueError("peer_arrival_rate cannot be negative")
        if not 0.0 <= self.bandwidth_jitter < 1.0:
            raise ValueError("bandwidth_jitter must be in [0, 1)")
        if self.seconds_per_time_unit <= 0:
            raise ValueError("seconds_per_time_unit must be positive")


@dataclasses.dataclass
class StoredFile:
    """One backed-up file: its encoded form and where the blocks live."""

    file_id: int
    encoded: EncodedObject
    original_size: int
    holders: dict[int, int]  # block index -> peer id
    lost: bool = False
    repairing: set[int] = dataclasses.field(default_factory=set)
    #: Peers already promised a block by an in-flight repair; excluded
    #: from placement so concurrent repairs cannot collide on one peer.
    reserved_peers: set[int] = dataclasses.field(default_factory=set)

    def live_blocks(self, peers: dict[int, Peer]) -> dict[int, Block]:
        """Blocks reachable right now (alive AND online holders)."""
        live = {}
        for block_index, peer_id in self.holders.items():
            peer = peers.get(peer_id)
            if peer is not None and peer.is_available and self.file_id in peer.stored:
                live[block_index] = peer.stored[self.file_id]
        return live

    def surviving_blocks(self, peers: dict[int, Peer]) -> dict[int, Block]:
        """Blocks that still *exist*, including on offline-but-alive peers.

        Durability is about these; :meth:`live_blocks` is availability.
        """
        surviving = {}
        for block_index, peer_id in self.holders.items():
            peer = peers.get(peer_id)
            if peer is not None and peer.alive and self.file_id in peer.stored:
                surviving[block_index] = peer.stored[self.file_id]
        return surviving


class BackupSystem:
    """The end-to-end backup system driven by a discrete-event loop."""

    def __init__(
        self,
        scheme: RedundancyScheme,
        config: SimulationConfig | None = None,
        policy: MaintenancePolicy | None = None,
        network: NetworkModel | None = None,
    ):
        self.scheme = scheme
        self.config = config if config is not None else SimulationConfig()
        self.policy = policy if policy is not None else EagerMaintenance()
        self.network = (
            network
            if network is not None
            else NetworkModel(latency_seconds=self.config.latency_seconds)
        )
        self.pipeline = PipelinedComputation(self.config.ops_per_second)
        self.links = LinkScheduler() if self.config.model_link_contention else None
        self.rng = np.random.default_rng(self.config.seed)
        self.queue = EventQueue()
        self.peers: dict[int, Peer] = {}
        self.files: dict[int, StoredFile] = {}
        self.metrics = SimulationMetrics()
        self._peer_ids = itertools.count()
        self._file_ids = itertools.count()
        self._bootstrap()

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------

    def _jittered(self, nominal: float) -> float:
        jitter = self.config.bandwidth_jitter
        if jitter == 0.0:
            return nominal
        return nominal * float(self.rng.uniform(1.0 - jitter, 1.0 + jitter))

    def add_peer(self, death_time: float | None = None) -> Peer:
        """Create a live peer and schedule its death.

        ``death_time`` (absolute) overrides the lifetime model --
        trace-driven simulations use this to replay recorded sessions.
        """
        if death_time is None:
            death_time = self.queue.now + self.config.lifetime_model.sample(self.rng)
        if death_time < self.queue.now:
            raise ValueError("death_time cannot be in the past")
        peer = Peer(
            peer_id=next(self._peer_ids),
            join_time=self.queue.now,
            death_time=death_time,
            upload_bps=self._jittered(self.config.upload_bps),
            download_bps=self._jittered(self.config.download_bps),
        )
        self.peers[peer.peer_id] = peer
        self.queue.schedule_at(
            peer.death_time,
            lambda _queue, peer=peer: self._on_peer_death(peer),
            label=f"death:{peer.peer_id}",
        )
        self._schedule_disconnect(peer)
        return peer

    # ------------------------------------------------------------------
    # transient availability
    # ------------------------------------------------------------------

    def _schedule_disconnect(self, peer: Peer) -> None:
        session = self.config.availability_model.sample_online(self.rng)
        if session == float("inf"):
            return
        self.queue.schedule(
            session,
            lambda _queue, peer=peer: self._on_peer_offline(peer),
            label=f"offline:{peer.peer_id}",
        )

    def _on_peer_offline(self, peer: Peer, rejoin_after: float | None = None) -> None:
        """Disconnect ``peer``; rejoin after the model's outage (or the
        explicit ``rejoin_after`` used by trace replay, None = never)."""
        if not peer.alive or not peer.online:
            return
        peer.online = False
        self.metrics.record_disconnect()
        if rejoin_after is None and not isinstance(
            self.config.availability_model, AlwaysOnline
        ):
            rejoin_after = self.config.availability_model.sample_offline(self.rng)
        if rejoin_after is not None:
            self.queue.schedule(
                rejoin_after,
                lambda _queue, peer=peer: self._on_peer_online(peer),
                label=f"online:{peer.peer_id}",
            )
        for file_id in list(peer.stored.keys()):
            stored = self.files.get(file_id)
            if stored is not None and not stored.lost:
                self._maintain(stored)

    def _on_peer_online(self, peer: Peer, schedule_next: bool = True) -> None:
        if not peer.alive:
            return
        peer.online = True
        # Blocks repaired elsewhere during the outage are now duplicates:
        # the wasted work of an over-eager maintenance policy.
        for file_id, block in list(peer.stored.items()):
            stored = self.files.get(file_id)
            if stored is None or stored.holders.get(block.index) != peer.peer_id:
                peer.drop(file_id)
                self.metrics.record_duplicate_dropped()
        if schedule_next:
            self._schedule_disconnect(peer)

    def _bootstrap(self) -> None:
        for _ in range(self.config.initial_peers):
            self.add_peer()
        if self.config.peer_arrival_rate > 0:
            self._schedule_next_arrival()
        interval = self.policy.check_interval()
        if interval is not None:
            self.queue.schedule(interval, self._periodic_maintenance, label="sweep")

    def _periodic_maintenance(self, _queue=None) -> None:
        """Policy-driven periodic sweep over every live file.

        Event-driven maintenance reacts to departures it observes; a
        periodic sweep additionally catches states reached without a
        trigger (e.g. repairs that failed and were never retried).
        """
        for stored in self.files.values():
            if not stored.lost:
                self._maintain(stored)
        interval = self.policy.check_interval()
        if interval is not None:
            self.queue.schedule(interval, self._periodic_maintenance, label="sweep")

    def _schedule_next_arrival(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.config.peer_arrival_rate))
        self.queue.schedule(gap, lambda _queue: self._on_peer_arrival(), label="arrival")

    def _on_peer_arrival(self) -> None:
        self.add_peer()
        self._schedule_next_arrival()

    def live_peers(self) -> list[Peer]:
        """Peers reachable right now (alive and online)."""
        return [peer for peer in self.peers.values() if peer.is_available]

    # ------------------------------------------------------------------
    # time accounting
    # ------------------------------------------------------------------

    def _to_time_units(self, seconds: float) -> float:
        return seconds / self.config.seconds_per_time_unit

    # ------------------------------------------------------------------
    # insertion (section 2.1, phase 1)
    # ------------------------------------------------------------------

    def insert_file(self, data: bytes) -> int:
        """Back up ``data``: encode and place all blocks on distinct peers."""
        file_id = next(self._file_ids)
        encoded = self.scheme.encode(data)
        max_block = max(block.payload_bytes for block in encoded.blocks)
        chosen = choose_peers(
            self.live_peers(), file_id, len(encoded.blocks), max_block, self.rng
        )
        holders = {}
        for block, peer in zip(encoded.blocks, chosen):
            peer.store(file_id, block)
            holders[block.index] = peer.peer_id
        stored = StoredFile(
            file_id=file_id,
            encoded=encoded,
            original_size=len(data),
            holders=holders,
        )
        self.files[file_id] = stored
        self.metrics.record_insert(encoded.storage_bytes())
        self.metrics.sample_storage(self.queue.now, self._total_storage())
        return file_id

    def _total_storage(self) -> int:
        return sum(peer.used_bytes for peer in self.peers.values() if peer.alive)

    # ------------------------------------------------------------------
    # churn and maintenance (section 2.1, phase 2)
    # ------------------------------------------------------------------

    def _on_peer_death(self, peer: Peer) -> None:
        affected_files = list(peer.stored.keys())
        peer.kill()
        if self.links is not None:
            self.links.forget(peer.peer_id)
        self.metrics.record_peer_death(blocks_lost=len(affected_files))
        for file_id in affected_files:
            stored = self.files.get(file_id)
            if stored is not None and not stored.lost:
                self._maintain(stored)

    def _maintain(self, stored: StoredFile) -> None:
        """Apply the policy: schedule repairs for unavailable blocks.

        Durability and availability are distinct: the file is *lost*
        only when the surviving blocks (including those on offline-but-
        alive peers) drop below k; the maintenance policy reacts to the
        *available* count, so it may repair blocks whose holders are
        merely disconnected -- the wasted work lazy policies avoid.
        """
        surviving = stored.surviving_blocks(self.peers)
        if len(surviving) < self.scheme.reconstruction_degree:
            self._declare_lost(stored)
            return
        available = stored.live_blocks(self.peers)
        pending = len(stored.repairing)
        needed = self.policy.repairs_needed(
            live_blocks=min(len(available) + pending, self.scheme.total_blocks),
            total_blocks=self.scheme.total_blocks,
            min_blocks=self.scheme.reconstruction_degree,
        )
        missing = [
            index
            for index in range(self.scheme.total_blocks)
            if index not in available and index not in stored.repairing
        ]
        for block_index in missing[:needed]:
            self._start_repair(stored, block_index)

    def _declare_lost(self, stored: StoredFile) -> None:
        stored.lost = True
        self.metrics.record_file_loss()

    def _start_repair(self, stored: StoredFile, block_index: int) -> None:
        """Execute the repair now; its *effects* land after the repair time."""
        live = stored.live_blocks(self.peers)
        try:
            outcome = self.scheme.repair(stored.encoded, live, block_index)
        except RepairError:
            self._repair_fallback(stored, block_index, live)
            return
        try:
            newcomer = self._choose_newcomer(stored, outcome.block.payload_bytes)
        except PlacementError:
            self.metrics.record_repair_failure()
            return
        uplinks = [
            self.peers[stored.holders[index]].upload_bps for index in outcome.participants
        ]
        payloads = [
            outcome.uploaded_per_participant[index] for index in outcome.participants
        ]
        ops = self.scheme.repair_computation_ops(stored.original_size)
        if self.links is not None:
            sender_ids = [stored.holders[index] for index in outcome.participants]
            upload_durations = [
                self._to_time_units(bytes_ * 8 / up)
                for bytes_, up in zip(payloads, uplinks)
            ]
            drain = self._to_time_units(sum(payloads) * 8 / newcomer.download_bps)
            completion = self.links.schedule_fan_in(
                self.queue.now, sender_ids, upload_durations, newcomer.peer_id, drain
            )
            transfer_units = (
                completion
                - self.queue.now
                + self._to_time_units(self.network.latency_seconds)
            )
            cpu_units = self._to_time_units(self.pipeline.seconds_for_ops(ops))
            duration = max(transfer_units, cpu_units)
        else:
            transfer = self.network.fan_in_seconds(
                payloads, uplinks, newcomer.download_bps
            )
            duration = self._to_time_units(self.pipeline.plan(transfer, ops).total_seconds)
        stored.repairing.add(block_index)
        stored.reserved_peers.add(newcomer.peer_id)
        self.queue.schedule(
            duration,
            lambda _queue: self._finish_repair(stored, block_index, outcome, newcomer, duration),
            label=f"repair:{stored.file_id}:{block_index}",
        )

    def _choose_newcomer(self, stored: StoredFile, payload_bytes: int) -> Peer:
        """A live peer with no block of this file and no pending promise."""
        candidates = [
            peer
            for peer in self.live_peers()
            if peer.peer_id not in stored.reserved_peers
        ]
        return choose_peers(candidates, stored.file_id, 1, payload_bytes, self.rng)[0]

    def _finish_repair(self, stored, block_index, outcome, newcomer: Peer, duration) -> None:
        stored.repairing.discard(block_index)
        stored.reserved_peers.discard(newcomer.peer_id)
        if stored.lost:
            return
        if not newcomer.is_available:
            # The newcomer died or disconnected mid-transfer; retry.
            self.metrics.record_repair_failure()
            self._maintain(stored)
            return
        old_holder = stored.holders.get(block_index)
        if old_holder is not None and old_holder in self.peers:
            old_peer = self.peers[old_holder]
            if old_peer.is_available:
                old_peer.drop(stored.file_id)
            # An offline holder keeps its stale copy; it is dropped (and
            # counted as wasted work) when the peer comes back.
        newcomer.store(stored.file_id, outcome.block)
        stored.holders[block_index] = newcomer.peer_id
        self.metrics.record_repair(
            RepairRecord(
                time=self.queue.now,
                file_id=stored.file_id,
                block_index=block_index,
                repair_degree=outcome.repair_degree,
                bytes_downloaded=outcome.bytes_downloaded,
                duration_seconds=duration * self.config.seconds_per_time_unit,
            )
        )
        self.metrics.sample_storage(self.queue.now, self._total_storage())

    def _repair_fallback(
        self, stored: StoredFile, block_index: int, live: dict[int, Block]
    ) -> None:
        """Repair impossible (e.g. survivors < d): restore-and-reinsert.

        Downloads k blocks, reconstructs the file, and re-encodes the
        missing block -- an expensive but availability-preserving path
        real systems fall back to when the repair degree cannot be met.
        """
        if not self.config.reinsert_on_repair_failure:
            self.metrics.record_repair_failure()
            return
        try:
            data = self.scheme.reconstruct(stored.encoded, list(live.values()))
        except (ReconstructError, DecodingError):
            # The live blocks do not span the file -- the one failure
            # this fallback is allowed to absorb.  A genuine defect
            # (TypeError, shape mismatch) or a KeyboardInterrupt must
            # propagate, not masquerade as a repair failure.
            self.metrics.record_repair_failure()
            # Only a *durability* failure loses the file; blocks parked on
            # offline-but-alive peers still count as surviving.
            surviving = stored.surviving_blocks(self.peers)
            if len(surviving) < self.scheme.reconstruction_degree:
                self._declare_lost(stored)
            return
        fresh = self.scheme.encode(data)
        block = fresh.blocks[block_index]
        try:
            newcomer = self._choose_newcomer(stored, block.payload_bytes)
        except PlacementError:
            self.metrics.record_repair_failure()
            return
        # NOTE: re-encoding invalidates cross-block relationships for
        # deterministic schemes, so replace the whole stored object.
        traffic = sum(
            live[index].payload_bytes
            for index in sorted(live)[: self.scheme.reconstruction_degree]
        )
        for index, peer_id in list(stored.holders.items()):
            peer = self.peers.get(peer_id)
            if peer is not None and peer.alive and index in live:
                peer.drop(stored.file_id)
                peer.store(stored.file_id, fresh.blocks[index])
        newcomer.store(stored.file_id, block)
        stored.holders[block_index] = newcomer.peer_id
        stored.encoded = fresh
        self.metrics.record_repair(
            RepairRecord(
                time=self.queue.now,
                file_id=stored.file_id,
                block_index=block_index,
                repair_degree=len(live),
                bytes_downloaded=traffic,
                duration_seconds=0.0,
            )
        )

    # ------------------------------------------------------------------
    # reconstruction (section 2.1, phase 3)
    # ------------------------------------------------------------------

    def restore_file(self, file_id: int) -> bytes:
        """Retrieve a backed-up file from the live peers."""
        stored = self.files[file_id]
        live = stored.live_blocks(self.peers)
        blocks = list(live.values())
        data = self.scheme.reconstruct(stored.encoded, blocks)
        needed = blocks[: self.scheme.reconstruction_degree]
        self.metrics.record_restore(sum(block.payload_bytes for block in needed))
        return data

    # ------------------------------------------------------------------
    # driving the simulation
    # ------------------------------------------------------------------

    def run(self, duration: float, max_events: int | None = None) -> SimulationMetrics:
        """Advance simulated time by ``duration`` and return the metrics."""
        self.queue.run_until(self.queue.now + duration, max_events=max_events)
        return self.metrics

    def live_file_count(self) -> int:
        return sum(1 for stored in self.files.values() if not stored.lost)
