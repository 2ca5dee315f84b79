"""How many bytes an insert or a reconstruct keeps alive.

Two contracts of the piece path:

- ``Coordinator.insert`` holds at most ``max(budget, one piece)``
  serialized bytes between ``piece_to_bytes`` and the end of the store,
  and still places every piece (or reports the partial placement).
- On a live cluster the tracemalloc peak of an insert and of a
  reconstruct stays a small multiple of the file: every hop of a piece
  copies it at most once and nothing pins a finished exchange.
"""

from __future__ import annotations

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.core.serialization import HEADER_SIZE
from repro.net import Coordinator, LocalCluster, coordinator as coordinator_module
from repro.net.coordinator import PeerAddress
from repro.net.errors import InsufficientPeersError, PeerUnavailableError, RemoteError

PARAMS = RCParams(4, 4, 5, 1)
MIB = 1 << 20


class _Ledger:
    """Serialized piece bytes alive inside one insert."""

    def __init__(self):
        self.live = 0
        self.peak = 0
        self.stored: dict[str, int] = {}
        self.refusals: dict[str, int] = {}

    def serialized(self, blob) -> None:
        self.live += len(blob)
        self.peak = max(self.peak, self.live)

    def released(self, blob) -> None:
        self.live -= len(blob)


class _RecordingClient:
    """A peer that takes its time storing, refusing the keys it is told to.

    A key every peer refuses is given up by the insert after its last
    refusal, which is when its blob leaves the ledger.
    """

    def __init__(self, ledger: _Ledger, peers: int, dead: bool, refuse):
        self.ledger = ledger
        self.peers = peers
        self.dead = dead
        self.refuse = refuse

    async def store_piece(self, key: str, blob) -> None:
        await asyncio.sleep(0.002)  # let every other placement start
        if self.dead:
            raise PeerUnavailableError("peer is down")
        if self.refuse(key):
            refusals = self.ledger.refusals[key] = self.ledger.refusals.get(key, 0) + 1
            if refusals == self.peers:
                self.ledger.released(blob)
            raise RemoteError(2, "refused")
        self.ledger.stored[key] = len(blob)
        self.ledger.released(blob)


def _instrumented(monkeypatch, budget, dead=(), refuse=lambda key: False):
    """A coordinator whose peers and serializer report to a ledger."""
    ledger = _Ledger()
    real = coordinator_module.piece_to_bytes

    def piece_to_bytes(piece, field):
        blob = real(piece, field)
        ledger.serialized(blob)
        return blob

    monkeypatch.setattr(coordinator_module, "piece_to_bytes", piece_to_bytes)
    if budget is not None:
        monkeypatch.setattr(coordinator_module, "_INSERT_BUDGET_BYTES", budget)
    coordinator = Coordinator(PARAMS, rng=np.random.default_rng(5))
    peers = [PeerAddress("peer", port) for port in range(PARAMS.k + PARAMS.h)]
    clients = {
        address: _RecordingClient(ledger, len(peers), number in dead, refuse)
        for number, address in enumerate(peers)
    }
    coordinator.client = clients.__getitem__
    return coordinator, peers, ledger


def _piece_bytes(file_size: int) -> int:
    """The serialized size of one piece of a ``file_size``-byte file."""
    coordinator = Coordinator(PARAMS, rng=np.random.default_rng(0))
    piece = coordinator.code.insert(bytes(file_size)).pieces[0]
    return HEADER_SIZE + piece.storage_bytes(coordinator.field)


def _insert(coordinator, data, peers):
    return asyncio.run(asyncio.wait_for(coordinator.insert(data, peers, "f"), 30))


class TestInsertBudget:
    DATA = bytes(range(256)) * 64  # 16 KiB

    @pytest.mark.parametrize("pieces", [1, 2.5, 5])
    def test_bytes_in_flight_never_exceed_the_budget(self, monkeypatch, pieces):
        piece = _piece_bytes(len(self.DATA))
        budget = int(pieces * piece)
        coordinator, peers, ledger = _instrumented(monkeypatch, budget)
        stats = _insert(coordinator, self.DATA, peers)
        assert ledger.peak <= max(budget, piece)
        assert ledger.peak >= piece * int(pieces)  # the budget is used, not idle
        assert len(stats.manifest.pieces) == PARAMS.total_pieces
        assert len(ledger.stored) == PARAMS.total_pieces
        assert ledger.live == 0

    def test_a_piece_larger_than_the_budget_goes_out_alone(self, monkeypatch):
        piece = _piece_bytes(len(self.DATA))
        coordinator, peers, ledger = _instrumented(monkeypatch, piece // 3)
        stats = _insert(coordinator, self.DATA, peers)
        assert ledger.peak == piece
        assert len(stats.manifest.pieces) == PARAMS.total_pieces

    def test_small_files_place_every_piece_at_once(self, monkeypatch):
        coordinator, peers, ledger = _instrumented(monkeypatch, None)
        _insert(coordinator, self.DATA, peers)
        assert ledger.peak == PARAMS.total_pieces * _piece_bytes(len(self.DATA))

    def test_dead_peers_release_their_share(self, monkeypatch):
        piece = _piece_bytes(len(self.DATA))
        coordinator, peers, ledger = _instrumented(
            monkeypatch, 2 * piece, dead=(0, 3, 4)
        )
        stats = _insert(coordinator, self.DATA, peers)
        assert ledger.peak <= 2 * piece
        assert len(stats.manifest.pieces) == PARAMS.total_pieces
        assert {peers[0], peers[3], peers[4]}.isdisjoint(stats.manifest.pieces.values())

    def test_partial_placement_is_still_reported(self, monkeypatch):
        piece = _piece_bytes(len(self.DATA))
        coordinator, peers, ledger = _instrumented(
            monkeypatch, 2 * piece, refuse=lambda key: int(key.split("/")[1]) % 2 == 1
        )
        with pytest.raises(InsufficientPeersError) as excinfo:
            _insert(coordinator, self.DATA, peers)
        odd = tuple(range(1, PARAMS.total_pieces, 2))
        assert tuple(excinfo.value.unplaced) == odd
        assert sorted(excinfo.value.placed) == list(range(0, PARAMS.total_pieces, 2))
        assert ledger.peak <= 2 * piece
        assert ledger.live == 0


class TestLiveBytes:
    """tracemalloc peaks on RC(8,8,10,1) at 8 MiB, as multiples of the file.

    Measured on CPython 3.11: insert 4.1x and reconstruct 2.7x.  Before
    serialization wrote in place, parsing returned views, inserts were
    budgeted and idle daemon connections dropped their last exchange,
    the same run measured 6.6x and 4.0x.
    """

    FILE_SIZE = 8 * MIB
    INSERT_BOUND = 5.0
    RECONSTRUCT_BOUND = 3.4

    def test_insert_and_reconstruct_peaks(self, tmp_path):
        params = RCParams(8, 8, 10, 1)

        async def scenario():
            async with LocalCluster(params.total_pieces + 1, tmp_path, seed=3) as cluster:
                async with Coordinator(params, rng=np.random.default_rng(3)) as coordinator:
                    # Warm-up: GF tables, pooled connections, daemon threads.
                    warm = await coordinator.insert(bytes(64 * 1024), cluster.addresses, "w")
                    await coordinator.reconstruct(warm.manifest)
                    data = np.random.default_rng(4).bytes(self.FILE_SIZE)
                    tracemalloc.start()
                    try:
                        before = tracemalloc.get_traced_memory()[0]
                        tracemalloc.reset_peak()
                        stats = await coordinator.insert(data, cluster.addresses, "f")
                        inserted = tracemalloc.get_traced_memory()[1] - before
                        before = tracemalloc.get_traced_memory()[0]
                        tracemalloc.reset_peak()
                        restored, _ = await coordinator.reconstruct(stats.manifest)
                        reconstructed = tracemalloc.get_traced_memory()[1] - before
                    finally:
                        tracemalloc.stop()
                    assert restored == data
                    return inserted / len(data), reconstructed / len(data)

        insert_ratio, reconstruct_ratio = asyncio.run(scenario())
        assert insert_ratio < self.INSERT_BOUND, insert_ratio
        assert reconstruct_ratio < self.RECONSTRUCT_BOUND, reconstruct_ratio
