"""PeerDaemon request handling over a real socket."""

import asyncio

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.core.regenerating import RandomLinearRegeneratingCode, participant_contribution
from repro.core.serialization import (
    fragment_from_bytes,
    fragment_to_bytes,
    piece_from_bytes,
    piece_to_bytes,
)
from repro.net.blockstore import BlockStore
from repro.net.errors import RemoteError
from repro.net.protocol import ErrorCode
from repro.net.server import PeerDaemon
from tests.net import counted, with_daemon

PARAMS = RCParams(4, 4, 6, 2)


@pytest.fixture()
def code():
    return RandomLinearRegeneratingCode(PARAMS, rng=np.random.default_rng(11))


@pytest.fixture()
def encoded(code, sample_data):
    return code.insert(sample_data)


class TestRequests:
    def test_ping(self, tmp_path):
        async def scenario(daemon, client):
            assert await client.ping() is True
            assert counted(daemon, "daemon.requests_total", op="ping") == 1
            assert counted(daemon, "daemon.requests_total") == 1

        with_daemon(tmp_path, scenario)

    def test_store_then_get_roundtrip(self, tmp_path, code, encoded):
        blob = piece_to_bytes(encoded.pieces[0], code.field)

        async def scenario(daemon, client):
            await client.store_piece("f/0", blob)
            assert await client.get_piece("f/0") == blob

        with_daemon(tmp_path, scenario)

    def test_get_missing_piece_is_not_found(self, tmp_path):
        async def scenario(daemon, client):
            with pytest.raises(RemoteError) as excinfo:
                await client.get_piece("no/such")
            assert excinfo.value.code == int(ErrorCode.NOT_FOUND)

        with_daemon(tmp_path, scenario)

    def test_store_rejects_corrupt_piece_at_ingress(self, tmp_path, code, encoded):
        blob = bytearray(piece_to_bytes(encoded.pieces[0], code.field))
        blob[-1] ^= 0xFF  # fails the format-v2 CRC32

        async def scenario(daemon, client):
            with pytest.raises(RemoteError) as excinfo:
                await client.store_piece("f/0", bytes(blob))
            assert excinfo.value.code == int(ErrorCode.CORRUPT)
            assert "f/0" not in daemon.store

        with_daemon(tmp_path, scenario)

    def test_corrupt_disk_object_reported_corrupt(self, tmp_path, code, encoded):
        blob = piece_to_bytes(encoded.pieces[0], code.field)

        async def scenario(daemon, client):
            await client.store_piece("f/0", blob)
            path = daemon.store._object_path(daemon.store.digest("f/0"))
            rotted = bytearray(path.read_bytes())
            rotted[40] ^= 0x01
            path.write_bytes(bytes(rotted))
            with pytest.raises(RemoteError) as excinfo:
                await client.get_piece("f/0")
            assert excinfo.value.code == int(ErrorCode.CORRUPT)

        with_daemon(tmp_path, scenario)

    def test_coeffs_only_download(self, tmp_path, code, encoded):
        piece = encoded.pieces[2]
        blob = piece_to_bytes(piece, code.field)

        async def scenario(daemon, client):
            await client.store_piece("f/2", blob)
            coeff_blob = await client.get_coefficients("f/2")
            slim, field = piece_from_bytes(coeff_blob)
            assert field == code.field
            assert slim.fragment_length == 0  # no data rows shipped
            assert np.all(slim.coefficients == piece.coefficients)
            assert len(coeff_blob) < len(blob) / 2

        with_daemon(tmp_path, scenario)

    def test_get_rows_returns_selected_fragments(self, tmp_path, code, encoded):
        piece = encoded.pieces[1]

        async def scenario(daemon, client):
            await client.store_piece("f/1", piece_to_bytes(piece, code.field))
            matrix = await client.get_rows("f/1", [2, 0], code.field)
            assert matrix.shape == (2, piece.fragment_length)
            assert np.all(matrix[0] == piece.data[2])  # requested order kept
            assert np.all(matrix[1] == piece.data[0])

        with_daemon(tmp_path, scenario)

    @pytest.mark.parametrize(
        "rows", [(0, 1, 2), (1, 2), (2,), (2, 1), (0, 2), (1, 1)], ids=str
    )
    def test_get_rows_runs_and_gaps_agree(self, tmp_path, code, encoded, rows):
        """Contiguous ascending runs are served as a view of the stored
        piece, anything else as a gather; both answer the same rows."""
        piece = encoded.pieces[3]
        assert piece.n_piece >= 3

        async def scenario(daemon, client):
            await client.store_piece("f/3", piece_to_bytes(piece, code.field))
            matrix = await client.get_rows("f/3", rows, code.field)
            assert np.array_equal(matrix, piece.data[list(rows)])

        with_daemon(tmp_path, scenario)

    def test_get_rows_out_of_range_is_bad_request(self, tmp_path, code, encoded):
        async def scenario(daemon, client):
            await client.store_piece(
                "f/0", piece_to_bytes(encoded.pieces[0], code.field)
            )
            with pytest.raises(RemoteError) as excinfo:
                await client.get_rows("f/0", [99], code.field)
            assert excinfo.value.code == int(ErrorCode.BAD_REQUEST)

        with_daemon(tmp_path, scenario)

    def test_repair_read_is_a_valid_combination(self, tmp_path, code, encoded):
        """The helper-side fragment must lie in the piece's row space:
        its coefficient vector and data must be consistent with some
        mixing of the stored fragments."""
        piece = encoded.pieces[3]

        async def scenario(daemon, client):
            await client.store_piece("f/3", piece_to_bytes(piece, code.field))
            return [
                fragment_from_bytes(await client.repair_read("f/3"))[0]
                for _ in range(3)
            ]

        fragments = with_daemon(tmp_path, scenario)
        for fragment in fragments:
            assert fragment.n_file == PARAMS.n_file
            assert fragment.length == piece.fragment_length
        # Distinct random combinations (overwhelmingly likely).
        assert not np.all(fragments[0].data == fragments[1].data)

    def test_repair_read_is_the_core_participant_contribution(
        self, tmp_path, code, encoded
    ):
        """A seeded daemon's REPAIR_READ fragment is, byte for byte, the
        core participant combine drawing from the same seed."""
        piece = encoded.pieces[2]

        async def scenario(daemon, client):
            await client.store_piece("f/2", piece_to_bytes(piece, code.field))
            return await client.repair_read("f/2")

        served = with_daemon(tmp_path, scenario)  # daemon rng seeded 42
        expected = participant_contribution(code.field, piece, np.random.default_rng(42))
        assert bytes(served) == bytes(fragment_to_bytes(expected, code.field))

    def test_repair_read_fragments_actually_repair(
        self, tmp_path, code, encoded, sample_data
    ):
        async def scenario(daemon, client):
            for position in range(PARAMS.d):
                piece = encoded.pieces[position]
                await client.store_piece(
                    f"f/{position}", piece_to_bytes(piece, code.field)
                )
            return [
                fragment_from_bytes(await client.repair_read(f"f/{position}"))[0]
                for position in range(PARAMS.d)
            ]

        uploads = with_daemon(tmp_path, scenario)
        regenerated = code.newcomer_repair(uploads, index=7)
        healed = encoded.replace_piece(7, regenerated)
        assert code.reconstruct(healed.subset([7, 0, 1, 2]), len(sample_data)) == sample_data


class TestPersistentConnections:
    def test_many_requests_ride_one_connection(self, tmp_path, code, encoded):
        """The daemon's request loop serves sequential requests without
        forcing a reconnect per message."""
        blob = piece_to_bytes(encoded.pieces[0], code.field)

        async def scenario(daemon, client):
            await client.store_piece("f/0", blob)
            for _ in range(5):
                assert await client.get_piece("f/0") == blob
            assert counted(daemon, "daemon.connections_total") == 1
            assert counted(daemon, "daemon.requests_total") == 6

        with_daemon(tmp_path, scenario)

    def test_idle_timeout_reaps_quiet_connections(self, tmp_path):
        """An idle persistent connection is closed server-side, and the
        client recovers transparently on its next request."""

        async def scenario(daemon, client):
            assert await client.ping() is True
            await asyncio.sleep(0.3)  # exceed the daemon's idle window
            assert await client.ping() is True
            assert counted(daemon, "daemon.connections_total") == 2
            # Recovery was invisible: eviction at checkout or a
            # transparent reconnect, never a spent retry.
            assert counted(client, "client.failures_total") == 0

        with_daemon(tmp_path, scenario, idle_timeout=0.1)

    def test_invalid_idle_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PeerDaemon(BlockStore(tmp_path / "s"), idle_timeout=0.0)
