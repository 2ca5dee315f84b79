"""Tests for the piece/fragment wire format."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import Fragment, Piece
from repro.core.params import RCParams
from repro.core.regenerating import RandomLinearRegeneratingCode, participant_contribution
from repro.core.serialization import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    SerializationError,
    fragment_from_bytes,
    fragment_to_bytes,
    piece_from_bytes,
    piece_to_bytes,
)
from repro.gf.field import GF


@pytest.fixture()
def code():
    return RandomLinearRegeneratingCode(
        RCParams(4, 4, 6, 2), rng=np.random.default_rng(3)
    )


@pytest.fixture()
def encoded(code, sample_data):
    return code.insert(sample_data)


class TestPieceRoundtrip:
    def test_roundtrip_preserves_everything(self, code, encoded):
        for piece in encoded.pieces:
            blob = piece_to_bytes(piece, code.field)
            restored, field = piece_from_bytes(blob)
            assert field == code.field
            assert restored.index == piece.index
            assert np.all(restored.data == piece.data)
            assert np.all(restored.coefficients == piece.coefficients)

    def test_blob_size_matches_storage_accounting(self, code, encoded):
        piece = encoded.pieces[0]
        blob = piece_to_bytes(piece, code.field)
        assert HEADER_SIZE == 28  # 4s + 4 x u8 + 4 x u32 + crc32, little-endian
        assert len(blob) == HEADER_SIZE + piece.storage_bytes(code.field)

    def test_deserialized_pieces_decode(self, code, encoded, sample_data):
        blobs = [piece_to_bytes(piece, code.field) for piece in encoded.pieces[:4]]
        pieces = [piece_from_bytes(blob)[0] for blob in blobs]
        assert code.reconstruct(pieces, len(sample_data)) == sample_data

    def test_gf256_roundtrip(self, sample_data):
        code = RandomLinearRegeneratingCode(
            RCParams(3, 3, 4, 1), field=GF(8), rng=np.random.default_rng(4)
        )
        encoded = code.insert(sample_data)
        blob = piece_to_bytes(encoded.pieces[0], code.field)
        restored, field = piece_from_bytes(blob)
        assert field.q == 8
        assert np.all(restored.data == encoded.pieces[0].data)


class TestFragmentRoundtrip:
    def test_roundtrip(self, code, encoded):
        fragment = participant_contribution(code.field, encoded.pieces[0], code.rng)
        blob = fragment_to_bytes(fragment, code.field)
        restored, field = fragment_from_bytes(blob)
        assert field == code.field
        assert np.all(restored.data == fragment.data)
        assert np.all(restored.coefficients == fragment.coefficients)

    def test_blob_size_matches_wire_accounting(self, code, encoded):
        fragment = participant_contribution(code.field, encoded.pieces[0], code.rng)
        blob = fragment_to_bytes(fragment, code.field)
        assert len(blob) == HEADER_SIZE + fragment.wire_bytes(code.field)

    def test_deserialized_uploads_repair(self, code, encoded, sample_data):
        blobs = [
            fragment_to_bytes(
                participant_contribution(code.field, piece, code.rng), code.field
            )
            for piece in encoded.pieces[: code.params.d]
        ]
        uploads = [fragment_from_bytes(blob)[0] for blob in blobs]
        piece = code.newcomer_repair(uploads, index=7)
        healed = encoded.replace_piece(7, piece)
        assert code.reconstruct(healed.subset([7, 0, 1, 2]), len(sample_data)) == sample_data


class TestMalformedInput:
    def _blob(self, code, encoded):
        return piece_to_bytes(encoded.pieces[0], code.field)

    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            piece_from_bytes(b"RG")

    def test_bad_magic(self, code, encoded):
        blob = b"XXXX" + self._blob(code, encoded)[4:]
        with pytest.raises(SerializationError):
            piece_from_bytes(blob)

    def test_bad_version(self, code, encoded):
        blob = bytearray(self._blob(code, encoded))
        blob[4] = FORMAT_VERSION + 1
        with pytest.raises(SerializationError):
            piece_from_bytes(bytes(blob))

    def test_wrong_kind(self, code, encoded):
        blob = self._blob(code, encoded)
        with pytest.raises(SerializationError):
            fragment_from_bytes(blob)  # it's a piece, not a fragment

    def test_bad_field_exponent(self, code, encoded):
        blob = bytearray(self._blob(code, encoded))
        blob[6] = 7  # not byte aligned
        with pytest.raises(SerializationError):
            piece_from_bytes(bytes(blob))

    def test_truncated_body(self, code, encoded):
        blob = self._blob(code, encoded)
        with pytest.raises(SerializationError):
            piece_from_bytes(blob[:-3])

    def test_trailing_garbage(self, code, encoded):
        blob = self._blob(code, encoded) + b"\x00"
        with pytest.raises(SerializationError):
            piece_from_bytes(blob)

    def test_magic_constant(self):
        assert MAGIC == b"RGC1"

    def test_corrupted_payload_fails_checksum(self, code, encoded):
        blob = bytearray(self._blob(code, encoded))
        blob[-1] ^= 0xFF  # flip one payload byte, sizes stay consistent
        with pytest.raises(SerializationError, match="checksum"):
            piece_from_bytes(bytes(blob))

    def test_corrupted_coefficients_fail_checksum(self, code, encoded):
        blob = bytearray(self._blob(code, encoded))
        blob[HEADER_SIZE] ^= 0x01  # first coefficient byte
        with pytest.raises(SerializationError, match="checksum"):
            piece_from_bytes(bytes(blob))


class TestVersion1Compatibility:
    """Version-1 blobs (no CRC field) must keep parsing."""

    @staticmethod
    def _downgrade(blob: bytes) -> bytes:
        """Rewrite a current-format blob as its version-1 equivalent."""
        import struct

        fields = struct.Struct("<4sBBBBIIIII").unpack_from(blob)
        header_v1 = struct.Struct("<4sBBBBIIII").pack(fields[0], 1, *fields[2:9])
        return header_v1 + blob[28:]

    def test_v1_piece_roundtrip(self, code, encoded):
        piece = encoded.pieces[0]
        v1_blob = self._downgrade(piece_to_bytes(piece, code.field))
        restored, field = piece_from_bytes(v1_blob)
        assert field == code.field
        assert np.all(restored.data == piece.data)
        assert np.all(restored.coefficients == piece.coefficients)

    def test_v1_fragment_roundtrip(self, code, encoded):
        fragment = participant_contribution(code.field, encoded.pieces[0], code.rng)
        v1_blob = self._downgrade(fragment_to_bytes(fragment, code.field))
        restored, _ = fragment_from_bytes(v1_blob)
        assert np.all(restored.data == fragment.data)

    def test_v1_corruption_goes_undetected(self, code, encoded):
        """Documents why v2 exists: v1 has no checksum to catch bit rot."""
        v1_blob = bytearray(self._downgrade(piece_to_bytes(encoded.pieces[0], code.field)))
        v1_blob[-1] ^= 0xFF
        restored, _ = piece_from_bytes(bytes(v1_blob))  # parses fine...
        assert not np.all(restored.data == encoded.pieces[0].data)  # ...silently wrong


def _joined(kind: int, field, index: int, coefficients, data) -> bytes:
    """The format spelled out as header + coefficient bytes + data bytes."""
    body = field.elements_to_bytes(coefficients.reshape(-1)) + field.elements_to_bytes(
        data.reshape(-1)
    )
    n_rows, n_file = coefficients.shape
    header = struct.Struct("<4sBBBBIIIII").pack(
        MAGIC, FORMAT_VERSION, kind, field.q, 0, index, n_rows, n_file,
        data.shape[1], zlib.crc32(body),
    )
    return header + body


def _as_array(blob) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.uint8)


class TestZeroCopy:
    """Serialize in place, parse by view: the bytes are the old ones."""

    @pytest.mark.parametrize("q", [8, 16])
    @pytest.mark.parametrize("l_frag", [0, 1, 7])
    def test_piece_bytes_match_joined_formula(self, q, l_frag):
        field = GF(q)
        rng = np.random.default_rng(q + l_frag)
        piece = Piece(
            index=5,
            data=field.random((3, l_frag), rng),
            coefficients=field.random((3, 4), rng),
        )
        expected = _joined(1, field, 5, piece.coefficients, piece.data)
        assert piece_to_bytes(piece, field) == expected

    @pytest.mark.parametrize("q", [8, 16])
    def test_fragment_bytes_match_joined_formula(self, q):
        field = GF(q)
        rng = np.random.default_rng(q)
        fragment = Fragment(data=field.random(9, rng), coefficients=field.random(4, rng))
        expected = _joined(
            2, field, 0, fragment.coefficients[None, :], fragment.data[None, :]
        )
        assert fragment_to_bytes(fragment, field) == expected

    def test_parsed_piece_is_a_read_only_view_of_bytes(self, code, encoded):
        blob = bytes(piece_to_bytes(encoded.pieces[0], code.field))
        piece, _ = piece_from_bytes(blob)
        for array in (piece.data, piece.coefficients):
            assert np.shares_memory(array, _as_array(blob))
            assert not array.flags.writeable

    def test_parsed_fragment_is_a_read_only_view_of_bytes(self, code, encoded):
        fragment = participant_contribution(code.field, encoded.pieces[0], code.rng)
        blob = bytes(fragment_to_bytes(fragment, code.field))
        restored, _ = fragment_from_bytes(blob)
        for array in (restored.data, restored.coefficients):
            assert np.shares_memory(array, _as_array(blob))
            assert not array.flags.writeable

    def test_parse_of_a_bytearray_aliases_it_writably(self, code, encoded):
        blob = piece_to_bytes(encoded.pieces[0], code.field)
        assert isinstance(blob, bytearray)
        piece, _ = piece_from_bytes(blob)
        assert np.shares_memory(piece.data, _as_array(blob))
        assert piece.data.flags.writeable

    def test_parse_of_a_memoryview_slice_aliases_the_frame(self, code, encoded):
        frame = b"\x00" * 6 + bytes(piece_to_bytes(encoded.pieces[0], code.field))
        piece, _ = piece_from_bytes(memoryview(frame)[6:])
        assert np.shares_memory(piece.data, _as_array(frame))
        assert np.all(piece.data == encoded.pieces[0].data)


class TestPropertyBased:
    @given(st.binary(min_size=1, max_size=300), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_files_roundtrip_through_serialization(self, data, seed):
        code = RandomLinearRegeneratingCode(
            RCParams(3, 2, 3, 1), rng=np.random.default_rng(seed)
        )
        encoded = code.insert(data)
        pieces = [
            piece_from_bytes(piece_to_bytes(piece, code.field))[0]
            for piece in encoded.pieces[:3]
        ]
        assert code.reconstruct(pieces, len(data)) == data

    @given(st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_random_blobs_never_crash(self, blob):
        """Garbage in -> SerializationError out, never another exception."""
        try:
            piece_from_bytes(blob)
        except SerializationError:
            pass
