"""Framing round-trip and malformed-frame tests for the wire protocol."""

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.field import GF
from repro.net.errors import ChecksumError, ProtocolError
from repro.net.protocol import (
    FLAG_COEFFS_ONLY,
    MAX_BODY_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    Error,
    ErrorCode,
    FragmentData,
    GetPiece,
    GetRows,
    Ok,
    PieceData,
    Ping,
    RepairRead,
    Rows,
    StorePiece,
    WRITE_THROUGH_BYTES,
    decode_message,
    encode_message,
    read_message,
    write_message,
)

ALL_MESSAGES = [
    Ping(),
    Ok(),
    Error(code=int(ErrorCode.NOT_FOUND), message="no piece stored: 'f/3'"),
    StorePiece(key="file-1/7", blob=b"\x01\x02\x03piece bytes"),
    GetPiece(key="file-1/7"),
    GetPiece(key="file-1/7", coeffs_only=True),
    PieceData(blob=b"serialized piece"),
    GetRows(key="file-1/7", rows=(0, 3, 5)),
    Rows(q=16, data=b"\x01\x00\x02\x00", n_rows=2, l_frag=1),
    RepairRead(key="file-1/7"),
    FragmentData(blob=b"serialized fragment"),
]


class TestRoundtrip:
    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__ + str(m.flags)
    )
    def test_encode_decode_roundtrip(self, message):
        frame = encode_message(message)
        decoded, consumed = decode_message(frame)
        assert consumed == len(frame)
        assert decoded == message

    def test_back_to_back_frames(self):
        stream = encode_message(Ping()) + encode_message(GetPiece(key="a/0"))
        first, consumed = decode_message(stream)
        second, rest = decode_message(stream[consumed:])
        assert first == Ping()
        assert second == GetPiece(key="a/0")
        assert consumed + rest == len(stream)

    def test_coeffs_only_travels_in_flags(self):
        frame = encode_message(GetPiece(key="x", coeffs_only=True))
        assert frame[6] == FLAG_COEFFS_ONLY  # flags byte of the header

    def test_async_reader_roundtrip(self):
        async def run():
            reader = asyncio.StreamReader()
            for message in ALL_MESSAGES:
                reader.feed_data(encode_message(message))
            reader.feed_eof()
            return [await read_message(reader) for _ in ALL_MESSAGES]

        received = asyncio.run(run())
        assert received == ALL_MESSAGES

    def test_rows_matrix_roundtrip(self):
        field = GF(16)
        matrix = field.asarray(
            np.array([[1, 2, 3], [4, 5, 60000]], dtype=np.uint16)
        )
        message = Rows.from_matrix(field, matrix)
        decoded, _ = decode_message(encode_message(message))
        assert np.all(decoded.to_matrix(field) == matrix)


class _RecordingWriter:
    """A StreamWriter stand-in that keeps every object passed to write()."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def writelines(self, parts):
        raise AssertionError("writelines joins every part into one copy")

    async def drain(self):
        pass


def _written(message):
    writer = _RecordingWriter()
    sent = asyncio.run(write_message(writer, message))
    assert sent == len(encode_message(message))
    assert b"".join(writer.writes) == encode_message(message)
    return writer.writes


class TestWritePath:
    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__ + str(m.flags)
    )
    def test_small_frame_is_exactly_one_write(self, message):
        assert len(_written(message)) == 1

    def test_large_blob_reaches_write_as_the_same_object(self):
        blob = bytearray(WRITE_THROUGH_BYTES)
        writes = _written(StorePiece(key="file-1/7", blob=blob))
        assert len(writes) == 2
        assert writes[1] is blob  # no join, no copy

    def test_large_rows_view_reaches_write_uncopied(self):
        field = GF(16)
        matrix = field.random((4, WRITE_THROUGH_BYTES // 8), np.random.default_rng(1))
        message = Rows.from_matrix(field, matrix)
        writes = _written(message)
        assert len(writes) == 2
        assert writes[1] is message.data
        assert np.shares_memory(np.frombuffer(writes[1], dtype=np.uint16), matrix)

    def test_small_part_just_under_the_threshold_is_joined(self):
        blob = bytes(WRITE_THROUGH_BYTES - 1)
        assert len(_written(PieceData(blob=blob))) == 1

    def test_received_rows_are_a_view_of_the_frame(self):
        field = GF(16)
        matrix = field.random((3, 5), np.random.default_rng(2))
        frame = encode_message(Rows.from_matrix(field, matrix))
        decoded, _ = decode_message(frame)
        received = decoded.to_matrix(field)
        assert np.all(received == matrix)
        assert np.shares_memory(received, np.frombuffer(decoded.data, dtype=np.uint8))


class TestMalformed:
    def test_bad_magic(self):
        frame = bytearray(encode_message(Ping()))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_message(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_message(Ping()))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_message(bytes(frame))

    def test_unknown_message_type(self):
        frame = bytearray(encode_message(Ping()))
        frame[5] = 200
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(bytes(frame))

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_message(PROTOCOL_MAGIC + b"\x01")

    def test_truncated_body(self):
        frame = encode_message(StorePiece(key="k", blob=b"payload"))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_message(frame[:-2])

    def test_oversized_length_prefix_rejected_before_alloc(self):
        header = struct.pack(
            "<4sBBBBI", PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, 0, 0, MAX_BODY_BYTES + 1
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(header)

    def test_body_on_bodyless_message(self):
        frame = struct.pack(
            "<4sBBBBI", PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, 0, 0, 3
        ) + b"abc"
        with pytest.raises(ProtocolError, match="no body"):
            decode_message(frame)

    def test_rows_flipped_payload_byte_rejected(self):
        field = GF(16)
        matrix = field.random((3, 5), np.random.default_rng(3))
        frame = bytearray(encode_message(Rows.from_matrix(field, matrix)))
        frame[-7] ^= 0x01  # one element byte; the header still parses
        with pytest.raises(ChecksumError, match="CRC32"):  # a ProtocolError
            decode_message(bytes(frame))

    def test_get_rows_row_list_mismatch(self):
        good = encode_message(GetRows(key="k", rows=(1, 2)))
        with pytest.raises(ProtocolError):
            decode_message(good[:-4])  # drop one row entry

    @given(st.binary(min_size=12, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes_never_crash(self, blob):
        """Garbage in -> ProtocolError out, never another exception."""
        try:
            decode_message(blob)
        except ProtocolError:
            pass
