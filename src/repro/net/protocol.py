"""Versioned, length-prefixed wire protocol for peer daemons.

Every message travels in one frame:

    [magic b"RGNP"] [version u8] [type u8] [flags u8] [reserved u8]
    [body_len u32] [body ...]

The body layout is fixed per message type (below).  Piece and fragment
payloads reuse the self-describing format of
:mod:`repro.core.serialization`, so a STORE_PIECE body is exactly the
bytes a peer would keep on disk -- the CRC32 added in format version 2
is what lets a daemon reject a corrupted piece at ingress.

Requests (client -> daemon):

    PING         (empty)                      liveness probe
    STORE_PIECE  key + piece blob             insertion / repair writes
    GET_PIECE    key                          full piece download;
                 flags bit 0 (COEFFS_ONLY):   coefficient rows only,
                                              for the pieces a
                                              reconstruction does not
                                              use whole
    GET_ROWS     key + row indices            fetch selected data
                                              fragments (the split
                                              piece's rows the inverted
                                              submatrix needs)
    REPAIR_READ  key                          the paper's *participant*
                                              phase, run server-side:
                                              the helper combines its
                                              n_piece fragments into one
                                              coded fragment and uploads
                                              only that (fig. 2a)
    GET_STATS    (empty)                      metrics snapshot request

Responses (daemon -> client):

    OK           (empty)                      write acknowledged / pong
    PIECE        piece blob                   GET_PIECE answer
    FRAGMENT     fragment blob                REPAIR_READ answer
    ROWS         q u8, pad u8, pad u16,
                 n_rows u32, l_frag u32,
                 crc32 u32, elements          GET_ROWS answer; the
                                              CRC32 of the elements
                                              rejects a corrupted reply
    STATS        UTF-8 JSON                   the daemon's metrics
                                              snapshot, versioned by its
                                              own ``format`` field
                                              (``repro-obs-snapshot-v1``,
                                              see docs/OBSERVABILITY.md)
    ERROR        code u16, message            typed failure

``key`` is a UTF-8 string prefixed by a u16 length; it names a stored
piece (the coordinator uses ``"<file_id>/<piece_index>"``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import json
import struct
import zlib
from typing import Any, ClassVar

import numpy as np

from repro.gf.field import GF, GaloisField
from repro.net.errors import ChecksumError, ProtocolError

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "MAX_BODY_BYTES",
    "FRAME_HEADER_SIZE",
    "WRITE_THROUGH_BYTES",
    "MessageType",
    "ErrorCode",
    "FLAG_COEFFS_ONLY",
    "Message",
    "Ping",
    "Ok",
    "Error",
    "StorePiece",
    "GetPiece",
    "PieceData",
    "GetRows",
    "Rows",
    "RepairRead",
    "FragmentData",
    "GetStats",
    "StatsData",
    "encode_message",
    "encode_frames",
    "decode_message",
    "read_message",
    "read_message_sized",
    "write_message",
    "operation_name",
]

PROTOCOL_MAGIC = b"RGNP"
PROTOCOL_VERSION = 1
#: Upper bound on a frame body; anything larger is a protocol violation
#: (keeps a garbage length prefix from allocating gigabytes).
MAX_BODY_BYTES = 1 << 28

_FRAME = struct.Struct("<4sBBBBI")
#: Bytes before every frame body: magic, version, type, flags, pad, length.
FRAME_HEADER_SIZE = _FRAME.size
_ROWS_HEADER = struct.Struct("<BBHIII")

#: GET_PIECE flag: return only the coefficient rows (l_frag = 0).
FLAG_COEFFS_ONLY = 0x01

#: Frame parts at least this large are written as they are; smaller ones
#: are joined first, since a copy that small is cheaper than a packet.
WRITE_THROUGH_BYTES = 64 * 1024


class MessageType(enum.IntEnum):
    PING = 1
    OK = 2
    ERROR = 3
    STORE_PIECE = 4
    GET_PIECE = 5
    PIECE = 6
    GET_ROWS = 7
    ROWS = 8
    REPAIR_READ = 9
    FRAGMENT = 10
    GET_STATS = 11
    STATS = 12


class ErrorCode(enum.IntEnum):
    NOT_FOUND = 1      # no piece stored under that key
    CORRUPT = 2        # stored piece fails its integrity check
    BAD_REQUEST = 3    # request body malformed or out of range
    INTERNAL = 4       # unexpected server-side failure


def _pack_key(key: str) -> bytes:
    raw = key.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"key too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _unpack_key(body: bytes, offset: int = 0) -> tuple[str, int]:
    if len(body) < offset + 2:
        raise ProtocolError("body too short for key length")
    (length,) = struct.unpack_from("<H", body, offset)
    end = offset + 2 + length
    if len(body) < end:
        raise ProtocolError("body too short for key")
    return body[offset + 2 : end].decode("utf-8"), end


#: A frame part: anything the transport can write without copying.
Buffer = bytes | bytearray | memoryview


@dataclasses.dataclass(frozen=True)
class Message:
    """Base class: each concrete message knows its body layout."""

    TYPE: ClassVar[MessageType | None] = None  # overridden per subclass

    def encode_body_parts(self) -> list[Buffer]:
        """The body as a list of buffers, bulky payloads left unjoined.

        This is the zero-copy framing surface: :func:`write_message`
        passes every part of :data:`WRITE_THROUGH_BYTES` or more to the
        transport as the caller's own object, so a multi-megabyte piece
        blob is never concatenated into a fresh byte string just to be
        framed.  Messages with large payloads override this; small
        fixed-layout messages inherit the single-part default.
        """
        return [self.encode_body()]

    def encode_body(self) -> bytes:
        return b""

    @property
    def flags(self) -> int:
        return 0

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "Message":
        if body:
            raise ProtocolError(f"{cls.__name__} takes no body, got {len(body)} bytes")
        return cls()


@dataclasses.dataclass(frozen=True)
class Ping(Message):
    TYPE: ClassVar[MessageType] = MessageType.PING


@dataclasses.dataclass(frozen=True)
class Ok(Message):
    TYPE: ClassVar[MessageType] = MessageType.OK


@dataclasses.dataclass(frozen=True)
class Error(Message):
    TYPE: ClassVar[MessageType] = MessageType.ERROR
    code: int = int(ErrorCode.INTERNAL)
    message: str = ""

    def encode_body(self) -> bytes:
        raw = self.message.encode("utf-8")[:0xFFFF]
        return struct.pack("<HH", int(self.code), len(raw)) + raw

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "Error":
        if len(body) < 4:
            raise ProtocolError("ERROR body too short")
        code, length = struct.unpack_from("<HH", body)
        if len(body) != 4 + length:
            raise ProtocolError("ERROR body length mismatch")
        return cls(code=code, message=body[4:].decode("utf-8", errors="replace"))


@dataclasses.dataclass(frozen=True)
class StorePiece(Message):
    TYPE: ClassVar[MessageType] = MessageType.STORE_PIECE
    key: str = ""
    blob: Buffer = b""

    def encode_body_parts(self) -> list[Buffer]:
        return [_pack_key(self.key), self.blob]

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "StorePiece":
        key, end = _unpack_key(body)
        # memoryview slice: the blob may be most of a 2^28-byte frame and
        # goes straight into the BlockStore, which accepts any buffer.
        return cls(key=key, blob=memoryview(body)[end:])


@dataclasses.dataclass(frozen=True)
class GetPiece(Message):
    TYPE: ClassVar[MessageType] = MessageType.GET_PIECE
    key: str = ""
    coeffs_only: bool = False

    @property
    def flags(self) -> int:
        return FLAG_COEFFS_ONLY if self.coeffs_only else 0

    def encode_body(self) -> bytes:
        return _pack_key(self.key)

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "GetPiece":
        key, end = _unpack_key(body)
        if end != len(body):
            raise ProtocolError("GET_PIECE has trailing bytes")
        return cls(key=key, coeffs_only=bool(flags & FLAG_COEFFS_ONLY))


@dataclasses.dataclass(frozen=True)
class PieceData(Message):
    TYPE: ClassVar[MessageType] = MessageType.PIECE
    blob: Buffer = b""

    def encode_body_parts(self) -> list[Buffer]:
        return [self.blob]

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "PieceData":
        return cls(blob=body)


@dataclasses.dataclass(frozen=True)
class GetRows(Message):
    TYPE: ClassVar[MessageType] = MessageType.GET_ROWS
    key: str = ""
    rows: tuple[int, ...] = ()

    def encode_body(self) -> bytes:
        return (
            _pack_key(self.key)
            + struct.pack("<I", len(self.rows))
            + struct.pack(f"<{len(self.rows)}I", *self.rows)
        )

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "GetRows":
        key, offset = _unpack_key(body)
        if len(body) < offset + 4:
            raise ProtocolError("GET_ROWS body too short")
        (count,) = struct.unpack_from("<I", body, offset)
        offset += 4
        if len(body) != offset + 4 * count:
            raise ProtocolError("GET_ROWS row-list length mismatch")
        rows = struct.unpack_from(f"<{count}I", body, offset)
        return cls(key=key, rows=tuple(rows))


@dataclasses.dataclass(frozen=True)
class Rows(Message):
    """Selected data fragments: exactly the rows reconstruction needs.

    Carries no coefficient rows -- by the time a client asks for data
    rows it has already planned the decode from coefficients alone, so
    shipping them again would be pure overhead (paper section 3.2).  The
    header's CRC32 covers the elements: rows are not a stored piece, so
    nothing else would catch a flipped byte before it reached the decode.
    """

    TYPE: ClassVar[MessageType] = MessageType.ROWS
    q: int = 16
    data: Buffer = b""    # n_rows * l_frag little-endian elements
    n_rows: int = 0
    l_frag: int = 0

    def encode_body_parts(self) -> list[Buffer]:
        crc = zlib.crc32(self.data)
        return [_ROWS_HEADER.pack(self.q, 0, 0, self.n_rows, self.l_frag, crc), self.data]

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "Rows":
        if len(body) < _ROWS_HEADER.size:
            raise ProtocolError("ROWS body too short")
        q, _, _, n_rows, l_frag, crc = _ROWS_HEADER.unpack_from(body)
        data = memoryview(body)[_ROWS_HEADER.size :]
        if q not in (8, 16):
            raise ProtocolError(f"ROWS: unsupported field exponent q={q}")
        element_size = GF(q).element_size
        if len(data) != n_rows * l_frag * element_size:
            raise ProtocolError("ROWS element payload length mismatch")
        if zlib.crc32(data) != crc:
            raise ChecksumError("ROWS payload CRC32 mismatch")
        return cls(q=q, data=data, n_rows=n_rows, l_frag=l_frag)

    def to_matrix(self, field: GaloisField) -> np.ndarray:
        """The (n_rows, l_frag) element matrix carried by this message.

        A view of the received body (see
        :meth:`~repro.gf.field.GaloisField.bytes_to_elements`): read-only,
        and no copy is made.
        """
        if field.q != self.q:
            raise ProtocolError(f"ROWS encoded over GF(2^{self.q}), expected {field.q}")
        return field.bytes_to_elements(self.data).reshape(self.n_rows, self.l_frag)

    @classmethod
    def from_matrix(cls, field: GaloisField, matrix: np.ndarray) -> "Rows":
        n_rows, l_frag = matrix.shape
        # Zero-copy: the buffer aliases the matrix, which the message now
        # keeps alive; no per-response payload copy is made before the
        # socket write.
        return cls(
            q=field.q,
            data=field.elements_to_buffer(matrix.reshape(-1)),
            n_rows=n_rows,
            l_frag=l_frag,
        )


@dataclasses.dataclass(frozen=True)
class RepairRead(Message):
    TYPE: ClassVar[MessageType] = MessageType.REPAIR_READ
    key: str = ""

    def encode_body(self) -> bytes:
        return _pack_key(self.key)

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "RepairRead":
        key, end = _unpack_key(body)
        if end != len(body):
            raise ProtocolError("REPAIR_READ has trailing bytes")
        return cls(key=key)


@dataclasses.dataclass(frozen=True)
class FragmentData(Message):
    TYPE: ClassVar[MessageType] = MessageType.FRAGMENT
    blob: Buffer = b""

    def encode_body_parts(self) -> list[Buffer]:
        return [self.blob]

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "FragmentData":
        return cls(blob=body)


@dataclasses.dataclass(frozen=True)
class GetStats(Message):
    TYPE: ClassVar[MessageType] = MessageType.GET_STATS


@dataclasses.dataclass(frozen=True)
class StatsData(Message):
    """A daemon's metrics snapshot, carried as canonical UTF-8 JSON.

    The payload versions itself: its ``format`` field must say
    ``repro-obs-snapshot-v1`` (validated by the *client*, so the wire
    layer stays ignorant of the snapshot schema).
    """

    TYPE: ClassVar[MessageType] = MessageType.STATS
    blob: Buffer = b""

    def encode_body_parts(self) -> list[Buffer]:
        return [self.blob]

    @classmethod
    def decode_body(cls, body: bytes, flags: int) -> "StatsData":
        return cls(blob=body)

    def to_snapshot(self) -> dict[str, Any]:
        """Parse the carried JSON object (schema left to the caller)."""
        try:
            payload = json.loads(bytes(self.blob).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"STATS payload is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("STATS payload must be a JSON object")
        return payload

    @classmethod
    def from_snapshot(cls, snapshot: dict[str, Any]) -> "StatsData":
        return cls(blob=json.dumps(snapshot, sort_keys=True).encode("utf-8"))


_REGISTRY: dict[int, type[Message]] = {
    int(cls.TYPE): cls
    for cls in (
        Ping,
        Ok,
        Error,
        StorePiece,
        GetPiece,
        PieceData,
        GetRows,
        Rows,
        RepairRead,
        FragmentData,
        GetStats,
        StatsData,
    )
}


def encode_frames(message: Message) -> list[Buffer]:
    """Frame ``message`` as a buffer list: ``[header, *body parts]``.

    The zero-copy encoding path: bulky payloads (piece blobs, fragment
    rows) stay as the caller's buffers, which :func:`write_message`
    hands to the transport without joining them.  Empty parts are
    dropped.  :func:`encode_message` is the joined form for callers that
    need contiguous bytes (tests, fault injection's frame mangling).
    """
    parts = message.encode_body_parts()
    body_len = sum(len(part) for part in parts)
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"body of {body_len} bytes exceeds frame limit")
    header = _FRAME.pack(
        PROTOCOL_MAGIC,
        PROTOCOL_VERSION,
        int(message.TYPE),
        message.flags,
        0,
        body_len,
    )
    return [header, *(part for part in parts if len(part))]


def encode_message(message: Message) -> bytes:
    """Serialize ``message`` into one framed byte string."""
    return b"".join(encode_frames(message))


def _parse_frame_header(header: bytes) -> tuple[type[Message], int, int]:
    magic, version, msg_type, flags, _, body_len = _FRAME.unpack(header)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"frame body of {body_len} bytes exceeds limit")
    cls = _REGISTRY.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    return cls, flags, body_len


def decode_message(data: bytes) -> tuple[Message, int]:
    """Parse one frame from ``data``; returns (message, bytes consumed).

    Synchronous counterpart of :func:`read_message` for tests and for
    callers managing their own buffers.
    """
    if len(data) < _FRAME.size:
        raise ProtocolError(f"need {_FRAME.size} header bytes, got {len(data)}")
    cls, flags, body_len = _parse_frame_header(data[: _FRAME.size])
    end = _FRAME.size + body_len
    if len(data) < end:
        raise ProtocolError(f"frame truncated: need {end} bytes, got {len(data)}")
    return cls.decode_body(data[_FRAME.size : end], flags), end


def operation_name(message: Message) -> str:
    """Snake-case name of a message type (``StorePiece`` -> ``store_piece``).

    This is the operation label fault-injection rules and monitoring
    counters key on.
    """
    name = type(message).__name__
    parts = []
    for char in name:
        if char.isupper() and parts:
            parts.append("_")
        parts.append(char.lower())
    return "".join(parts)


async def read_message(reader: asyncio.StreamReader) -> Message:
    """Read exactly one framed message from an asyncio stream.

    Raises ``asyncio.IncompleteReadError`` on clean EOF mid-frame and
    :class:`ProtocolError` on malformed frames.
    """
    message, _ = await read_message_sized(reader)
    return message


async def read_message_sized(reader: asyncio.StreamReader) -> tuple[Message, int]:
    """Like :func:`read_message`, also returning the frame size in bytes.

    The size covers the whole frame (header + body) -- what a
    byte-accounting caller (the daemon's ``bytes_received`` counter)
    actually paid on the wire.
    """
    header = await reader.readexactly(_FRAME.size)
    cls, flags, body_len = _parse_frame_header(header)
    body = await reader.readexactly(body_len) if body_len else b""
    return cls.decode_body(body, flags), _FRAME.size + body_len


async def write_message(
    writer: asyncio.StreamWriter,
    message: Message,
    timeout: float | None = None,
) -> int:
    """Frame and send ``message``, waiting for the transport to drain.

    ``timeout`` bounds the drain: a peer that accepts the connection but
    stops reading leaves the kernel send buffer full forever, and an
    unbounded ``drain()`` on a bulky piece upload would stall the caller
    with it.  ``None`` keeps the historical unbounded behaviour.

    Parts of :data:`WRITE_THROUGH_BYTES` or more go to ``writer.write``
    as the caller's own objects, so a piece blob or a row matrix view is
    never joined into a frame-sized copy (``StreamWriter.writelines``
    does exactly that join on Python 3.11).  Runs of smaller parts --
    the frame header, a key, a ROWS header -- are joined into one
    ``write``, so a small message is one write and one packet.  Returns
    the frame size in bytes (header + body) for byte-accounting callers.
    """
    frames = encode_frames(message)
    small: list[Buffer] = []
    for part in frames:
        if len(part) < WRITE_THROUGH_BYTES:
            small.append(part)
            continue
        if small:
            writer.write(b"".join(small))
            small = []
        writer.write(part)
    if small:
        writer.write(b"".join(small))
    if timeout is None:
        await writer.drain()
    else:
        await asyncio.wait_for(writer.drain(), timeout=timeout)
    return sum(len(part) for part in frames)
