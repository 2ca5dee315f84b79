"""Wire/storage format for coded pieces and fragments.

A real backup system has to put pieces on disks and fragments on the
wire.  This module defines a compact, versioned, self-describing binary
format for both, so that peers running this library interoperate:

    [magic 4B] [version u8] [kind u8] [q u8] [reserved u8]
    [index u32] [n_rows u32] [n_file u32] [l_frag u32]
    [crc32 u32]                                   (version >= 2 only)
    [coefficients: n_rows * n_file elements, little-endian]
    [data:         n_rows * l_frag elements, little-endian]

``kind`` distinguishes a stored piece (n_rows = n_piece) from a repair
upload (n_rows = 1, the paper's n_repair = 1).  Sizes on the wire match
the paper's accounting exactly: payload plus coefficient rows.

Version 2 adds a CRC32 over the element payload (coefficients + data)
so that a corrupted piece is rejected at parse time instead of
poisoning a decode -- random linear combinations spread a single
flipped bit into every output fragment, so bytes coming off a disk or
a socket must be checked before they are combined.  Version 1 blobs
(no checksum) are still read.

Each direction makes at most one copy of the elements.  Serializing
writes the header, both element blocks and the CRC into one
preallocated ``bytearray``.  Parsing checks the header and the CRC and
then returns arrays that are *views* of the blob (on a little-endian
host): read-only when the blob is ``bytes``, and keeping the whole blob
alive for as long as any of them is referenced.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.core.blocks import Fragment, Piece
from repro.gf.field import GF, GaloisField

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "SerializationError",
    "piece_to_bytes",
    "piece_from_bytes",
    "fragment_to_bytes",
    "fragment_from_bytes",
]

MAGIC = b"RGC1"
FORMAT_VERSION = 2
_KIND_PIECE = 1
_KIND_FRAGMENT = 2
_HEADER_V1 = struct.Struct("<4sBBBBIIII")
_HEADER_V2 = struct.Struct("<4sBBBBIIIII")
#: Header size of the current (v2) format.
HEADER_SIZE = _HEADER_V2.size

#: Anything a blob may arrive as: a file's bytes, a serializer's output,
#: or a slice of a received frame.
Buffer = bytes | bytearray | memoryview


class SerializationError(ValueError):
    """Raised on malformed, truncated, corrupt, or incompatible data."""


def _pack(kind: int, field: GaloisField, index: int, coefficients, data) -> bytearray:
    n_rows, n_file = coefficients.shape
    l_frag = data.shape[1]
    n_coefficients = n_rows * n_file
    blob = bytearray(
        _HEADER_V2.size + (n_coefficients + n_rows * l_frag) * field.element_size
    )
    # The one copy of this hop: both element blocks land in place, as
    # little-endian elements, right behind the header's slot.
    body = np.frombuffer(blob, dtype=field.dtype.newbyteorder("<"), offset=_HEADER_V2.size)
    body[:n_coefficients] = coefficients.reshape(-1)
    body[n_coefficients:] = data.reshape(-1)
    _HEADER_V2.pack_into(
        blob,
        0,
        MAGIC,
        FORMAT_VERSION,
        kind,
        field.q,
        0,
        index,
        n_rows,
        n_file,
        l_frag,
        zlib.crc32(memoryview(blob)[_HEADER_V2.size :]),
    )
    return blob


def _unpack(blob: Buffer, expected_kind: int):
    view = memoryview(blob)
    if len(view) < _HEADER_V1.size:
        raise SerializationError(f"blob too short for header: {len(view)} bytes")
    magic, version = bytes(view[:4]), view[4]
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version == 1:
        header = _HEADER_V1
        _, _, kind, q, _, index, n_rows, n_file, l_frag = header.unpack_from(view)
        crc = None
    elif version == FORMAT_VERSION:
        header = _HEADER_V2
        if len(view) < header.size:
            raise SerializationError(f"blob too short for header: {len(view)} bytes")
        _, _, kind, q, _, index, n_rows, n_file, l_frag, crc = header.unpack_from(view)
    else:
        raise SerializationError(f"unsupported format version {version}")
    if kind != expected_kind:
        raise SerializationError(f"wrong kind {kind}, expected {expected_kind}")
    if q not in (8, 16):
        raise SerializationError(f"unsupported field exponent q={q}")
    field = GF(q)
    coefficient_bytes = n_rows * n_file * field.element_size
    data_bytes = n_rows * l_frag * field.element_size
    expected = header.size + coefficient_bytes + data_bytes
    if len(view) != expected:
        raise SerializationError(
            f"blob size {len(view)} does not match header ({expected} expected)"
        )
    body = view[header.size :]
    if crc is not None and zlib.crc32(body) != crc:
        raise SerializationError(
            f"checksum mismatch: payload CRC32 {zlib.crc32(body):#010x} does not "
            f"match header {crc:#010x} (corrupt piece)"
        )
    coefficients = field.bytes_to_elements(body[:coefficient_bytes]).reshape(
        n_rows, n_file
    )
    data = field.bytes_to_elements(body[coefficient_bytes:]).reshape(n_rows, l_frag)
    return field, index, coefficients, data


def piece_to_bytes(piece: Piece, field: GaloisField) -> bytearray:
    """Serialize a stored piece (coefficients + payload) into a fresh buffer."""
    return _pack(_KIND_PIECE, field, piece.index, piece.coefficients, piece.data)


def piece_from_bytes(blob: Buffer) -> tuple[Piece, GaloisField]:
    """Parse a piece; returns it with the field it was encoded over.

    The piece's arrays are views of ``blob`` (see the module docstring).
    """
    field, index, coefficients, data = _unpack(blob, _KIND_PIECE)
    return Piece(index=index, data=data, coefficients=coefficients), field


def fragment_to_bytes(fragment: Fragment, field: GaloisField) -> bytearray:
    """Serialize a repair upload (one coded fragment, n_repair = 1)."""
    return _pack(
        _KIND_FRAGMENT,
        field,
        0,
        fragment.coefficients[None, :],
        fragment.data[None, :],
    )


def fragment_from_bytes(blob: Buffer) -> tuple[Fragment, GaloisField]:
    """Parse a repair upload; its arrays are views of ``blob``."""
    field, _, coefficients, data = _unpack(blob, _KIND_FRAGMENT)
    return Fragment(data=data[0], coefficients=coefficients[0]), field
