"""Block integrity: detecting corruption before it poisons a decode.

The paper's introduction lists the failure modes a storage peer faces:
"failures, data corruption or accidental data losses".  Random linear
codes are particularly sensitive to *silent* corruption -- a flipped bit
in any contributing fragment spreads through every linear combination
built from it -- so a deployment needs end-to-end integrity checks.

:class:`ChecksummedScheme` wraps any :class:`RedundancyScheme` with
per-block SHA-256 digests: corrupted blocks are detected on read and
treated as missing (they can then be repaired like any other loss).
The digests live in the encoded object's metadata, mirroring how a real
system would keep them in its (replicated) directory service.
:func:`digest_bytes` and :class:`BlockCorruptionError` live in
:mod:`repro.core.integrity`, shared with the on-disk blockstore, and are
re-exported here.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.codes.base import (
    Block,
    EncodedObject,
    ReconstructError,
    RedundancyScheme,
    RepairError,
    RepairOutcome,
)
from repro.core.integrity import BlockCorruptionError, digest_bytes

__all__ = [
    "BlockCorruptionError",
    "ChecksummedScheme",
    "block_digest",
    "corrupt_block",
    "digest_bytes",
]

DIGEST_KEY = "block_digests"


def _content_bytes(content: Any) -> bytes:
    """Canonical byte view of a block's scheme-specific content."""
    if isinstance(content, (bytes, bytearray)):
        return bytes(content)
    if isinstance(content, np.ndarray):
        return np.ascontiguousarray(content).tobytes()
    # Coded pieces carry (data, coefficients) arrays.
    if hasattr(content, "data") and hasattr(content, "coefficients"):
        return (
            np.ascontiguousarray(content.data).tobytes()
            + np.ascontiguousarray(content.coefficients).tobytes()
        )
    raise TypeError(f"cannot checksum content of type {type(content).__name__}")


def block_digest(block: Block) -> str:
    """SHA-256 hex digest of a block's content."""
    return digest_bytes(_content_bytes(block.content))


def corrupt_block(block: Block, byte_offset: int = 0) -> Block:
    """Return a copy of ``block`` with one byte flipped (test helper).

    Models silent disk corruption: same size, same index, wrong data.
    """
    content = block.content
    if isinstance(content, (bytes, bytearray)):
        raw = bytearray(content)
        raw[byte_offset % len(raw)] ^= 0xFF
        corrupted: Any = bytes(raw)
    elif isinstance(content, np.ndarray):
        corrupted = content.copy()
        flat = corrupted.reshape(-1)
        flat[byte_offset % flat.size] ^= 1
    elif dataclasses.is_dataclass(content) and hasattr(content, "data"):
        data = content.data.copy()
        flat = data.reshape(-1)
        flat[byte_offset % flat.size] ^= 1
        corrupted = dataclasses.replace(content, data=data)
    else:
        raise TypeError(f"cannot corrupt content of type {type(content).__name__}")
    return Block(index=block.index, content=corrupted, payload_bytes=block.payload_bytes)


class ChecksummedScheme(RedundancyScheme):
    """Wrap a scheme with per-block digest verification.

    ``reconstruct`` and ``repair`` silently *drop* corrupted inputs
    (after counting them) and proceed with the survivors, raising the
    underlying scheme's error only if too few clean blocks remain;
    ``strict=True`` raises :class:`BlockCorruptionError` immediately.
    """

    def __init__(self, inner: RedundancyScheme, strict: bool = False):
        self.inner = inner
        self.strict = strict
        self.name = f"checksummed({inner.name})"
        #: Corrupted blocks detected so far (monitoring hook).
        self.corruption_detected = 0

    @property
    def total_blocks(self) -> int:
        return self.inner.total_blocks

    @property
    def reconstruction_degree(self) -> int:
        return self.inner.reconstruction_degree

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> EncodedObject:
        encoded = self.inner.encode(data)
        digests = {block.index: block_digest(block) for block in encoded.blocks}
        meta = dict(encoded.meta)
        meta[DIGEST_KEY] = digests
        return EncodedObject(blocks=encoded.blocks, file_size=encoded.file_size, meta=meta)

    def _verify(self, encoded: EncodedObject, blocks) -> list[Block]:
        digests = encoded.meta.get(DIGEST_KEY)
        if digests is None:
            raise ReconstructError(
                "encoded object carries no digests; was it encoded by "
                "a ChecksummedScheme?"
            )
        clean = []
        for block in blocks:
            expected = digests.get(block.index)
            if expected is not None and block_digest(block) == expected:
                clean.append(block)
            else:
                self.corruption_detected += 1
                if self.strict:
                    raise BlockCorruptionError(
                        f"block {block.index} fails its integrity check"
                    )
        return clean

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        return self.inner.reconstruct(encoded, self._verify(encoded, blocks))

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        clean = {
            block.index: block
            for block in self._verify(encoded, available.values())
        }
        outcome = self.inner.repair(encoded, clean, lost_index)
        digests = encoded.meta.get(DIGEST_KEY)
        if digests is not None:
            # Record the regenerated block's digest.  For functional-
            # repair schemes each regeneration produces new content, so
            # the directory entry is updated in place.
            digests[outcome.block.index] = block_digest(outcome.block)
        return outcome

    # ------------------------------------------------------------------
    # computation accounting passes through
    # ------------------------------------------------------------------

    def insert_computation_ops(self, file_size: int) -> float:
        return self.inner.insert_computation_ops(file_size)

    def repair_computation_ops(self, file_size: int) -> float:
        return self.inner.repair_computation_ops(file_size)

    def reconstruct_computation_ops(self, file_size: int) -> float:
        return self.inner.reconstruct_computation_ops(file_size)
