"""Content digests and the corruption error, below every layer that stores pieces.

:func:`digest_bytes` is the system-wide content address: the on-disk
:class:`repro.net.blockstore.BlockStore` names objects by it and the
simulator's :class:`repro.codes.integrity.ChecksummedScheme` records it,
so a piece has the same identity in a blockstore or a directory
service.  A read whose bytes no longer match raises
:class:`BlockCorruptionError` in either, so a daemon and the simulator
report corruption identically.
"""

from __future__ import annotations

import hashlib

__all__ = ["BlockCorruptionError", "ReconstructError", "digest_bytes"]


class ReconstructError(RuntimeError):
    """Raised when the supplied blocks cannot reconstruct the file."""


class BlockCorruptionError(ReconstructError):
    """A block's content no longer matches its recorded digest."""


def digest_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes (the system-wide content address)."""
    return hashlib.sha256(data).hexdigest()
