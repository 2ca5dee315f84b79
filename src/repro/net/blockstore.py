"""Content-addressed on-disk piece store with integrity verification.

Layout under the store root::

    objects/ab/cdef....        piece bytes, named by their SHA-256
    refs/<sha256(key)>.json    {"key": ..., "digest": ...}

Pieces are *content-addressed*: the object file name is the SHA-256 of
its bytes (shared with the simulator's directory service through
:func:`repro.codes.integrity.digest_bytes`), so identical pieces
deduplicate and a corrupted object can never masquerade as the piece a
ref points to.  Every read recomputes the digest and raises
:class:`repro.codes.integrity.BlockCorruptionError` on mismatch -- the
daemon maps that to a typed CORRUPT error so the coordinator treats the
peer's copy as lost and repairs it like any other failure.

Writes go through a temp file + ``os.replace``, with the temp file
fsynced before the rename and the directory fsynced after it, so a
crashed daemon -- or the whole host losing power -- never leaves a
half-written or missing-but-referenced object behind.  That is the full
guarantee: ``os.replace`` alone survives a process crash but not power
loss (the rename itself, or the unflushed data it points at, can
vanish from an unjournaled directory).  Tests and throwaway clusters
can pass ``fsync=False`` to trade the durability for speed; they then
keep only the process-crash guarantee.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.codes.integrity import BlockCorruptionError, digest_bytes
from repro.obs import MetricsRegistry, now_ns

__all__ = ["BlockStore", "BlockCorruptionError"]


class BlockStore:
    """A directory of content-addressed pieces, keyed by opaque strings.

    ``fsync=False`` skips the durability syncs on writes (see the module
    docstring for exactly what is given up) -- meant for tests and
    :class:`~repro.net.cluster.LocalCluster` runs where the data is
    disposable and the syscalls dominate small-piece throughput.

    ``registry`` hooks the store into :mod:`repro.obs` (bytes
    read/written counters, fsync-time histogram).  Left ``None``, the
    owning :class:`~repro.net.server.PeerDaemon` attaches its own
    registry so store metrics ride in the daemon's STATS snapshot; a
    store that never meets a daemon simply records nothing.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fsync: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        self.root = pathlib.Path(root)
        self.fsync = fsync
        self.obs = registry
        self._objects = self.root / "objects"
        self._refs = self.root / "refs"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._refs.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _object_path(self, digest: str) -> pathlib.Path:
        return self._objects / digest[:2] / digest[2:]

    def _ref_path(self, key: str) -> pathlib.Path:
        # Keys contain "/" (file_id/index); hash them for a flat namespace.
        return self._refs / f"{digest_bytes(key.encode('utf-8'))}.json"

    def _write_atomic(self, path: pathlib.Path, data: bytes) -> None:
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        except FileNotFoundError:
            # ``refs/`` and ``objects/`` exist from __init__; only an
            # ``objects/xx`` fan-out directory is made on first use (or
            # remade if it vanished), not probed with mkdir on every write.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                if self.fsync:
                    # Data must be on stable storage *before* the rename
                    # publishes the name, or power loss can leave the
                    # final path pointing at garbage.
                    handle.flush()
                    self._fsync_timed(handle.fileno())
            os.replace(tmp, path)
            if self.fsync:
                self._fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _fsync_dir(self, directory: pathlib.Path) -> None:
        """Persist a rename: fsync the directory holding the new entry."""
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            self._fsync_timed(fd)
        finally:
            os.close(fd)

    def _fsync_timed(self, fd: int) -> None:
        """fsync with the stall recorded (it dominates small-piece writes)."""
        if self.obs is None or not self.obs.enabled:
            os.fsync(fd)
            return
        start = now_ns()
        os.fsync(fd)
        self.obs.histogram("store.fsync_ns").observe(now_ns() - start)

    # ------------------------------------------------------------------
    # store operations
    # ------------------------------------------------------------------

    def put(self, key: str, blob: bytes) -> str:
        """Store ``blob`` under ``key``; returns its SHA-256 content address.

        Identical content is written once; re-putting a key repoints its
        ref (functional repair replaces a piece's content).
        """
        digest = digest_bytes(blob)
        object_path = self._object_path(digest)
        if not object_path.exists():
            self._write_atomic(object_path, blob)
        ref = json.dumps({"key": key, "digest": digest}).encode("utf-8")
        self._write_atomic(self._ref_path(key), ref)
        if self.obs is not None:
            self.obs.counter("store.bytes_written_total").inc(len(blob))
        return digest

    def get(self, key: str) -> bytes:
        """Read the piece stored under ``key``, verifying its digest.

        Raises ``KeyError`` when the key is unknown and
        :class:`BlockCorruptionError` when the object bytes no longer
        hash to their recorded content address.
        """
        ref_path = self._ref_path(key)
        try:
            ref = json.loads(ref_path.read_text())
        except FileNotFoundError:
            raise KeyError(key) from None
        digest = ref["digest"]
        try:
            blob = self._object_path(digest).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None
        if digest_bytes(blob) != digest:
            raise BlockCorruptionError(
                f"object for key {key!r} fails its SHA-256 check "
                f"(expected {digest[:12]}...)"
            )
        if self.obs is not None:
            self.obs.counter("store.bytes_read_total").inc(len(blob))
        return blob

    def digest(self, key: str) -> str:
        """The recorded content address of ``key`` (no data read)."""
        try:
            return json.loads(self._ref_path(key).read_text())["digest"]
        except FileNotFoundError:
            raise KeyError(key) from None

    def __contains__(self, key: str) -> bool:
        return self._ref_path(key).exists()

    def delete(self, key: str) -> None:
        """Drop the ref for ``key`` (objects are left for other refs)."""
        try:
            self._ref_path(key).unlink()
        except FileNotFoundError:
            raise KeyError(key) from None

    def keys(self) -> list[str]:
        """All keys with a live ref, sorted."""
        found = []
        for path in self._refs.glob("*.json"):
            try:
                found.append(json.loads(path.read_text())["key"])
            except (OSError, ValueError, KeyError):
                continue
        return sorted(found)

    def __len__(self) -> int:
        return sum(1 for _ in self._refs.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockStore(root={str(self.root)!r}, pieces={len(self)})"
