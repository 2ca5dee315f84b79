"""BlockStore: put/get, content addressing, corruption detection."""

import os
import shutil

import pytest

from repro.core.integrity import BlockCorruptionError, digest_bytes
from repro.net.blockstore import BlockStore


@pytest.fixture()
def store(tmp_path):
    return BlockStore(tmp_path / "store")


class TestPutGet:
    def test_roundtrip(self, store):
        digest = store.put("file-1/0", b"piece zero bytes")
        assert store.get("file-1/0") == b"piece zero bytes"
        assert digest == digest_bytes(b"piece zero bytes")

    def test_missing_key_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("never/stored")

    def test_contains_and_len(self, store):
        assert "a/0" not in store
        store.put("a/0", b"x")
        store.put("a/1", b"y")
        assert "a/0" in store
        assert len(store) == 2

    def test_keys_sorted(self, store):
        store.put("b/1", b"x")
        store.put("a/0", b"y")
        assert store.keys() == ["a/0", "b/1"]

    def test_identical_content_deduplicates(self, store):
        first = store.put("a/0", b"same bytes")
        second = store.put("b/0", b"same bytes")
        assert first == second
        objects = list((store.root / "objects").rglob("*"))
        assert sum(1 for path in objects if path.is_file()) == 1

    def test_reput_repoints_key(self, store):
        store.put("a/0", b"old content")
        store.put("a/0", b"new content")  # functional repair replaces it
        assert store.get("a/0") == b"new content"

    def test_delete(self, store):
        store.put("a/0", b"x")
        store.delete("a/0")
        assert "a/0" not in store
        with pytest.raises(KeyError):
            store.delete("a/0")

    def test_digest_without_read(self, store):
        store.put("a/0", b"content")
        assert store.digest("a/0") == digest_bytes(b"content")

    def test_survives_reopen(self, tmp_path):
        BlockStore(tmp_path / "s").put("a/0", b"persistent")
        assert BlockStore(tmp_path / "s").get("a/0") == b"persistent"


class TestCorruption:
    def _corrupt_object(self, store, key):
        path = store._object_path(store.digest(key))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_bit_rot_detected_on_read(self, store):
        store.put("a/0", b"soon to rot")
        self._corrupt_object(store, "a/0")
        with pytest.raises(BlockCorruptionError, match="SHA-256"):
            store.get("a/0")

    def test_corruption_error_is_the_integrity_modules(self, store):
        """The store raises the exception type repro.codes.integrity
        re-exports, so a daemon and the simulator report corruption
        identically."""
        from repro.codes import integrity
        from repro.codes.base import ReconstructError

        assert integrity.BlockCorruptionError is BlockCorruptionError
        store.put("a/0", b"x")
        self._corrupt_object(store, "a/0")
        with pytest.raises(ReconstructError):
            store.get("a/0")

    def test_deleted_object_reads_as_missing(self, store):
        store.put("a/0", b"x")
        store._object_path(store.digest("a/0")).unlink()
        with pytest.raises(KeyError):
            store.get("a/0")


class TestDurability:
    """The fsync contract: data and rename hit stable storage (satellite
    bugfix -- ``_write_atomic`` previously never fsynced anything)."""

    def _record_fsyncs(self, monkeypatch):
        import stat

        synced = {"files": 0, "dirs": 0}
        real_fsync = os.fsync

        def recording_fsync(fd):
            kind = "dirs" if stat.S_ISDIR(os.fstat(fd).st_mode) else "files"
            synced[kind] += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return synced

    def test_put_fsyncs_data_and_directories(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch)
        store = BlockStore(tmp_path / "store")  # durability on by default
        store.put("a/0", b"must survive power loss")
        # Object file + ref file, and the directory holding each rename.
        assert synced["files"] == 2
        assert synced["dirs"] == 2
        assert store.get("a/0") == b"must survive power loss"

    def test_dedup_rewrite_syncs_only_the_ref(self, tmp_path, monkeypatch):
        store = BlockStore(tmp_path / "store")
        store.put("a/0", b"same bytes")
        synced = self._record_fsyncs(monkeypatch)
        store.put("b/0", b"same bytes")  # object exists: only a new ref
        assert synced["files"] == 1
        assert synced["dirs"] == 1

    def test_fsync_opt_out_for_tests(self, tmp_path, monkeypatch):
        synced = self._record_fsyncs(monkeypatch)
        store = BlockStore(tmp_path / "store", fsync=False)
        store.put("a/0", b"disposable")
        assert synced == {"files": 0, "dirs": 0}
        assert store.get("a/0") == b"disposable"


class TestFanOutDirectories:
    """``objects/xx`` directories are made on demand, not probed per write."""

    def test_writes_into_existing_directories_make_no_mkdir(self, tmp_path, monkeypatch):
        store = BlockStore(tmp_path / "store", fsync=False)
        blobs = [f"piece {n}".encode() for n in range(20)]
        for n, blob in enumerate(blobs):
            store.put(f"warm/{n}", blob)
        # Drop the objects (not their directories) so the re-puts below
        # write every object again, into a fan-out directory that exists.
        for blob in blobs:
            store._object_path(digest_bytes(blob)).unlink()
        calls = []
        real_mkdir = os.mkdir

        def counting_mkdir(*args, **kwargs):
            calls.append(args[0])
            return real_mkdir(*args, **kwargs)

        monkeypatch.setattr(os, "mkdir", counting_mkdir)
        for n, blob in enumerate(blobs):
            store.put(f"again/{n}", blob)
        assert calls == []
        assert [store.get(f"again/{n}") for n in range(20)] == blobs

    def test_put_remakes_a_vanished_fan_out_directory(self, tmp_path):
        store = BlockStore(tmp_path / "store")
        store.put("a/0", b"first copy")
        fan_out = store._object_path(digest_bytes(b"first copy")).parent
        shutil.rmtree(fan_out)
        store.put("a/1", b"first copy")
        assert store.get("a/1") == b"first copy"
        assert fan_out.is_dir()
