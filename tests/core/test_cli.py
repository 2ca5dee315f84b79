"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def source_file(tmp_path, sample_data):
    path = tmp_path / "document.bin"
    path.write_bytes(sample_data)
    return path


def encode(tmp_path, source_file, extra=()):
    out_dir = tmp_path / "pieces"
    argv = [
        "encode", str(source_file),
        "-k", "4", "-H", "4", "-d", "5", "-i", "1",
        "--out-dir", str(out_dir), "--seed", "7",
    ]
    argv.extend(extra)
    assert main(argv) == 0
    return out_dir


class TestEncode:
    def test_creates_pieces_and_manifest(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(out_dir.glob("piece_*.rgc"))
        assert len(pieces) == 8
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["k"] == 4 and manifest["d"] == 5 and manifest["i"] == 1
        assert manifest["file_size"] == source_file.stat().st_size
        assert "encoded" in capsys.readouterr().out

    def test_default_d_is_k(self, tmp_path, source_file):
        out_dir = tmp_path / "pieces2"
        assert main([
            "encode", str(source_file), "-k", "4", "-H", "2",
            "--out-dir", str(out_dir),
        ]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["d"] == 4


class TestDecode:
    def test_roundtrip_from_k_pieces(self, tmp_path, source_file, sample_data):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:4]
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 0
        assert restored.read_bytes() == sample_data

    def test_insufficient_pieces_fail_cleanly(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:3]
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 1
        assert "decode failed" in capsys.readouterr().err
        assert not restored.exists()


class TestRepair:
    def test_repair_then_decode_with_new_piece(self, tmp_path, source_file, sample_data):
        out_dir = encode(tmp_path, source_file)
        all_pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))
        lost = all_pieces[3]
        survivors = [path for path in all_pieces if path != lost]
        regenerated = tmp_path / "piece_003_new.rgc"
        assert main([
            "repair", *survivors,
            "--manifest", str(out_dir / "manifest.json"),
            "--lost", "3", "--out", str(regenerated),
        ]) == 0
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", str(regenerated), all_pieces[0], all_pieces[1], all_pieces[6],
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 0
        assert restored.read_bytes() == sample_data

    def test_repair_needs_d_survivors(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        all_pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))
        assert main([
            "repair", *all_pieces[:3],
            "--manifest", str(out_dir / "manifest.json"),
            "--lost", "7", "--out", str(tmp_path / "x.rgc"),
        ]) == 1
        assert "needs d=5" in capsys.readouterr().err


class TestInfoAndAdvise:
    def test_info_describes_pieces(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        piece = str(next(iter(sorted(out_dir.glob("piece_*.rgc")))))
        assert main(["info", piece]) == 0
        out = capsys.readouterr().out
        assert "piece 0" in out and "GF(2^16)" in out

    def test_info_flags_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.rgc"
        bad.write_bytes(b"not a piece")
        assert main(["info", str(bad)]) == 0
        assert "invalid" in capsys.readouterr().out

    def test_advise_prints_three_recommendations(self, capsys):
        assert main(["advise", "-k", "8", "-H", "8", "--file-size", "1048576"]) == 0
        out = capsys.readouterr().out
        assert "min storage" in out
        assert "min repair" in out
        assert "balanced" in out

    def test_missing_manifest_field_fails(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["d"]
        manifest_path.write_text(json.dumps(manifest))
        assert main([
            "decode", str(next(iter(out_dir.glob("piece_*.rgc")))),
            "--manifest", str(manifest_path),
            "--out", str(tmp_path / "y.bin"),
        ]) == 1
        assert "missing the 'd' field" in capsys.readouterr().err


class TestExport:
    def test_export_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main([
            "export", "--out-dir", str(out_dir), "-k", "8", "-H", "8",
            "--file-size", "65536",
        ]) == 0
        out = capsys.readouterr().out
        assert (out_dir / "index.md").exists()
        assert (out_dir / "fig1a_piece_stretch.csv").exists()
        assert out.count("wrote") >= 9


class TestChunkedCLI:
    def test_chunked_encode_layout(self, tmp_path, source_file):
        out_dir = tmp_path / "chunked"
        assert main([
            "encode", str(source_file),
            "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--chunk-size", "1024", "--out-dir", str(out_dir), "--seed", "3",
        ]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["chunks"] == 4  # 4096 bytes / 1024
        assert manifest["chunk_size"] == 1024
        for chunk in range(4):
            pieces = list((out_dir / f"chunk_{chunk:04d}").glob("piece_*.rgc"))
            assert len(pieces) == 8

    def test_chunked_roundtrip(self, tmp_path, source_file, sample_data):
        out_dir = tmp_path / "chunked"
        main([
            "encode", str(source_file),
            "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--chunk-size", "1500", "--out-dir", str(out_dir), "--seed", "4",
        ])
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", str(out_dir),
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 0
        assert restored.read_bytes() == sample_data

    def test_chunked_decode_survives_piece_loss(self, tmp_path, source_file, sample_data):
        out_dir = tmp_path / "chunked"
        main([
            "encode", str(source_file),
            "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--chunk-size", "2048", "--out-dir", str(out_dir), "--seed", "5",
        ])
        # Delete h = 4 pieces of chunk 1 (within tolerance).
        for victim in sorted((out_dir / "chunk_0001").glob("piece_*.rgc"))[:4]:
            victim.unlink()
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", str(out_dir),
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 0
        assert restored.read_bytes() == sample_data

    def test_chunked_decode_fails_below_k(self, tmp_path, source_file, capsys):
        out_dir = tmp_path / "chunked"
        main([
            "encode", str(source_file),
            "-k", "4", "-H", "4", "-d", "5", "-i", "1",
            "--chunk-size", "2048", "--out-dir", str(out_dir), "--seed", "6",
        ])
        for victim in sorted((out_dir / "chunk_0000").glob("piece_*.rgc"))[:5]:
            victim.unlink()
        assert main([
            "decode", str(out_dir),
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(tmp_path / "r.bin"),
        ]) == 1
        assert "need 4" in capsys.readouterr().err


class TestCorruptPieceFiles:
    """Truncated or corrupt piece files must exit 1 with a clear message."""

    def test_decode_with_truncated_piece_exits_nonzero(
        self, tmp_path, source_file, capsys
    ):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:4]
        victim = out_dir / "piece_000.rgc"
        victim.write_bytes(victim.read_bytes()[:40])  # truncate mid-body
        restored = tmp_path / "restored.bin"
        assert main([
            "decode", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(restored),
        ]) == 1
        err = capsys.readouterr().err
        assert "piece_000.rgc" in err and "invalid piece file" in err
        assert not restored.exists()

    def test_decode_with_corrupt_piece_exits_nonzero(
        self, tmp_path, source_file, capsys
    ):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:4]
        victim = out_dir / "piece_001.rgc"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # silent bit rot in the payload
        victim.write_bytes(bytes(blob))
        assert main([
            "decode", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(tmp_path / "restored.bin"),
        ]) == 1
        err = capsys.readouterr().err
        assert "checksum" in err

    def test_repair_with_corrupt_piece_exits_nonzero(
        self, tmp_path, source_file, capsys
    ):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))
        victim = out_dir / "piece_002.rgc"
        blob = bytearray(victim.read_bytes())
        blob[30] ^= 0x01
        victim.write_bytes(bytes(blob))
        assert main([
            "repair", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--lost", "3", "--out", str(tmp_path / "new.rgc"),
        ]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_missing_piece_file_exits_nonzero(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:3]
        pieces.append(str(out_dir / "piece_999.rgc"))  # never existed
        assert main([
            "decode", *pieces,
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(tmp_path / "restored.bin"),
        ]) == 1
        assert "cannot read piece file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["info", "encode"])
    def test_missing_input_file_is_one_error_line(self, tmp_path, command, capsys):
        missing = tmp_path / "nonexistent.rgc"
        argv = [command, str(missing)]
        if command == "encode":
            argv += ["--out-dir", str(tmp_path / "pieces")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(missing) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_chunked_decode_with_several_roots_is_one_error_line(
        self, tmp_path, source_file, capsys
    ):
        out_dir = encode(tmp_path, source_file, extra=["--chunk-size", "2048"])
        assert main([
            "decode", str(out_dir), str(out_dir),
            "--manifest", str(out_dir / "manifest.json"),
            "--out", str(tmp_path / "r.bin"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: chunked decode takes the pieces root")

    def test_missing_manifest_exits_nonzero(self, tmp_path, source_file, capsys):
        out_dir = encode(tmp_path, source_file)
        pieces = sorted(str(path) for path in out_dir.glob("piece_*.rgc"))[:4]
        assert main([
            "decode", *pieces,
            "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "restored.bin"),
        ]) == 1
        assert "does not exist" in capsys.readouterr().err
