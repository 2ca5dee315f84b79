"""Serialization format compatibility against golden fixtures.

``tests/data/`` holds byte-exact v1 and v2 blobs (see
``tests/data/make_golden.py``).  These tests pin three promises peers
rely on:

1. today's encoder still produces exactly the v2 golden bytes (no
   silent format drift);
2. v1 blobs written by old peers still load;
3. damaged v2 blobs and blobs from *future* format versions fail with
   the typed :class:`SerializationError`, never garbage data.
"""

import pathlib

import numpy as np
import pytest

from repro.core.serialization import (
    FORMAT_VERSION,
    SerializationError,
    fragment_from_bytes,
    fragment_to_bytes,
    piece_from_bytes,
    piece_to_bytes,
)

DATA = pathlib.Path(__file__).parent.parent / "data"

# Byte offsets within the common header prefix.
_VERSION_OFFSET = 4
_KIND_OFFSET = 5
_V2_HEADER_SIZE = 28  # <4sBBBBIIIII: magic+meta (24) + crc32 (4)


@pytest.fixture(scope="module")
def golden_v1() -> bytes:
    return (DATA / "piece_v1.bin").read_bytes()


@pytest.fixture(scope="module")
def golden_v2() -> bytes:
    return (DATA / "piece_v2.bin").read_bytes()


@pytest.fixture(scope="module")
def golden_fragment() -> bytes:
    return (DATA / "fragment_v2.bin").read_bytes()


class TestGoldenStability:
    def test_current_version_is_2(self):
        """Bumping FORMAT_VERSION must come with new golden files and a
        conscious update of this suite."""
        assert FORMAT_VERSION == 2

    def test_encoder_reproduces_golden_v2_exactly(self, golden_v2):
        piece, field = piece_from_bytes(golden_v2)
        assert piece_to_bytes(piece, field) == golden_v2

    def test_encoder_reproduces_golden_fragment_exactly(self, golden_fragment):
        fragment, field = fragment_from_bytes(golden_fragment)
        assert fragment_to_bytes(fragment, field) == golden_fragment

    @pytest.mark.parametrize("name", ["piece_v1.bin", "piece_v2.bin"])
    def test_goldens_parse_as_views_of_the_file(self, name):
        blob = (DATA / name).read_bytes()
        piece, _ = piece_from_bytes(blob)
        assert np.shares_memory(piece.data, np.frombuffer(blob, dtype=np.uint8))
        assert not piece.data.flags.writeable


class TestV1Compatibility:
    def test_v1_still_loads(self, golden_v1):
        piece, field = piece_from_bytes(golden_v1)
        assert field.q == 16
        assert piece.index == 7
        assert piece.coefficients.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert piece.data.tolist() == [[10, 20, 30, 40], [50, 60, 0, 65535]]

    def test_v1_and_v2_carry_identical_content(self, golden_v1, golden_v2):
        old, old_field = piece_from_bytes(golden_v1)
        new, new_field = piece_from_bytes(golden_v2)
        assert old_field == new_field
        assert old.index == new.index
        assert (old.coefficients == new.coefficients).all()
        assert (old.data == new.data).all()

    def test_reencoding_v1_upgrades_to_v2(self, golden_v1, golden_v2):
        """Reading an old blob and writing it back produces the current
        format -- the upgrade path repair naturally applies."""
        piece, field = piece_from_bytes(golden_v1)
        assert piece_to_bytes(piece, field) == golden_v2


class TestCorruptionDetection:
    @pytest.mark.parametrize("offset_from_header", [0, 3, -1])
    def test_v2_payload_corruption_raises_typed_error(
        self, golden_v2, offset_from_header
    ):
        mutated = bytearray(golden_v2)
        offset = (
            len(mutated) + offset_from_header
            if offset_from_header < 0
            else _V2_HEADER_SIZE + offset_from_header
        )
        mutated[offset] ^= 0xFF
        with pytest.raises(SerializationError, match="checksum"):
            piece_from_bytes(bytes(mutated))

    def test_v2_crc_field_corruption_raises_typed_error(self, golden_v2):
        mutated = bytearray(golden_v2)
        mutated[_V2_HEADER_SIZE - 1] ^= 0x01  # inside the stored crc32
        with pytest.raises(SerializationError, match="checksum"):
            piece_from_bytes(bytes(mutated))

    def test_truncation_raises_typed_error(self, golden_v2):
        for cut in (0, 3, _V2_HEADER_SIZE - 1, len(golden_v2) - 1):
            with pytest.raises(SerializationError):
                piece_from_bytes(golden_v2[:cut])

    def test_wrong_kind_rejected(self, golden_v2, golden_fragment):
        with pytest.raises(SerializationError, match="kind"):
            fragment_from_bytes(golden_v2)
        with pytest.raises(SerializationError, match="kind"):
            piece_from_bytes(golden_fragment)


class TestFutureVersions:
    @pytest.mark.parametrize("version", [3, 9, 255])
    def test_unknown_future_version_rejected_cleanly(self, golden_v2, version):
        mutated = bytearray(golden_v2)
        mutated[_VERSION_OFFSET] = version
        with pytest.raises(SerializationError, match="unsupported format version"):
            piece_from_bytes(bytes(mutated))

    def test_version_zero_rejected(self, golden_v2):
        mutated = bytearray(golden_v2)
        mutated[_VERSION_OFFSET] = 0
        with pytest.raises(SerializationError, match="unsupported format version"):
            piece_from_bytes(bytes(mutated))
