"""Kernel vs. oracle equivalence: the blocked kernel encodes identically.

``repro.gf.kernels.matmul`` is the one kernel that runs; ``numpy`` below
is that kernel untouched, ``reference`` substitutes the seed broadcast
algorithm (``kernels._matmul_reference``) for it.  With the same seed,
both must produce byte-identical pieces for the full (encode, repair,
reconstruct) life cycle -- once on a code whose products all take the
kernel's log path, once on the paper's code, whose encode and decode take
its XOR path -- and must leave the golden serialization fixtures
byte-stable.
"""

import pathlib

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.core.regenerating import RandomLinearRegeneratingCode
from repro.core.serialization import piece_from_bytes, piece_to_bytes
from repro.gf import kernels
from repro.gf.field import GF

DATA = pathlib.Path(__file__).parent.parent / "data"

BACKENDS = ["numpy", "reference"]


@pytest.fixture()
def backend(request, monkeypatch):
    """Run the test on the kernel, or with the oracle in its place."""
    if request.param == "reference":
        monkeypatch.setattr(kernels, "matmul", kernels._matmul_reference)
    return request.param


#: RC(4,4,5,1) multiplies at most 24 rows, so every product takes the log
#: path; the paper's RC(32,32,40,1) on 64 KiB encodes (640 x 319) and
#: decodes (319 x 319) into 103 columns, on the XOR path.
LIFECYCLES = {
    "small": (RCParams(k=4, h=4, d=5, i=1), 8192),
    "tall": (RCParams(k=32, h=32, d=40, i=1), 1 << 16),
}


def run_lifecycle(name: str = "small") -> dict[str, bytes]:
    """One full seeded life cycle; everything as bytes."""
    params, size = LIFECYCLES[name]
    field = GF(16)
    code = RandomLinearRegeneratingCode(
        params, field=field, rng=np.random.default_rng(20090622)
    )
    payload = np.random.default_rng(7).integers(0, 256, size=size, dtype=np.uint8)
    encoded = code.insert(payload.tobytes())
    repair = code.repair(list(encoded.pieces[: code.params.d]), index=99)
    reconstructed = code.reconstruct(
        list(encoded.pieces[: code.params.k]), encoded.file_size
    )
    out = {
        f"piece_{piece.index}": piece_to_bytes(piece, field)
        for piece in encoded.pieces
    }
    out["repaired"] = piece_to_bytes(repair.piece, field)
    out["reconstructed"] = reconstructed
    return out


@pytest.fixture(scope="module")
def numpy_lifecycle() -> dict[str, bytes]:
    return run_lifecycle()


@pytest.fixture(scope="module")
def tall_numpy_lifecycle() -> dict[str, bytes]:
    return run_lifecycle("tall")


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_lifecycle_is_byte_identical_across_backends(backend, numpy_lifecycle):
    result = run_lifecycle()
    assert result.keys() == numpy_lifecycle.keys()
    for name, blob in numpy_lifecycle.items():
        assert result[name] == blob, f"{name} differs under backend {backend!r}"


def test_tall_lifecycle_takes_the_xor_path():
    params, size = LIFECYCLES["tall"]
    assert params.n_file >= kernels._XOR_MIN_ROWS
    assert params.n_piece * params.total_pieces >= kernels._XOR_MIN_ROWS
    # Two bytes per GF(2^16) element, n_file rows: the fragment length.
    assert size // (2 * params.n_file) >= kernels._XOR_MIN_COLUMNS


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_tall_lifecycle_is_byte_identical_across_backends(backend, tall_numpy_lifecycle):
    result = run_lifecycle("tall")
    assert result.keys() == tall_numpy_lifecycle.keys()
    for name, blob in tall_numpy_lifecycle.items():
        assert result[name] == blob, f"{name} differs under backend {backend!r}"


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_sharded_insert_matches_single_worker(backend):
    """Thread fan-out must never change the encoding, on either kernel."""

    def encode(workers):
        code = RandomLinearRegeneratingCode(
            RCParams(k=4, h=2, d=4, i=0),
            field=GF(16),
            rng=np.random.default_rng(11),
        )
        encoded = code.insert(b"x" * 200_000, workers=workers)
        return [piece.data.tobytes() for piece in encoded.pieces]

    assert encode(1) == encode(4)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("fixture", ["piece_v1.bin", "piece_v2.bin"])
def test_golden_pieces_stable_under_every_backend(backend, fixture):
    """Golden piece fixtures survive a kernel round trip bit-for-bit:
    decode, run the piece's matrices through matmul with the identity,
    re-serialize, compare."""
    blob = (DATA / fixture).read_bytes()
    piece, field = piece_from_bytes(blob)
    eye = field.eye(piece.n_piece)
    from repro.gf import linalg

    recoded = type(piece)(
        index=piece.index,
        data=linalg.gf_matmul(field, eye, piece.data),
        coefficients=linalg.gf_matmul(field, eye, piece.coefficients),
    )
    v2 = (DATA / "piece_v2.bin").read_bytes()
    assert piece_to_bytes(recoded, field) == v2
