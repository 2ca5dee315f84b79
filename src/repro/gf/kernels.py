"""Batched, cache-blocked GF(2^q) matmul kernel.

The paper's section 5.2 bottleneck-bandwidth analysis asks whether CPU or
network limits a deployment; the answer hinges on how fast the GF(2^16)
linear combinations run.  This module is the hot path: every encode,
repair, and reconstruct in :mod:`repro.codes` and the Coordinator funnels
through :func:`matmul` (via :func:`repro.gf.linalg.gf_matmul`).

One loop serves every operand shape (:func:`matmul`):

1. **Logs once per column tile.**  Per tile of at most ``col_block``
   data columns the data's logs are taken once into an int32 scratch tile
   (``GaloisField._log0``, zero mapped to a sentinel), so every product
   after that is one index into the zero-extended ``_exp0`` -- exact for
   zero and unit operands with no masking and no special case.

2. **Chunked add -> take -> xor.**  Output rows are visited in chunks
   sized so ``rows x tile columns`` is about ``_CHUNK`` elements, and each
   inner column ``j`` costs one ``GaloisField._xor_outer`` step into
   preallocated buffers: ``np.take(..., out=, mode="clip")``, which is
   several times cheaper than a fancy-index gather and bounds-proven
   because the index is a sum of two logs.  Tall-narrow operands (the
   paper's (640 x 319)(319 x 1644) encode, a 16 KiB file's 265 columns)
   get many rows per step; for wide operands the tile alone fills a
   chunk, rows = 1, and the step degenerates to an add-free offset view
   of the exp table.  Scratch is tile x (k + chunk rows), never
   proportional to an operand.

3. **Fan-out.**  :func:`matmul_sharded` fans a single product out over
   disjoint column shards with a thread pool (``REPRO_GF_WORKERS``) --
   ``np.take`` releases the GIL, and results are byte-identical for any
   worker count because shards never overlap.

:func:`_matmul_reference`, the seed broadcast algorithm, is not reachable
at run time; it stays as the oracle the kernel tests compare against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.gf.field import _CHUNK, GaloisField

__all__ = [
    "WORKERS_ENV",
    "DEFAULT_COL_BLOCK",
    "active_backend",
    "default_workers",
    "matmul",
    "matvec",
    "matmul_sharded",
]

#: Environment variable bounding the column-shard thread fan-out used by
#: :func:`matmul_sharded` (and through it, large Coordinator insertions).
WORKERS_ENV = "REPRO_GF_WORKERS"

#: Widest column tile: 2^15 elements fill one ``_CHUNK`` step on their
#: own, so wide data runs one output row per step (the add-free path) and
#: the int32 log tile stays at k x 128 KB.
DEFAULT_COL_BLOCK = 1 << 15

#: Minimum columns per shard before thread fan-out is worth the handoff.
_MIN_SHARD_COLS = 1 << 14


def _validate(field: GaloisField, a, b) -> tuple[np.ndarray, np.ndarray]:
    a = field.asarray(a)
    b = field.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"expected 2-D matrices, got shapes {np.shape(a)} and {np.shape(b)}"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
    return a, b


def matmul(field: GaloisField, a, b, *, col_block: int = DEFAULT_COL_BLOCK) -> np.ndarray:
    """Cache-blocked fused-table matrix product over the field.

    ``a`` is the (m, k) coefficient matrix, ``b`` the (k, n) data matrix.
    Exact for zero operands (fused zero-extended tables) and for every
    shape edge case: empty matrices, single rows, tiles and chunks that
    do not divide the dimensions.
    """
    a, b = _validate(field, a, b)
    if col_block < 1:
        # range() with a non-positive step yields nothing, which would
        # silently return an all-zero product.
        raise ValueError(f"col_block must be >= 1, got {col_block}")
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    if 0 in (m, k, n):
        return out
    log0 = field._log0
    log_a = np.take(log0, a)
    tile = min(n, col_block)
    rows = min(m, max(1, _CHUNK // tile))
    logs = idx = prod = np.empty((0, 0))
    for col_start in range(0, n, tile):
        width = min(tile, n - col_start)
        if logs.shape[1] != width:  # first tile, and a ragged last one
            logs = np.empty((k, width), dtype=np.int32)
            idx = np.empty((rows, width), dtype=np.int32)
            prod = np.empty((rows, width), dtype=field.dtype)
        # Row by row: np.take first widens its indices to intp, and that
        # temporary must not be the size of the tile.  ``b`` was
        # range-checked by _validate, so clip cannot hide anything.
        for j in range(k):
            np.take(log0, b[j, col_start : col_start + width], out=logs[j], mode="clip")
        for row_start in range(0, m, rows):
            acc = out[row_start : row_start + rows, col_start : col_start + width]
            log_rows = log_a[row_start : row_start + rows]
            step_idx, step_prod = idx[: len(acc)], prod[: len(acc)]
            for j in range(k):
                field._xor_outer(acc, log_rows[:, j], logs[j], step_idx, step_prod)
    return out


def _matmul_reference(
    field: GaloisField, a, b, *, col_block: int = DEFAULT_COL_BLOCK
) -> np.ndarray:
    """The seed broadcast algorithm, kept verbatim as the test oracle.

    Takes :func:`matmul`'s signature so a test can substitute it for the
    kernel; it has no column tiling, so ``col_block`` is unused.
    """
    a, b = _validate(field, a, b)
    out = field.zeros((a.shape[0], b.shape[1]))
    step = 64  # bounds the (rows, k, n) product intermediate
    for start in range(0, a.shape[0], step):
        block = a[start : start + step]
        products = field.multiply(block[:, :, None], b[None, :, :])
        out[start : start + step] = np.bitwise_xor.reduce(products, axis=1)
    return out


def active_backend() -> str:
    """Name of the one kernel implementation (recorded by the e2e ledger)."""
    return "numpy"


def default_workers() -> int:
    """Worker count for :func:`matmul_sharded`: env override or CPU count."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        workers = int(raw)
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def matvec(field: GaloisField, a, x) -> np.ndarray:
    """Matrix-vector product ``a @ x`` through the batched matmul kernel."""
    a = field.asarray(a)
    x = field.asarray(x)
    if a.ndim != 2 or x.ndim != 1 or x.shape[0] != a.shape[1]:
        raise ValueError(f"shape mismatch for matvec: {np.shape(a)} x {np.shape(x)}")
    return matmul(field, a, x[:, None])[:, 0]


def matmul_sharded(
    field: GaloisField,
    a,
    b,
    *,
    workers: int | None = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> np.ndarray:
    """Matrix product fanned out over disjoint column shards.

    Each worker computes ``a @ b[:, shard]`` into its own slice of the
    output, so the result is byte-identical to :func:`matmul` for every
    worker count (shards never overlap and GF products have no carries
    between columns).  With one worker -- or data too narrow to shard --
    this is exactly :func:`matmul`.
    """
    a, b = _validate(field, a, b)
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = b.shape[1]
    shards = min(workers, max(1, n // _MIN_SHARD_COLS))
    if shards <= 1:
        return matmul(field, a, b, col_block=col_block)
    bounds = np.linspace(0, n, shards + 1, dtype=np.int64)
    out = field.zeros((a.shape[0], n))

    def _run(lo: int, hi: int) -> None:
        out[:, lo:hi] = matmul(field, a, b[:, lo:hi], col_block=col_block)

    with ThreadPoolExecutor(max_workers=shards) as pool:
        futures = [
            pool.submit(_run, int(bounds[s]), int(bounds[s + 1])) for s in range(shards)
        ]
        for future in futures:
            future.result()
    return out
