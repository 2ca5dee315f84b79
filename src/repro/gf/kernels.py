"""Batched, cache-blocked GF(2^q) matmul kernels.

The paper's section 5.2 bottleneck-bandwidth analysis asks whether CPU or
network limits a deployment; the answer hinges on how fast the GF(2^16)
linear combinations run.  This module is the hot path: every encode,
repair, and reconstruct in :mod:`repro.codes` and the Coordinator funnels
through :func:`matmul` (via :func:`repro.gf.linalg.gf_matmul`).

Three ideas, composable and individually testable:

1. **Fused log/exp lookups** (:func:`matmul`).  The field's
   zero-extended tables (``GaloisField._log0`` / ``_exp0``) make
   ``exp0[log0[a] + log0[b]]`` exact for *all* operands including zero, so
   the kernels never touch the classic ``log[0]`` sentinel hazard.  The
   coefficient matrix's logs are precomputed once per call (it is tiny --
   (m, k) with m, k ~ tens -- while the data matrix is huge), so each
   output block costs one gather plus one XOR-accumulate pass.

2. **Cache blocking.**  For wide data matrices (the common encode shape:
   k fragment rows x hundreds of thousands of element columns) the kernel
   iterates output rows and accumulates coefficient-by-coefficient over
   column tiles of :data:`DEFAULT_COL_BLOCK` elements, keeping the working
   set inside L2.  Zero coefficients are skipped outright and unit
   coefficients turn into a gather-free XOR.  For narrow matrices (matrix
   inversion helpers, coefficient-only algebra) a broadcast path over
   :data:`DEFAULT_ROW_BLOCK`-row tiles avoids Python loop overhead.

3. **Fan-out.**  :func:`matmul_sharded` fans a single product out over
   disjoint column shards with a thread pool (``REPRO_GF_WORKERS``) --
   numpy gathers release the GIL, and results are byte-identical for any
   worker count because shards never overlap.

:func:`_matmul_reference`, the seed broadcast algorithm, is not reachable
at run time; it stays as the oracle the kernel tests compare against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.gf.field import GaloisField

__all__ = [
    "WORKERS_ENV",
    "DEFAULT_COL_BLOCK",
    "DEFAULT_ROW_BLOCK",
    "active_backend",
    "default_workers",
    "matmul",
    "matvec",
    "matmul_sharded",
]

#: Environment variable bounding the column-shard thread fan-out used by
#: :func:`matmul_sharded` (and through it, large Coordinator insertions).
WORKERS_ENV = "REPRO_GF_WORKERS"

#: Column-tile width for the blocked kernel: 2^15 uint16 elements = 64 KB
#: per tile operand, comfortably inside L2 alongside the gather output.
DEFAULT_COL_BLOCK = 1 << 15

#: Row-tile height for the broadcast (small-n) path -- bounds the
#: (rows, k, n) product intermediate exactly like the seed kernel did.
DEFAULT_ROW_BLOCK = 64

#: Below this many data columns the per-(row, coefficient) Python loop of
#: the blocked kernel costs more than it saves; use the broadcast path.
_LOOP_MIN_COLS = 256

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


def _check_block(name: str, value: int) -> int:
    value = int(value)
    if value < 1:
        # range(start, stop, step) with a non-positive step silently
        # yields nothing, which used to make gf_matmul return all zeros.
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def matmul(
    field: GaloisField,
    a,
    b,
    *,
    col_block: int = DEFAULT_COL_BLOCK,
    row_block: int = DEFAULT_ROW_BLOCK,
) -> np.ndarray:
    """Cache-blocked fused-table matrix product over the field.

    ``a`` is the (m, k) coefficient matrix, ``b`` the (k, n) data matrix.
    Exact for zero operands (fused zero-extended tables) and for every
    shape edge case: empty matrices, single rows, block sizes that do not
    divide the dimensions.
    """
    a, b = _validate(field, a, b)
    col_block = _check_block("col_block", col_block)
    row_block = _check_block("row_block", row_block)
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    if 0 in (m, k, n):
        return out
    log0 = field._log0
    exp0 = field._exp0
    if n < _LOOP_MIN_COLS:
        # Narrow data: one broadcast gather per row tile beats m*k Python
        # iterations.  The fused tables keep zero operands exact.
        log_b = log0[b]
        for start in range(0, m, row_block):
            block = a[start : start + row_block]
            products = exp0[log0[block][:, :, None] + log_b[None, :, :]]
            out[start : start + row_block] = np.bitwise_xor.reduce(products, axis=1)
        return out
    # Wide data: per-(row, coefficient) XOR-accumulate over column tiles.
    log_a = log0[a]
    sentinel = field._log_sentinel
    for col_start in range(0, n, col_block):
        col_end = min(col_start + col_block, n)
        b_tile = b[:, col_start:col_end]
        log_tile = None
        out_tile = out[:, col_start:col_end]
        for i in range(m):
            acc = out_tile[i]
            for j in range(k):
                la = log_a[i, j]
                if la == sentinel:  # coefficient is zero: contributes nothing
                    continue
                if la == 0:  # coefficient is one: gather-free XOR
                    np.bitwise_xor(acc, b_tile[j], out=acc)
                    continue
                if log_tile is None:
                    log_tile = log0[b_tile]
                np.bitwise_xor(acc, exp0[la + log_tile[j]], out=acc)
    return out


def _matmul_reference(
    field: GaloisField,
    a,
    b,
    *,
    col_block: int = DEFAULT_COL_BLOCK,
    row_block: int = DEFAULT_ROW_BLOCK,
) -> np.ndarray:
    """The seed broadcast algorithm, kept verbatim as the test oracle.

    Takes :func:`matmul`'s signature so a test can substitute it for the
    kernel; it has no column tiling, so ``col_block`` is unused.
    """
    a, b = _validate(field, a, b)
    row_block = _check_block("row_block", row_block)
    out = field.zeros((a.shape[0], b.shape[1]))
    for start in range(0, a.shape[0], row_block):
        block = a[start : start + row_block]
        products = field.multiply(block[:, :, None], b[None, :, :])
        out[start : start + row_block] = np.bitwise_xor.reduce(products, axis=1)
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
    row_block: int = DEFAULT_ROW_BLOCK,
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
        return matmul(field, a, b, col_block=col_block, row_block=row_block)
    bounds = np.linspace(0, n, shards + 1, dtype=np.int64)
    out = field.zeros((a.shape[0], n))

    def _run(lo: int, hi: int) -> None:
        out[:, lo:hi] = matmul(
            field, a, b[:, lo:hi], col_block=col_block, row_block=row_block
        )

    with ThreadPoolExecutor(max_workers=shards) as pool:
        futures = [
            pool.submit(_run, int(bounds[s]), int(bounds[s + 1])) for s in range(shards)
        ]
        for future in futures:
            future.result()
    return out
