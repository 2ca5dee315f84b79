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

3. **Fan-out.**  A product of ``m x k x n`` element operations is split
   by output rows into ``min(workers, m k n // _MIN_SHARD_OPS, m)``
   shards (``workers``: ``REPRO_GF_WORKERS``, else the CPUs this process
   may run on), each accumulating into its own contiguous row block of
   the one output.  The calling thread allocates all scratch -- the log
   tile, shared read-only, and one chunk buffer pair per shard -- runs
   the last shard itself and hands the rest to one process-wide pool
   whose threads are created once; ``np.take`` releases the GIL.  Below
   the threshold (every repair, erasure- and small-file-sized products)
   the product runs inline and the pool is never touched.  Shards never
   overlap, so results are byte-identical for any worker count.

:func:`_matmul_reference`, the seed broadcast algorithm, is not reachable
at run time; it stays as the oracle the kernel tests compare against.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable
from concurrent.futures import Future, wait
from typing import Any

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
    "usable_cpus",
]

#: Environment variable bounding the row-shard fan-out of :func:`matmul`.
WORKERS_ENV = "REPRO_GF_WORKERS"

#: Widest column tile: 2^15 elements fill one ``_CHUNK`` step on their
#: own, so wide data runs one output row per step (the add-free path) and
#: the int32 log tile stays at k x 128 KB.
DEFAULT_COL_BLOCK = 1 << 15

#: Element operations (m x k x n) per shard below which handing a shard to
#: another thread costs more than it saves.  On a 2-vCPU VM two workers
#: lose up to ~10^6 ops (a repair, a small file: x0.6-0.9), break even at
#: 1-3 x 10^7 (erasure-sized products) and win x1.1-1.6 from ~7 x 10^7
#: (the paper's and the bulk encode and decode); 2^25 puts the first
#: split at 2^26 ops.
_MIN_SHARD_OPS = 1 << 25


class _ShardPool:
    """Daemon threads running :func:`matmul`'s shard bodies.

    It grows to the largest fan-out asked of it and never shrinks, so a
    steady workload creates its threads -- and their malloc arenas --
    once.  Shard bodies never wait on the pool, so callers on any number
    of threads can share it without deadlock.
    """

    def __init__(self) -> None:
        # (the caller's future, shard body, its arguments)
        self._tasks: queue.SimpleQueue[
            tuple[Future[None], Callable[..., None], tuple[Any, ...]]
        ] = queue.SimpleQueue()
        self._threads = 0
        self._lock = threading.Lock()

    def run(self, fn: Callable[..., None], arg_sets: list[tuple[Any, ...]]) -> None:
        """``fn(*args)`` for every ``args``: the last on the calling thread,
        the rest on the pool; return (or raise) once all have finished."""
        with self._lock:
            while self._threads < len(arg_sets) - 1:
                self._threads += 1
                threading.Thread(
                    target=self._serve, name=f"gf-shard-{self._threads}", daemon=True
                ).start()
        futures: list[Future[None]] = []
        for args in arg_sets[:-1]:
            futures.append(Future())
            self._tasks.put((futures[-1], fn, args))
        try:
            fn(*arg_sets[-1])
        finally:
            wait(futures)
        for future in futures:
            future.result()

    def _serve(self) -> None:
        while True:
            future, fn, args = self._tasks.get()
            try:
                fn(*args)
            except Exception as exc:  # handed to the waiting caller
                future.set_exception(exc)
            else:
                future.set_result(None)
            # The arguments are views: held until the next task, they would
            # keep the last product's output and log tile alive.
            del future, fn, args


_POOL = _ShardPool()


def _drop_pool() -> None:
    """A forked child inherits the pool but none of its threads: start over."""
    global _POOL
    _POOL = _ShardPool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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


def _accumulate(
    field: GaloisField,
    acc: np.ndarray,
    log_a: np.ndarray,
    logs: np.ndarray,
    idx: np.ndarray,
    prod: np.ndarray,
) -> None:
    """``acc ^= a @ tile`` for one row shard, from both operands' logs.

    ``acc`` is the shard's (rows, width) block of the output, ``log_a``
    its coefficient logs, ``logs`` the tile's data logs (shared, read
    only), ``idx``/``prod`` its own (chunk rows, width) scratch.  Runs on
    pool threads: it allocates nothing and calls no public kernel, so the
    caller's one :func:`matmul` call is all a profiler sees.
    """
    step = len(idx)
    for start in range(0, len(acc), step):
        block = acc[start : start + step]
        log_rows = log_a[start : start + step]
        step_idx, step_prod = idx[: len(block)], prod[: len(block)]
        for j in range(len(logs)):
            field._xor_outer(block, log_rows[:, j], logs[j], step_idx, step_prod)


def matmul(
    field: GaloisField,
    a,
    b,
    *,
    workers: int | None = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> np.ndarray:
    """Cache-blocked fused-table matrix product over the field.

    ``a`` is the (m, k) coefficient matrix, ``b`` the (k, n) data matrix.
    Exact for zero operands (fused zero-extended tables) and for every
    shape edge case: empty matrices, single rows, tiles and chunks that
    do not divide the dimensions.  ``workers`` bounds the row-shard
    fan-out of large products (default :func:`default_workers`); the
    result is byte-identical for every value.
    """
    a, b = _validate(field, a, b)
    if col_block < 1:
        # range() with a non-positive step yields nothing, which would
        # silently return an all-zero product.
        raise ValueError(f"col_block must be >= 1, got {col_block}")
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    if 0 in (m, k, n):
        return out
    shards = max(1, min(workers, m * k * n // _MIN_SHARD_OPS, m))
    log0 = field._log0
    log_a = np.take(log0, a)
    tile = min(n, col_block)
    rows = max(1, _CHUNK // tile)
    # Flat buffers, reshaped per tile so a ragged last tile gets contiguous
    # views of the same memory: the log tile, and per shard its rows
    # [lo, hi), chunk rows r and its idx/prod chunk scratch.
    logs = np.empty(k * tile, dtype=np.int32)
    blocks = []
    for s in range(shards):
        lo, hi = m * s // shards, m * (s + 1) // shards
        r = min(rows, hi - lo)
        idx = np.empty(r * tile, dtype=np.int32)
        blocks.append((lo, hi, r, idx, np.empty(r * tile, dtype=field.dtype)))
    for col_start in range(0, n, tile):
        cols = slice(col_start, min(n, col_start + tile))
        width = cols.stop - col_start
        tile_logs = logs[: k * width].reshape(k, width)
        # Row by row: np.take first widens its indices to intp, and that
        # temporary must not be the size of the tile.  ``b`` was
        # range-checked by _validate, so clip cannot hide anything.
        for j in range(k):
            np.take(log0, b[j, cols], out=tile_logs[j], mode="clip")
        arg_sets = [
            (
                field,
                out[lo:hi, cols],
                log_a[lo:hi],
                tile_logs,
                idx[: r * width].reshape(r, width),
                prod[: r * width].reshape(r, width),
            )
            for lo, hi, r, idx, prod in blocks
        ]
        if shards == 1:
            _accumulate(*arg_sets[0])
        else:
            _POOL.run(_accumulate, arg_sets)
    return out


def _matmul_reference(
    field: GaloisField,
    a,
    b,
    *,
    workers: int | None = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> np.ndarray:
    """The seed broadcast algorithm, kept verbatim as the test oracle.

    Takes :func:`matmul`'s signature so a test can substitute it for the
    kernel; it is single-threaded and has no column tiling, so
    ``workers`` and ``col_block`` are unused.
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
    """Shard bound for :func:`matmul`: ``REPRO_GF_WORKERS``, else the number
    of CPUs this process may run on (its affinity mask, not the host's)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        workers = int(raw)
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {workers}")
        return workers
    return usable_cpus()


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform exposes one, not the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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
    """:func:`matmul`, which decides the fan-out itself; kept for its callers."""
    return matmul(field, a, b, workers=workers, col_block=col_block)
