"""Batched GF(2^q) matmul kernel: a log-table path, a row-XOR path and a
packed split-table step.

The paper's section 5.2 bottleneck-bandwidth analysis asks whether CPU or
network limits a deployment; the answer hinges on how fast the GF(2^16)
linear combinations run.  This module is the hot path: every encode,
repair, and reconstruct in :mod:`repro.codes` and the Coordinator funnels
through :func:`matmul` (via :func:`repro.gf.linalg.gf_matmul`).  This
docstring is the one description of the kernel's design; the other
documents point here.

:func:`matmul` multiplies the (m, k) coefficient matrix ``a`` by the
(k, n) data matrix ``b`` on one of three paths, chosen by its shape.
All compute the same field products, so their bytes are equal.

**Selection.**  A pure function of ``(m, n)``; ``k``, ``workers`` and
``col_block`` play no part:

1. data of at least ``_PACKED_MIN_COLUMNS`` (4096) columns and
   ``_PACKED_MIN_ROWS`` (6) to ``_PACKED_MAX_ROWS`` (320, exclusive) rows
   take the packed step;
2. other products of at least ``_XOR_MIN_ROWS`` (96) rows and
   ``_XOR_MIN_COLUMNS`` (64) columns take the XOR path;
3. all others take the log path.

The tables below are single-thread CPU time over the packed step's,
GF(2^16), on the 2-vCPU box the ledger runs on, best of 3-7 interleaved
runs.  The XOR path against it, by rows::

    rows m   k=32, n=4096   k=32, n=16384   k=319, n=4096
    96       2.22           2.91            2.61
    128      1.67           2.60            1.84
    192      1.53           1.90            1.47
    256      1.12           1.38            1.52
    320      1.18           1.71            1.40
    384      0.98           1.22            1.05
    448      1.03           1.27            1.07
    640      0.89           1.04            0.83

From 384 rows the packed step's lead is within noise until the XOR path
wins at 640, while its accumulator and table batch grow with ``m``,
8 MiB a shard at 319 rows against the XOR path's 3.3 MiB at 640: the
XOR path takes over at 320.  The log path against it, by rows::

    rows m   k=10, n=16384   k=32, n=16384   k=10, n=270601
    1        0.39            0.43            0.35
    2        0.58            0.46            0.53
    4        0.91            1.03            0.85
    5        1.05            0.95            0.70
    6        1.36            1.90            1.15
    8        1.59            1.81            1.48
    16       2.86            3.38            2.73

A packed lookup serves 16 rows whether ``m`` fills them or not, so one-
and four-row products (the erasure and bulk newcomers) stay on the log
path.  By columns::

    (m, k)     n=1024   2048   3072   4096   6144
    (8, 8)     0.81     0.81   1.01   1.17   1.35
    (8, 32)    0.85     1.10   0.99   0.94   1.53
    (16, 32)   1.35     1.96   2.18   2.80   2.76
    (64, 32)   1.42     2.39   2.64   2.86   3.12

From 16 rows the packed step already wins at 1024-2048 columns, but the
floor stays at 4096, where it is at parity or better from 6 rows: the
2048-column products of the t(32,0) wall-clock claims
(``tests/integration/test_paper_claims.py``), the paper's 1644 and the
small file's 265 keep the log and XOR paths.  The erasure and bulk
encodes and decodes (64 and 31-32 rows, 16 384 and 270 601 columns), and
figure 4's 16 x 8 x 8192 normalizer encodes, take the packed step.

The XOR path against the log path, at the paper's width (k = 319,
n = 1644), by rows: 1.64 at 32, 0.97 at 64, 0.67 at 96, 0.52 at 128,
0.31 at 319, 0.25 at 640.  The paper's encode (640 rows) and decode
(319) take the XOR path.  Elimination in :mod:`repro.gf.linalg` applies
its block updates through :func:`matmul` on stacks of 192 rows or more,
and they take the path :func:`matmul` picks: the XOR path on the paper's
320 x 319 reconstruct stack.  Smaller stacks eliminate without calling
it.  The row threshold is 96 because the XOR path already wins there at
the paper's width with two workers as well as one (0.64 of the log
path's wall time at 96 rows, k=319, 2 workers).  The 96-127-row band is
where figure 4's small grids encode: RC(8,8,10,3) stacks a 96 x 42
product, which at 128 rows took the log path and cost as much wall time
as RC(8,8,15,7)'s 2.5x larger XOR product; on data of 4096 columns or
more the same product takes the packed step (XOR/packed 2.2-2.9 at 96
rows).

The XOR path's cost has a part per numpy call, ``(2 + 2.7) k q / g``
calls per tile, that narrow data does not amortise, and it copies table
rows ``n`` elements long.  XOR path over log path, by columns::

    (m, k)       n=1    n=8    n=16   n=32   n=64   n=128   n=1644
    (640, 319)   2.97   1.53   1.14   1.00   0.59   0.45    0.25
    (128, 319)   -      -      -      1.68   1.27   0.99    0.52
    (128, 32)    -      -      2.16   1.82   1.47   1.01    -
    (4096, 8)    3.84   1.01   0.70   0.61   0.47   -       -

``n = 1`` is :func:`matvec`; ``n`` is 103 for the paper's code on a
64 KiB file.  At 64 columns a 128-row product still loses up to 1.5 ms,
where 256 rows gain 2 ms and 640 rows 9 ms.

**Log path** (:func:`_log_product`, one column shard in
:func:`_log_columns`).  Every product is one index into the
zero-extended ``GaloisField._exp0`` by a sum of two logs
(``GaloisField._log0``, zero mapped to a sentinel): exact for zero and
unit operands with no masking and no special case.  Output rows are
visited in chunks sized so ``rows x width`` is about ``_CHUNK``
elements, and each (chunk, data row ``j``) costs one
``GaloisField._xor_outer`` step, add -> take -> xor, into preallocated
buffers (a single row skips the add: an offset view of the exp table).
Each data row's logs are taken once per tile, during the first chunk,
into an int32 (k, width) tile when later chunks reuse them and into one
row when there is one chunk: the one-row erasure newcomer on its
16 384-column tile holds 64 KiB of logs, not 2 MiB.
Fewer, larger numpy calls is what narrow data needs; each ``np.take``
widens its int32 index chunk to a transient intp copy (``_CHUNK`` x 8
bytes, or one row of a tile wider than ``_CHUNK``).
``np.take(..., out=, mode="clip")`` is several times cheaper than a
fancy-index gather, and bounds-proven because its index is a log or a
sum of two.

**Packed step** (:func:`_packed_product`, one column shard in
:func:`_packed_columns`).  Split every data element into bytes:
``c b = c (b_hi << 8) XOR c b_lo``, since products distribute over XOR.
For each coefficient column ``j`` and each group of 16 output rows (32
at q <= 8: ``_PACKED_BYTES`` // element size) two 256-row tables hold,
in row ``v``, the group's 16 products ``a[i, j] (v << 8)`` and
``a[i, j] v``: 32 bytes, the widest item ``np.take`` copies with a
fixed-size loop.  A field of q <= 8 needs the one low-byte table.

- Per data row and tile the low and high bytes go once into two intp
  index rows; each (group, ``j``) then costs two ``np.take(table, idx,
  axis=0, out=, mode="clip")`` and two XORs through ``uint64`` views
  into a (groups, tile, 16) accumulator, transposed into ``out`` once
  per tile.  The log path makes one 2-byte lookup and one XOR per
  element operation; the packed step makes two 32-byte lookups per 16.
  Against the wide log step it replaced (one offset-view take and one
  XOR per output row and data row) its single-thread CPU read 0.42-0.48
  on the bulk encode, 0.44-0.46 on the bulk decode, 0.58-0.66 on the
  erasure encode and 0.40-0.41 on the erasure decode (best of 3-7, two
  interleaved sessions).
- Tables are doubled, 8 XOR calls, from the products ``a[i, j] x^t``
  (:func:`_packed_basis`, once per product) for ``_PACKED_BATCH`` (8)
  coefficient columns at a time, value-major so that each call runs
  over contiguous rows, and each column's are copied into one
  contiguous table per group and plane just before its lookups.  They
  are rebuilt per tile: about ``256 / tile`` of the work at the
  ``_PACKED_TILE`` (8192) column tile, where 4096 columns cost 1.2-1.4x
  as much CPU and 16 384 columns no less.  Doubling in place in the lookup
  layout instead (eight broadcast XORs over 32-byte rows) cost 1.15x the
  CPU on the bulk decode and 1.5x on its encode.
- Memory.  Tables for every coefficient at once would be ``m k`` KiB
  (2 MiB on the erasure encode, beside its 2 MiB output).  A shard's
  scratch is instead its batch of doubled tables (``8 x 16 KiB`` per
  group at q = 16), one column's lookup tables, two intp index rows, a
  ``tile x 32``-byte gather and a ``groups x tile x 32``-byte
  accumulator: 1.9 MiB at 64 rows, bounded by the tile and ``m``, never
  by ``n``.  The shared basis is ``32 m k`` bytes at q = 16 (64 KiB on
  the erasure encode), whose traced whole-product peak is 4.21 MB,
  under the 4.66 MB the kernel tests allow.

**XOR path** (:func:`_xor_product`, one column shard in
:func:`_xor_columns`).  Write a coefficient ``c = sum_t c_t x^t``.  Then
``c v = XOR over {t : c_t = 1} of x^t v``, so output row ``i`` is the
XOR of the *basis rows* ``x^t b_j`` over every ``(j, t)`` where bit ``t``
of ``a[i, j]`` is set, and no product is looked up per element.

- A basis row comes from the one before it by a left shift, XORing the
  polynomial's low bits wherever the top bit fell off
  (:func:`_times_x`): exact for zero, for every q.
- The ``k q`` bits are grouped ``g = _XOR_GROUP`` (6) at a time.  Each
  group's 2^g XOR combinations of its basis rows are built by doubling,
  ``g`` XOR calls, and every output row XORs in the one table row that
  its ``g`` coefficient bits index (:func:`_bit_patterns`, uint8, once
  per product).  This is the "Four Russians" (M4RI) scheme over
  GF(2^q), the idea behind Cauchy Reed-Solomon bit-matrix coding.
- Per element operation that is ``q / g`` table-row copies and XORs,
  plus ``2^g q / (g m)`` table-building XORs: it wins once ``m``
  amortises the tables -- hence the row threshold.
- Column tiles are at most ``min(col_block, _XOR_TILE)`` wide (512);
  basis rows and tables are made ``_XOR_BATCH`` (32) groups at a time.
  A shard's scratch is its table batch, its basis rows, and an (m, tile)
  gather and accumulator: never proportional to ``k`` or ``n``.

**Fan-out.**  A product of ``m x k x n`` element operations is split
into ``min(workers, m k n // _MIN_SHARD_OPS)`` shards (``workers``:
``REPRO_GF_WORKERS``, else the CPUs this process may run on) by column
ranges on all three paths, each shard cutting its range into the fewest
near-equal tiles (:func:`_column_shards`).  The calling thread
allocates all scratch -- the shared coefficient logs, bit patterns or
basis and each shard's own buffers -- runs the last shard itself and
hands the rest to one process-wide pool whose threads are created once;
numpy releases the GIL inside each call, and the only barrier is the
end of the product.  Shard bodies allocate no array on the XOR path and
the packed step: every ``np.take`` reads intp indices and writes into
the shard's own buffer, and only numpy's fixed per-call iterator
buffers remain.  Below ``2 * _MIN_SHARD_OPS`` (every repair, erasure-
and small-file-sized products) the product runs inline and the pool is
never touched.  Shards never overlap, so results are byte-identical for
any worker count and any ``col_block``.

On this 2-vCPU box two workers buy the packed step no wall time in
isolation: median wall time of two workers over one, 5-9 interleaved
runs, read 1.10 on the bulk encode, 1.08 on its decode, and 1.04 and
1.13 on the erasure encode and decode split by a lowered threshold (the
two vCPUs' lookups contend: two threads of the step's takes ran 1.6x
one thread's time).  On the live stack the bulk split still pays: with
the threshold raised to 2^30, so that no bulk product splits, 4
alternating ``bulk_rc10_16m`` pairs read ``reconstruct_p50_s`` 0.319 s
against 0.276 s at 2^25 and ``ops_per_s`` 2.54 against 2.91, 4/4 pairs
each.  Lowering it to 2^24 would split the erasure encode for no gain
and hold two shards' scratch at once: its traced peak would pass the
4.66 MB the kernel tests allow.  So the threshold stays at 2^25.

:func:`_matmul_reference`, the seed broadcast algorithm, is not reachable
at run time; it stays as the oracle the kernel tests compare against.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable, Iterator
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

#: Environment variable bounding the shard fan-out of :func:`matmul`.
WORKERS_ENV = "REPRO_GF_WORKERS"

#: Widest column tile of the log path (the XOR and packed steps cap their
#: own lower).  Wide data reaches the log path only in products of fewer
#: than ``_PACKED_MIN_ROWS`` rows, whose steps are one row of offset-view
#: takes: on the bulk newcomer's 4 x 10 x 270 601 single-thread CPU read
#: 53.6, 39.0, 34.2, 30.0 and 28.8 ms at 2^11, 2^12, 2^13, 2^14 and 2^16
#: columns, and the erasure newcomer's 1 x 32 x 16 384 4.8 to 2.6 ms.
DEFAULT_COL_BLOCK = 1 << 16

#: Element operations (m x k x n) per shard below which handing a shard to
#: another thread costs more than it saves.  On a 2-vCPU VM two workers
#: lose up to ~10^6 ops (a repair, a small file: x0.6-0.9); 2^25 puts the
#: first split at 2^26 ops, past the erasure encode (2^25) and decode
#: (2^24).  The measurements behind it are in the Fan-out section.
_MIN_SHARD_OPS = 1 << 25

#: Data columns and coefficient rows from which :func:`matmul` takes the
#: packed step, and the rows from which the XOR path beats it again (the
#: crossover tables in the module docstring).
_PACKED_MIN_COLUMNS = 1 << 12
_PACKED_MIN_ROWS = 6
_PACKED_MAX_ROWS = 320

#: Bytes per row of a packed split table: 16 GF(2^16) products, the widest
#: item ``np.take`` copies with a fixed-size loop.
_PACKED_BYTES = 32

#: Widest column tile of the packed step.  Its tables are rebuilt per tile,
#: about 256 / tile of the work: 4096 columns measured 1.2-1.4x the CPU of
#: 8192 on the erasure shapes, 16 384 within 6 % of it.
_PACKED_TILE = 1 << 13

#: Coefficient columns whose tables a packed shard holds at once: 512 KiB
#: on the 64-row erasure encode.
_PACKED_BATCH = 8

#: Coefficient rows and data columns from which :func:`matmul` takes the
#: XOR path (the crossover tables in the module docstring).
_XOR_MIN_ROWS = 96
_XOR_MIN_COLUMNS = 64

#: Coefficient bits per lookup table: 2^6 rows each.  5 and 6 measured
#: alike on the paper's shapes; 7 and 8 build too much table for m <= 640.
_XOR_GROUP = 6

#: Widest column tile of the XOR path: a paper-encode shard's (640 x 411)
#: gather and accumulator plus its table batch stay inside a 4 MiB L2.
_XOR_TILE = 512

#: Groups whose basis rows and tables are made at once: 32 x 6 bits are
#: twelve whole GF(2^16) coefficients, and a shard's tables 1.6 MiB.
_XOR_BATCH = 32


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


def _column_shards(n: int, shards: int, block: int) -> list[tuple[int, int, int]]:
    """``(lo, hi, tile)`` per shard, at most one per column: near-equal
    column ranges covering ``[0, n)``, each cut into the fewest near-equal
    tiles no wider than ``block``, ``tile`` the widest of them."""
    shards = min(shards, n)
    ranges = []
    for s in range(shards):
        lo, hi = n * s // shards, n * (s + 1) // shards
        spans = -(-(hi - lo) // block)
        ranges.append((lo, hi, -(-(hi - lo) // spans)))
    return ranges


def _spans(lo: int, hi: int, tile: int) -> Iterator[tuple[int, int]]:
    """The tiles ``(c0, c1)`` of one shard's range, as :func:`_column_shards`
    cut them."""
    spans = -(-(hi - lo) // tile)
    for span in range(spans):
        yield lo + (hi - lo) * span // spans, lo + (hi - lo) * (span + 1) // spans


def _log_columns(
    field: GaloisField,
    out: np.ndarray,
    log_a: np.ndarray,
    b: np.ndarray,
    lo: int,
    hi: int,
    tile: int,
    logs: np.ndarray,
    idx: np.ndarray,
    prod: np.ndarray,
) -> None:
    """``out[:, lo:hi] = a @ b[:, lo:hi]`` from both operands' logs.

    ``log_a`` holds the coefficient logs (shared, read only); ``logs``
    holds the tile's data logs, one int32 row per data row when later
    row chunks reuse them and a single row otherwise, and ``idx``/
    ``prod`` are one chunk's scratch for :meth:`GaloisField._xor_outer`,
    all flat and sized by the caller.  Like :func:`_xor_columns` this
    runs on pool threads and calls no public kernel.  ``b`` was
    range-checked by :func:`_validate`, so ``mode="clip"`` on its logs
    hides nothing.
    """
    m, k = log_a.shape
    step = len(idx) // tile
    kept = len(logs) // tile
    for c0, c1 in _spans(lo, hi, tile):
        width = c1 - c0
        tile_logs = logs[: kept * width].reshape(kept, width)
        for start in range(0, m, step):
            block = out[start : start + step, c0:c1]
            rows = len(block)
            step_idx = idx[: rows * width].reshape(rows, width)
            step_prod = prod[: rows * width].reshape(rows, width)
            for j in range(k):
                row = tile_logs[j % kept]
                if start == 0:
                    # Row by row: np.take first widens its indices to
                    # intp, and that temporary must not be the size of
                    # the tile.
                    np.take(field._log0, b[j, c0:c1], out=row, mode="clip")
                field._xor_outer(block, log_a[start : start + step, j], row, step_idx, step_prod)


def _log_product(
    field: GaloisField, a: np.ndarray, b: np.ndarray, out: np.ndarray,
    shards: int, col_block: int,
) -> None:
    """The log path: ``out = a @ b`` by column shards of :func:`_log_columns`."""
    m, k = a.shape
    log_a = np.take(field._log0, a)
    arg_sets = []
    for lo, hi, tile in _column_shards(b.shape[1], shards, col_block):
        rows = min(m, max(1, _CHUNK // tile))
        scratch = [
            np.empty((k if m > rows else 1) * tile, dtype=np.int32),
            np.empty(rows * tile, dtype=np.int32),
            np.empty(rows * tile, dtype=field.dtype),
        ]
        arg_sets.append((field, out, log_a, b, lo, hi, tile, *scratch))
    _run(_log_columns, arg_sets)


def _packed_basis(field: GaloisField, a: np.ndarray) -> np.ndarray:
    """The products ``a[i, j] x^t`` the packed step's tables double from.

    Entry ``[u, j, G, p, r]`` of the (8, k, groups, planes, rows) result
    is ``a[G rows + r, j] x^(8 p + u)``, ``rows`` being the output rows a
    ``_PACKED_BYTES`` table row holds; rows past ``m`` and powers past
    ``q - 1`` are zero.  ``x^t`` is the bit ``t`` for ``t < q``.
    """
    m, k = a.shape
    rows = _PACKED_BYTES // field.dtype.itemsize
    groups = -(-m // rows)
    planes = -(-field.q // 8)
    powers = field.zeros(8 * planes)
    powers[: field.q] = 1 << np.arange(field.q)
    coeffs = field.zeros((k, groups * rows))
    coeffs[:, :m] = a.T
    return field.multiply(
        coeffs.reshape(1, k, groups, 1, rows), powers.reshape(planes, 8).T[:, None, None, :, None]
    )


def _packed_columns(
    field: GaloisField,
    out: np.ndarray,
    basis: np.ndarray,
    b: np.ndarray,
    lo: int,
    hi: int,
    tile: int,
    doubled: np.ndarray,
    tables: np.ndarray,
    idx: np.ndarray,
    gather: np.ndarray,
    acc: np.ndarray,
) -> None:
    """``out[:, lo:hi] = a @ b[:, lo:hi]`` by byte-split packed tables.

    ``basis`` is :func:`_packed_basis` of ``a`` (shared, read only).  Per
    tile and per batch of data rows, the batch's tables are doubled from
    it into ``doubled`` (256, batch, groups, planes, rows): row ``v`` of
    plane ``p`` packs a group's products ``a[i, j] (v << 8 p)``, and row 0
    stays zero.  With the value axis first each doubling step is one XOR
    over contiguous rows (numpy still buffers its broadcast operand, 8192
    items of the field dtype).  Per data row ``j``: its tables are copied
    into ``tables``, contiguous per group and plane; its bytes go once
    into ``idx``, one intp row per plane; and per group and plane one
    ``np.take`` copies a table row per column into ``gather`` and one XOR
    adds it to the group's slice of ``acc``, a (groups, tile, words)
    uint64 accumulator transposed into ``out`` once per tile.  All five
    are this shard's own scratch, sized by the caller: like
    :func:`_xor_columns` this runs on pool threads, calls no public
    kernel and allocates no array.
    """
    m = out.shape[0]
    k = b.shape[0]
    rows = _PACKED_BYTES // field.dtype.itemsize
    planes, batch = len(idx), doubled.shape[1]
    copies = tables.view(field.dtype)
    for c0, c1 in _spans(lo, hi, tile):
        width = c1 - c0
        total, shot = acc[:, :width], gather[:width]
        total.fill(0)
        for j0 in range(0, k, batch):
            grow = doubled[:, : min(batch, k - j0)]
            for u in range(8):
                half = 1 << u
                np.bitwise_xor(grow[:half], basis[u, j0 : j0 + batch], out=grow[half : 2 * half])
            for j in range(grow.shape[1]):
                np.copyto(copies, grow[:, j].transpose(1, 2, 0, 3))
                data = b[j0 + j, c0:c1]
                if planes == 1:
                    np.copyto(idx[0, :width], data)
                else:
                    np.bitwise_and(data, 0xFF, out=idx[0, :width])
                    np.right_shift(data, 8, out=idx[1, :width])
                for group, group_tables in zip(total, tables):
                    for table, index in zip(group_tables, idx):
                        # Indices are bytes, < 256 by construction, so clip
                        # checks nothing -- and spares numpy's copy of ``out``.
                        np.take(table, index[:width], axis=0, out=shot, mode="clip")
                        np.bitwise_xor(group, shot, out=group)
        for start, group in zip(range(0, m, rows), total):
            out[start : start + rows, c0:c1] = group.view(field.dtype)[:, : m - start].T


def _packed_product(
    field: GaloisField, a: np.ndarray, b: np.ndarray, out: np.ndarray,
    shards: int, col_block: int,
) -> None:
    """The packed step: ``out = a @ b`` by column shards of :func:`_packed_columns`."""
    basis = _packed_basis(field, a)
    _, k, groups, planes, rows = basis.shape
    words = _PACKED_BYTES // 8
    batch = min(_PACKED_BATCH, k)
    arg_sets = []
    for lo, hi, tile in _column_shards(b.shape[1], shards, min(col_block, _PACKED_TILE)):
        scratch = [
            field.zeros((256, batch, groups, planes, rows)),
            np.empty((groups, planes, 256, words), dtype=np.uint64),
            np.empty((planes, tile), dtype=np.intp),
            np.empty((tile, words), dtype=np.uint64),
            np.empty((groups, tile, words), dtype=np.uint64),
        ]
        arg_sets.append((field, out, basis, b, lo, hi, tile, *scratch))
    _run(_packed_columns, arg_sets)


def _bit_patterns(field: GaloisField, a: np.ndarray) -> np.ndarray:
    """Every coefficient row's bits, ``_XOR_GROUP`` to a byte.

    Bit ``j q + t`` of row ``i`` is bit ``t`` of ``a[i, j]``; entry
    ``[G, i]`` of the (groups, m) uint8 result packs bits
    ``[G g, (G + 1) g)`` of row ``i``, little end first, and is zero past
    the last bit.  Temporaries are one (groups, m) array of the field
    dtype at a time.
    """
    q = field.q
    nbits = a.shape[1] * q
    a_t = np.ascontiguousarray(a.T)
    patterns = np.zeros((-(-nbits // _XOR_GROUP), a.shape[0]), dtype=np.uint8)
    for u in range(_XOR_GROUP):
        positions = np.arange(u, nbits, _XOR_GROUP)
        bits = np.take(a_t, positions // q, axis=0)
        np.right_shift(bits, (positions % q).astype(field.dtype)[:, None], out=bits)
        np.bitwise_and(bits, 1, out=bits)
        np.left_shift(bits, u, out=bits)
        head = patterns[: len(positions)]
        np.bitwise_or(head, bits, out=head, casting="unsafe")
    return patterns


def _times_x(field: GaloisField, src: np.ndarray, dst: np.ndarray, top: np.ndarray) -> None:
    """``dst = x * src`` elementwise: shift left, reduce where the top bit
    fell off.  ``top`` is caller-owned scratch of ``src``'s shape."""
    np.right_shift(src, field.q - 1, out=top)
    np.multiply(top, field.polynomial & (field.order - 1), out=top)
    np.left_shift(src, 1, out=dst)
    if field.q not in (8, 16):  # the dtype does not drop bit q
        np.bitwise_and(dst, field.order - 1, out=dst)
    np.bitwise_xor(dst, top, out=dst)


def _xor_columns(
    field: GaloisField,
    out: np.ndarray,
    patterns: np.ndarray,
    b: np.ndarray,
    lo: int,
    hi: int,
    tile: int,
    tables: np.ndarray,
    basis: np.ndarray,
    top: np.ndarray,
    idx: np.ndarray,
    gather: np.ndarray,
    acc: np.ndarray,
) -> None:
    """``out[:, lo:hi] = a @ b[:, lo:hi]`` by table-driven row XORs.

    ``patterns`` is :func:`_bit_patterns` of ``a``; the columns run in
    near-equal tiles, ``tile`` the widest.  Per tile and per batch of
    ``len(idx)`` groups: the batch's basis rows ``x^t b_j`` are generated
    into ``basis`` (``top``: the carry), each group's 2^g XOR combinations
    are built by doubling into ``tables``, and every output row XORs in
    the one table row its pattern names -- ``np.take`` into ``gather``,
    then into the contiguous ``acc`` (three times cheaper than XOR into a
    strided view of ``out``).  All six are this shard's own flat scratch,
    sized by the caller: like :func:`_log_columns` this runs on pool
    threads and calls no public kernel, and it allocates no array.
    """
    q = field.q
    m = out.shape[0]
    g = _XOR_GROUP
    nbits = b.shape[0] * q
    groups, batch = len(patterns), len(idx)
    basis_rows = len(basis) // tile
    for c0, c1 in _spans(lo, hi, tile):
        width = c1 - c0
        total = acc[: m * width].reshape(m, width)
        total.fill(0)
        shot = gather[: m * width].reshape(m, width)
        rows = basis[: basis_rows * width].reshape(basis_rows, width)
        table = tables[: batch * (width << g)].reshape(batch, 1 << g, width)
        table[:, 0] = 0  # the empty combination; doubling never writes it
        for g0 in range(0, groups, batch):
            count = min(batch, groups - g0)
            bit_lo, bit_hi = g0 * g, min(nbits, (g0 + count) * g)
            j_lo, j_hi = bit_lo // q, -(-bit_hi // q)
            powers = rows[: (j_hi - j_lo) * q].reshape(j_hi - j_lo, q, width)
            carry = top[: (j_hi - j_lo) * width].reshape(j_hi - j_lo, width)
            np.copyto(powers[:, 0], b[j_lo:j_hi, c0:c1])
            for t in range(1, q):
                _times_x(field, powers[:, t - 1], powers[:, t], carry)
            offset = bit_lo - j_lo * q
            bits = rows[offset : offset + count * g]
            bits[bit_hi - bit_lo :] = 0  # past the last coefficient bit
            bits = bits.reshape(count, g, width)
            for u in range(g):
                half = 1 << u
                np.bitwise_xor(
                    table[:count, :half], bits[:, u : u + 1], out=table[:count, half : 2 * half]
                )
            np.copyto(idx[:count], patterns[g0 : g0 + count])
            for group in range(count):
                # Patterns are < 2^g by construction, so clip checks
                # nothing -- and spares numpy's copy of ``out``.
                np.take(table[group], idx[group], axis=0, out=shot, mode="clip")
                np.bitwise_xor(total, shot, out=total)
        out[:, c0:c1] = total


def _xor_product(
    field: GaloisField, a: np.ndarray, b: np.ndarray, out: np.ndarray,
    shards: int, col_block: int,
) -> None:
    """The XOR path: ``out = a @ b`` by column shards of :func:`_xor_columns`."""
    m = a.shape[0]
    n = b.shape[1]
    q = field.q
    patterns = _bit_patterns(field, a)
    batch = min(_XOR_BATCH, len(patterns))
    # Basis rows a batch needs: whole b_j, its first bit anywhere in one.
    powers = -(-(batch * _XOR_GROUP + q - 1) // q) * q
    arg_sets = []
    for lo, hi, tile in _column_shards(n, shards, min(col_block, _XOR_TILE)):
        scratch = [
            np.empty(batch * (tile << _XOR_GROUP), dtype=field.dtype),
            np.empty(powers * tile, dtype=field.dtype),
            np.empty(powers // q * tile, dtype=field.dtype),
            np.empty((batch, m), dtype=np.intp),
            np.empty(m * tile, dtype=field.dtype),
            np.empty(m * tile, dtype=field.dtype),
        ]
        arg_sets.append((field, out, patterns, b, lo, hi, tile, *scratch))
    _run(_xor_columns, arg_sets)


def _run(fn: Callable[..., None], arg_sets: list[tuple[Any, ...]]) -> None:
    """One shard inline on the caller; more on the pool."""
    if len(arg_sets) == 1:
        fn(*arg_sets[0])
    else:
        _POOL.run(fn, arg_sets)


def matmul(
    field: GaloisField,
    a,
    b,
    *,
    workers: int | None = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> np.ndarray:
    """Cache-blocked matrix product over the field.

    ``a`` is the (m, k) coefficient matrix, ``b`` the (k, n) data matrix.
    Exact for zero operands and for every shape edge case: empty
    matrices, single rows, tiles and chunks that do not divide the
    dimensions.  ``workers`` bounds the fan-out of large products
    (default :func:`default_workers`); ``col_block`` bounds the column
    tile; the result is byte-identical for every value of either.
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
    shards = max(1, min(workers, m * k * n // _MIN_SHARD_OPS))
    if n >= _PACKED_MIN_COLUMNS and _PACKED_MIN_ROWS <= m < _PACKED_MAX_ROWS:
        _packed_product(field, a, b, out, shards, col_block)
    elif m >= _XOR_MIN_ROWS and n >= _XOR_MIN_COLUMNS:
        _xor_product(field, a, b, out, shards, col_block)
    else:
        _log_product(field, a, b, out, shards, col_block)
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
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
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
