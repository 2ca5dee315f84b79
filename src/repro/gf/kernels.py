"""Batched GF(2^q) matmul kernel: a log-table path and a row-XOR path.

The paper's section 5.2 bottleneck-bandwidth analysis asks whether CPU or
network limits a deployment; the answer hinges on how fast the GF(2^16)
linear combinations run.  This module is the hot path: every encode,
repair, and reconstruct in :mod:`repro.codes` and the Coordinator funnels
through :func:`matmul` (via :func:`repro.gf.linalg.gf_matmul`).  This
docstring is the one description of the kernel's design; the other
documents point here.

:func:`matmul` multiplies the (m, k) coefficient matrix ``a`` by the
(k, n) data matrix ``b`` on one of two paths, chosen by its shape.
Both compute the same field products, so their bytes are equal.

**Selection.**  Products of at least ``_XOR_MIN_ROWS`` (96) rows and
``_XOR_MIN_COLUMNS`` (64) columns take the XOR path, all others the log
path.  Single-thread CPU time of the XOR path over the log path's,
GF(2^16), on the 2-vCPU box the ledger runs on, by rows (erasure and
bulk columns measured against the wide-tile log step below, best of
7 and of 3 interleaved runs)::

    rows m   k=319, n=1644   k=32, n=16384   k=31, n=270600
             (paper)         (erasure)       (bulk)
    32       1.64            2.55            2.75
    64       0.97            1.63            1.65
    96       0.67            1.23            1.25
    128      0.52            1.03            1.03
    319      0.31            -               -
    640      0.25            -               -

The paper's encode (640 rows) and decode (319) take the XOR path.  No
erasure-, bulk- or small-file-sized product has more than 64 rows, so
those and every repair keep the log path.  Elimination in
:mod:`repro.gf.linalg` applies its block updates through :func:`matmul`
on stacks of 192 rows or more, and they take the path :func:`matmul`
picks: the XOR path on the paper's 320 x 319 reconstruct stack.
Smaller stacks eliminate without calling it.  The row threshold is 96
because the XOR path already wins there at the paper's width with two
workers as well as one (0.64 of the log path's wall time at 96 rows,
k=319, 2 workers).  At erasure and bulk widths the log path's wide tiles
hold out to 128 rows, but no product of those widths has 96 rows.  The
96-127-row band is where figure 4's small grids encode: RC(8,8,10,3)
stacks a 96 x 42 product, which at 128 rows took the log path and cost
as much wall time as RC(8,8,15,7)'s 2.5x larger XOR product.

The XOR path's cost has a part per numpy call, ``(2 + 2.7) k q / g``
calls per tile, that narrow data does not amortise, and it copies table
rows ``n`` elements long.  By columns::

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
unit operands with no masking and no special case.  A shard's tiles run
in one of two regimes, chosen by its tile width alone:

1. *Wide tiles* (at least ``_LOG_WIDE_COLUMNS``, 4096 columns: erasure-
   and bulk-sized data).  Per tile and data row ``j`` the row's logs are
   taken once into one intp row of ``tile`` elements (a cast copy, then
   an in-place take from ``GaloisField._log0_intp``), and every output
   row ``i`` reuses it: one ``np.take(exp0[log a_ij:], row, out=prod,
   mode="clip")`` from an offset view of the exp table, then one XOR
   into the output row.  No add, no index widening, no k x tile log
   tile; scratch is one log row and one product row per shard.

2. *Narrow tiles* (the paper newcomer's 10 x 40 x 1644, small files,
   :func:`matvec`).  Per tile the data's logs are taken once into an
   int32 (k, width) scratch tile; output rows are visited in chunks
   sized so ``rows x width`` is about ``_CHUNK`` elements, and each inner
   column ``j`` costs one ``GaloisField._xor_outer`` step, add -> take
   -> xor, into preallocated buffers.  Fewer, larger numpy calls is what
   narrow data needs; each ``np.take`` widens its int32 index chunk to a
   transient intp copy (at most ``_CHUNK`` x 8 bytes).

``np.take(..., out=, mode="clip")`` is several times cheaper than a
fancy-index gather, and bounds-proven because its index is a log or a
sum of two.  Single-thread CPU time of the wide step over the narrow
step, GF(2^16), best of 15 interleaved runs, by tile width::

    (m, k)      n=512   1024   2048   4096        6144   8192        16384
    (64, 32)    2.68    1.65   1.08   0.99-1.05   0.89   0.84-0.87   0.74
    (32, 32)    -       1.66   1.08   1.03        0.90   0.84        0.88
    (10, 40)    -       -      1.15*  0.99        -      0.88        -
    (8, 8)      -       1.32   1.03   1.02        0.92   0.91        0.81

(* at n = 1644.)  Below 4096 columns the wide step's ``2 m k`` numpy
calls per tile cost more than the narrow step's add saves; the
wall-clock claims' 128 KiB files (~2048 columns) stay narrow.

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
ranges on both paths, each shard cutting its range into the fewest
near-equal tiles (:func:`_column_shards`).  The calling thread
allocates all scratch -- the shared coefficient logs or bit patterns
and each shard's own buffers -- runs the last shard itself and hands
the rest to one process-wide pool whose threads are created once; numpy
releases the GIL inside each call, and the only barrier is the end of
the product.  Shard bodies allocate no array on the XOR path and on
wide log tiles: every ``np.take`` reads intp indices and writes into the
shard's own buffer, and only numpy's fixed per-call iterator buffers
remain.  Below ``2 * _MIN_SHARD_OPS`` (every repair, erasure- and
small-file-sized products) the product runs inline and the pool is
never touched.  Shards never overlap, so results are byte-identical for
any worker count and any ``col_block``.

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

#: Widest column tile of the log path: a wide shard's intp log row is
#: 512 KiB and each output row it sweeps 128 KiB.  On the bulk encode and
#: decode with 2 workers, 2^16 took 0.85-0.87 of 2^15's median wall time
#: and 2^14 1.13-1.20 (fewer numpy calls contend for the GIL); one worker
#: measured within 5 % at all three.
DEFAULT_COL_BLOCK = 1 << 16

#: Element operations (m x k x n) per shard below which handing a shard to
#: another thread costs more than it saves.  On a 2-vCPU VM two workers
#: lose up to ~10^6 ops (a repair, a small file: x0.6-0.9).  On the log
#: path they still take 1.1x the wall time of one at 1.7-3.4 x 10^7 (the
#: erasure decode and encode: halved tiles) and 0.6-0.7x from 6.7 x 10^7
#: (the bulk encode and decode; the paper's XOR-path products win
#: x1.1-1.6 there too); 2^25 puts the first split at 2^26 ops.
_MIN_SHARD_OPS = 1 << 25

#: Tile width from which the log path runs its wide step, one output row
#: per offset-view take (the crossover table in the module docstring).
_LOG_WIDE_COLUMNS = 1 << 12

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

    ``log_a`` holds the coefficient logs (shared, read only); ``logs``,
    ``idx`` and ``prod`` are this shard's own flat scratch, sized by the
    caller for its regime.  Wide tiles (``tile >= _LOG_WIDE_COLUMNS``):
    ``logs`` is one intp row, taken once per data row and tile and reused
    by every output row, each (row, coefficient) step one offset-view
    take and one XOR; ``idx`` is unused.  Narrow tiles: ``logs`` is the
    tile's (k, width) int32 logs and ``idx``/``prod`` one chunk's scratch
    for :meth:`GaloisField._xor_outer`.  Like :func:`_xor_columns` this
    runs on pool threads and calls no public kernel; on wide tiles it
    allocates no array.  ``b`` was range-checked by :func:`_validate`, so
    ``mode="clip"`` on its logs hides nothing.
    """
    m, k = log_a.shape
    exp0 = field._exp0
    if tile >= _LOG_WIDE_COLUMNS:
        for c0, c1 in _spans(lo, hi, tile):
            row, shot = logs[: c1 - c0], prod[: c1 - c0]
            accs = [out[i, c0:c1] for i in range(m)]
            for j in range(k):
                # Elements cast into the intp row, then their logs taken
                # in place: np.take would copy a field-dtype index to intp.
                np.copyto(row, b[j, c0:c1])
                np.take(field._log0_intp, row, out=row, mode="clip")
                for acc, log in zip(accs, log_a[:, j].tolist()):
                    np.take(exp0[log:], row, out=shot, mode="clip")
                    np.bitwise_xor(acc, shot, out=acc)
        return
    step = len(idx) // tile
    for c0, c1 in _spans(lo, hi, tile):
        width = c1 - c0
        tile_logs = logs[: k * width].reshape(k, width)
        # Row by row: np.take first widens its indices to intp, and that
        # temporary must not be the size of the tile.
        for j in range(k):
            np.take(field._log0, b[j, c0:c1], out=tile_logs[j], mode="clip")
        for start in range(0, m, step):
            block = out[start : start + step, c0:c1]
            rows = len(block)
            step_idx = idx[: rows * width].reshape(rows, width)
            step_prod = prod[: rows * width].reshape(rows, width)
            for j in range(k):
                field._xor_outer(
                    block, log_a[start : start + step, j], tile_logs[j], step_idx, step_prod
                )


def _log_product(
    field: GaloisField, a: np.ndarray, b: np.ndarray, out: np.ndarray,
    shards: int, col_block: int,
) -> None:
    """The log path: ``out = a @ b`` by column shards of :func:`_log_columns`."""
    m, k = a.shape
    log_a = np.take(field._log0, a)
    arg_sets = []
    for lo, hi, tile in _column_shards(b.shape[1], shards, col_block):
        if tile >= _LOG_WIDE_COLUMNS:
            scratch = [
                np.empty(tile, dtype=np.intp),
                np.empty(0, dtype=np.int32),
                np.empty(tile, dtype=field.dtype),
            ]
        else:
            rows = min(m, max(1, _CHUNK // tile))
            scratch = [
                np.empty(k * tile, dtype=np.int32),
                np.empty(rows * tile, dtype=np.int32),
                np.empty(rows * tile, dtype=field.dtype),
            ]
        arg_sets.append((field, out, log_a, b, lo, hi, tile, *scratch))
    _run(_log_columns, arg_sets)


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
    if m >= _XOR_MIN_ROWS and n >= _XOR_MIN_COLUMNS:
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
