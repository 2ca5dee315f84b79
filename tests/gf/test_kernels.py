"""The batched GF kernel: exactness, edge cases, fan-out.

Three promises are pinned here:

1. **Exactness** -- the chunked take-based kernel agrees with a
   ``multiply_direct``-based first-principles reference (and with the
   seed broadcast algorithm, kept as ``kernels._matmul_reference``) on
   every shape: empty matrices, single rows, and row / column counts one
   either side of the kernel's own chunk and tile sizes.
2. **Zero safety** -- ``0 * x == 0`` elementwise through matmul and
   matvec for all three fields: the fused zero-extended tables must make
   the ``log[0]`` sentinel unreachable on every kernel path.
3. **Discipline** -- block sizes below 1 raise instead of silently
   returning zeros, wrong-dtype *and* same-dtype out-of-range operands
   raise instead of wrapping or clipping, and the sharded product is
   byte-identical for every worker count, on concurrent callers and in a
   forked child, without spawning threads after its first use.

All three paths of :func:`kernels.matmul` are held to all three: the
packed split-table step on data of ``kernels._PACKED_MIN_COLUMNS`` columns
and ``_PACKED_MIN_ROWS`` to ``_PACKED_MAX_ROWS`` rows, the table-driven
XOR path from ``_XOR_MIN_ROWS`` coefficient rows and ``_XOR_MIN_COLUMNS``
data columns up, the log path below either (:class:`TestPathSelection`
pins which runs where, and :class:`TestTallProductMemory` that the XOR
path's memory stays within the log path's, and that the XOR and packed
shard bodies allocate no array).
"""

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from repro.gf import kernels, linalg
from repro.gf.field import GF

FIELDS = [GF(4), GF(8), GF(16)]
FIELD_IDS = [f"GF(2^{f.q})" for f in FIELDS]


def direct_matmul(field, a, b):
    """First-principles reference: multiply_direct + XOR accumulation."""
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    for i in range(m):
        for j in range(k):
            out[i] ^= field.multiply_direct(a[i, j], b[j])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestExactness:
    @pytest.mark.parametrize(
        "shape",
        [
            (0, 4, 6),   # no output rows
            (4, 0, 6),   # empty inner dimension
            (4, 6, 0),   # no output columns
            (1, 1, 1),   # single everything
            (1, 5, 300), # single row: the add-free offset-view step
            (3, 4, 5),
            (65, 3, 7),  # tall and narrow: many rows per step
            (7, 9, 1000),
        ],
    )
    def test_blocked_matches_direct_reference(self, field, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 100 + n + field.q)
        a = field.random((m, k), rng)
        b = field.random((k, n), rng)
        expected = direct_matmul(field, a, b)
        assert np.array_equal(kernels.matmul(field, a, b), expected)
        assert np.array_equal(kernels._matmul_reference(field, a, b), expected)

    def test_odd_block_sizes_agree(self, field):
        """``col_block`` bounds the column tile on both paths."""
        rng = np.random.default_rng(field.q)
        b = field.random((7, 530), rng)
        for m in (13, kernels._XOR_MIN_ROWS):
            a = field.random((m, 7), rng)
            expected = kernels._matmul_reference(field, a, b)
            for col_block in (1, 3, 256, 529, 530, 531, 1 << 20):
                got = kernels.matmul(field, a, b, col_block=col_block)
                assert np.array_equal(got, expected), (m, col_block)

    @pytest.mark.parametrize("rows_per_step", [1, 2, 5, 9])
    def test_chunk_and_tile_boundaries(self, field, rows_per_step):
        """Row and column counts one either side of (and at multiples of)
        the kernel's own step sizes, read from the module.  A tile of
        ``_CHUNK // r`` columns runs ``r`` output rows per narrow step
        where it is narrower than ``_PACKED_MIN_COLUMNS`` (r = 9); from
        that width products of ``_PACKED_MIN_ROWS`` rows or more take the
        packed step and fewer stay on the log path.  Widths one either
        side of that constant, and tiles of unequal width (a ragged last
        tile), meet every regime; a zero coefficient row and a zero data
        column are planted in every product."""
        tile = kernels._CHUNK // rows_per_step
        wide = kernels._PACKED_MIN_COLUMNS
        assert tile <= kernels.DEFAULT_COL_BLOCK
        cases = [(n, tile) for n in (tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1)]
        cases += [(n, kernels.DEFAULT_COL_BLOCK) for n in (wide - 1, wide, wide + 1)]
        cases += [(2 * wide - 1, wide), (2 * wide + 1, wide + 1), (3 * wide - 2, wide)]
        rng = np.random.default_rng(field.q + rows_per_step)
        for n, col_block in cases:
            # The last m takes the XOR path on narrow data, whose own tile
            # is narrower, and the packed step on wide data.
            for m in {max(rows_per_step - 1, 1), rows_per_step, rows_per_step + 1,
                      2 * rows_per_step, 2 * rows_per_step + 1, kernels._XOR_MIN_ROWS}:
                a = field.random((m, 2), rng)
                b = field.random((2, n), rng)
                a[m // 2] = 0
                b[:, n // 2] = 0
                got = kernels.matmul(field, a, b, col_block=col_block)
                assert np.array_equal(got, kernels._matmul_reference(field, a, b)), (m, n)
                assert np.array_equal(got, kernels.matmul(field, a, b)), (m, n)
                assert not got[m // 2].any() and not got[:, n // 2].any(), (m, n)

    def test_zero_and_unit_coefficients(self, field):
        """Zero and unit coefficients are exact through the sentinel."""
        rng = np.random.default_rng(field.q + 7)
        b = field.random((5, 400), rng)
        zeros = field.zeros((3, 5))
        assert not kernels.matmul(field, zeros, b).any()
        identity = field.eye(5)
        assert np.array_equal(kernels.matmul(field, identity, b), b)

    def test_matvec_matches_matmul_column(self, field):
        rng = np.random.default_rng(field.q + 11)
        a = field.random((6, 9), rng)
        x = field.random((9,), rng)
        expected = kernels.matmul(field, a, x[:, None])[:, 0]
        assert np.array_equal(kernels.matvec(field, a, x), expected)
        assert np.array_equal(linalg.gf_matvec(field, a, x), expected)


ROWS, COLUMNS = kernels._XOR_MIN_ROWS, kernels._XOR_MIN_COLUMNS


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestTallProducts:
    """The XOR path: exact on every edge its tables and tiles have."""

    @pytest.mark.parametrize(
        "shape",
        [
            (ROWS - 1, 5, COLUMNS + 1),  # the log path's last row count
            (ROWS, 5, COLUMNS + 1),      # the XOR path's first
            (ROWS + 1, 5, COLUMNS + 1),
            (ROWS, 5, COLUMNS - 1),      # the log path's last column count
            (ROWS, 5, COLUMNS),          # the XOR path's first
            (ROWS, 3, COLUMNS),          # k q = 12, 24, 48: whole groups
            (ROWS + 7, 1, COLUMNS + 9),  # one coefficient: one batch, padded
            (ROWS, 2, 2 * kernels._XOR_TILE + 3),  # tiles not dividing n
        ],
    )
    def test_matches_direct_reference(self, field, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 100 + n + field.q)
        a = field.random((m, k), rng)
        b = field.random((k, n), rng)
        expected = direct_matmul(field, a, b)
        assert np.array_equal(kernels.matmul(field, a, b), expected)
        assert np.array_equal(kernels._matmul_reference(field, a, b), expected)

    def test_many_batches_with_a_ragged_last_group(self, field):
        """k q spans several table batches and is not a multiple of the
        group width, so the last group is part padding; zero and unit
        coefficients, zero rows and zero columns are planted."""
        g, batch = kernels._XOR_GROUP, kernels._XOR_BATCH
        k = next(k for k in range(2 * batch * g // field.q, 10**3) if (k * field.q) % g)
        m = max(ROWS, k + 2)
        rng = np.random.default_rng(field.q)
        a = field.random((m, k), rng)
        a[:k] = field.eye(k)  # unit coefficients: output row j is data row j
        a[k] = 0
        a[k + 1] = 1
        b = field.random((k, 301), rng)
        b[:, 7] = 0
        b[3] = 0
        for col_block in (1 << 20, 64, 1):
            out = kernels.matmul(field, a, b, col_block=col_block)
            assert np.array_equal(out[:k], b)
            assert not out[k].any() and not out[:, 7].any()
            assert np.array_equal(out, kernels._matmul_reference(field, a, b)), col_block

    def test_empty_dimensions(self, field):
        for k, n in ((0, COLUMNS), (5, 0), (0, 0)):
            out = kernels.matmul(field, field.ones((ROWS, k)), field.ones((k, n)))
            assert out.shape == (ROWS, n) and not out.any()


WIDE, FEW = kernels._PACKED_MIN_COLUMNS, kernels._PACKED_MIN_ROWS


def group_rows(field):
    """Output rows one packed table row holds: 16 at q = 16, 32 below 9."""
    return kernels._PACKED_BYTES // field.dtype.itemsize


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestPackedStep:
    """The packed split-table step: exact on every edge its row groups,
    byte planes, table batches, tiles and shards have."""

    def test_rows_either_side_of_each_group(self, field, monkeypatch):
        """``m`` one either side of every multiple of 16 and of the
        field's group rows up to three groups, and below the row floor
        (lowered so the step runs there); ``k`` spans two table batches,
        the last one short; tiles are ragged and split over three shards.
        Zero coefficient rows, a zero data row and zero data columns are
        planted."""
        calls = []
        real = kernels._packed_columns

        def counting(*args):
            calls.append(args[4:7])
            real(*args)

        monkeypatch.setattr(kernels, "_packed_columns", counting)
        monkeypatch.setattr(kernels, "_PACKED_MIN_ROWS", 1)
        monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1)
        rows = group_rows(field)
        ms = {1, 2, FEW - 1, FEW}
        ms |= {r + d for g in (1, 2, 3) for r in (16 * g, rows * g) for d in (-1, 0, 1)}
        k = kernels._PACKED_BATCH + 3
        n = WIDE + 5
        rng = np.random.default_rng(field.q)
        b = field.random((k, n), rng)
        b[1] = 0
        b[:, 0] = 0
        b[:, n // 2] = 0
        for m in sorted(ms):
            a = field.random((m, k), rng)
            a[m // 2] = 0
            a[-1] = 0
            a[-1, 1] = 1  # only the zero data row left
            expected = kernels._matmul_reference(field, a, b)
            for workers, col_block in ((1, kernels.DEFAULT_COL_BLOCK), (3, 1000)):
                calls.clear()
                got = kernels.matmul(field, a, b, workers=workers, col_block=col_block)
                assert got.tobytes() == expected.tobytes(), (m, workers)
                assert len(calls) == workers and all(t <= col_block for _, _, t in calls)
            assert not got[m // 2].any() and not got[-1].any() and not got[:, 0].any()

    def test_matches_direct_reference(self, field):
        """Against the first-principles oracle: one group, a ragged last
        group and a ragged table batch, at the width and row floors."""
        rng = np.random.default_rng(field.q + 1)
        for m, k in ((FEW, 1), (group_rows(field) + 3, kernels._PACKED_BATCH + 1)):
            a = field.random((m, k), rng)
            b = field.random((k, WIDE), rng)
            a[0, 0] = 1
            assert np.array_equal(kernels.matmul(field, a, b), direct_matmul(field, a, b)), m

    def test_every_byte_of_every_element(self, field, monkeypatch):
        """Each data element's bytes index their own table planes: data
        holding every field element, times coefficients that include
        zero, one and the largest element, equals the elementwise
        product."""
        ran = []
        real = kernels._packed_columns
        monkeypatch.setattr(
            kernels, "_packed_columns", lambda *args: (ran.append(True), real(*args))
        )
        order = field.order
        b = np.resize(np.arange(order, dtype=field.dtype), (1, max(WIDE, order)))
        coefficients = [0, 1, 2, order - 1, order // 2 + 1]
        coefficients += [3 + i for i in range(FEW - len(coefficients))]
        a = np.array(coefficients, dtype=field.dtype)[:, None]
        got = kernels.matmul(field, a, b)
        assert ran and np.array_equal(got, field.multiply_direct(a, b))


class TestPathSelection:
    """The shape alone picks the path; ``workers`` and ``col_block`` keep
    their meaning on all three."""

    def test_threshold_takes_the_xor_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the log path ran")

        monkeypatch.setattr(kernels, "_log_columns", refuse)
        field = GF(16)
        rng = np.random.default_rng(1)
        a = field.random((ROWS, 4), rng)
        b = field.random((4, COLUMNS), rng)
        assert np.array_equal(kernels.matmul(field, a, b), kernels._matmul_reference(field, a, b))

    @pytest.mark.parametrize(
        "m, k, n, path",
        [
            # The workloads' own products.  Paper and small file must keep
            # the path they took before the packed step existed.
            (640, 319, 1644, "xor"),     # paper encode
            (319, 319, 1644, "xor"),     # paper decode
            (288, 32, 351, "xor"),       # paper elimination block
            (10, 40, 1644, "log"),       # paper newcomer
            (10, 40, 319, "log"),
            (64, 31, 265, "log"),        # small-file encode
            (31, 31, 265, "log"),        # small-file decode
            (4, 10, 265, "log"),         # small-file newcomer
            (64, 32, 2048, "log"),       # the t(32,0) wall-clock claims
            (64, 32, 16384, "packed"),   # erasure encode
            (32, 32, 16384, "packed"),   # erasure decode
            (1, 32, 16384, "log"),       # erasure newcomer
            (64, 31, 270601, "packed"),  # bulk encode
            (31, 31, 270601, "packed"),  # bulk decode
            (4, 10, 270601, "log"),      # bulk newcomer
            (16, 8, 8192, "packed"),     # figure 4's (8, 0) normalizer
            (96, 42, 65536, "packed"),   # RC(8,8,10,3) on a multi-MiB file
            (FEW - 1, 8, WIDE, "log"),
            (FEW, 8, WIDE - 1, "log"),
            (kernels._PACKED_MAX_ROWS - 1, 8, WIDE, "packed"),
            (kernels._PACKED_MAX_ROWS, 8, WIDE, "xor"),
        ],
    )
    def test_shape_picks_the_path(self, monkeypatch, m, k, n, path):
        """Which of the three runs, from (m, k, n) alone: the same for any
        worker count and column block."""
        ran = []
        for name in ("log", "xor", "packed"):
            monkeypatch.setattr(
                kernels, f"_{name}_product", lambda *args, name=name: ran.append(name)
            )
        field = GF(16)
        a, b = field.zeros((m, k)), field.zeros((k, n))
        for workers, col_block in ((1, kernels.DEFAULT_COL_BLOCK), (3, 100)):
            kernels.matmul(field, a, b, workers=workers, col_block=col_block)
        assert ran == [path, path]

    @pytest.mark.parametrize(
        "m, n",
        [
            (ROWS - 1, COLUMNS),
            (ROWS, COLUMNS - 1),
            (ROWS - 1, WIDE - 1),   # the last narrow width
            (FEW - 1, WIDE),        # too few rows for the packed step
            (FEW - 1, WIDE + 1),
            (2, 2 * WIDE + 1),      # a ragged last tile
        ],
    )
    def test_below_threshold_takes_the_log_path(self, monkeypatch, m, n):
        """One inline shard over every column; its int32 log scratch holds
        ``k`` rows of ``tile`` where several row chunks reuse them, and
        one row where one chunk covers every output row."""
        calls = []
        real = kernels._log_columns

        def counting(*args):
            calls.append(args[4:8])
            real(*args)

        monkeypatch.setattr(kernels, "_log_columns", counting)
        col_block = min(kernels.DEFAULT_COL_BLOCK, WIDE + 1)
        for field in (GF(8), GF(16)):
            calls.clear()
            rng = np.random.default_rng(2)
            a = field.random((m, 4), rng)
            b = field.random((4, n), rng)
            a[0] = 0
            b[:, -1] = 0
            got = kernels.matmul(field, a, b, col_block=col_block)
            assert np.array_equal(got, kernels._matmul_reference(field, a, b))
            ((lo, hi, tile, logs),) = calls
            assert (lo, hi) == (0, n) and tile <= col_block
            kept = 4 if m > max(1, kernels._CHUNK // tile) else 1
            assert logs.dtype == np.int32 and len(logs) == kept * tile

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_column_shards_partition_the_output(self, monkeypatch, workers):
        """Shards own disjoint column ranges that cover every column, in
        tiles no wider than ``col_block``, on all three paths (the packed
        step's also no wider than ``_PACKED_TILE``): an overlap would
        still write the right bytes, so the ranges themselves are
        checked."""
        runs = []
        real = kernels._run
        monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1)
        monkeypatch.setattr(
            kernels, "_run", lambda fn, arg_sets: (runs.append((fn, arg_sets)), real(fn, arg_sets))
        )
        field = GF(8)
        rng = np.random.default_rng(workers)
        for m, n, col_block, body in (
            (ROWS, 1001, 100, kernels._xor_columns),
            (ROWS - 1, 1001, 100, kernels._log_columns),
            (FEW - 1, 3 * WIDE + 5, WIDE + 2, kernels._log_columns),
            (FEW, 3 * WIDE + 5, WIDE + 2, kernels._packed_columns),
            (ROWS - 1, 5 * kernels._PACKED_TILE + 3, 1 << 20, kernels._packed_columns),
        ):
            runs.clear()
            a = field.random((m, 3), rng)
            b = field.random((3, n), rng)
            got = kernels.matmul(field, a, b, workers=workers, col_block=col_block)
            assert np.array_equal(got, kernels._matmul_reference(field, a, b)), n
            ((fn, arg_sets),) = runs
            assert fn is body and len(arg_sets) == workers
            ranges = [(args[4], args[5]) for args in arg_sets]
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
            assert all(args[6] <= col_block for args in arg_sets)
            if body is kernels._packed_columns:
                assert all(args[6] <= kernels._PACKED_TILE for args in arg_sets)


def _traced_peak(fn, *args, **kwargs) -> int:
    """Bytes allocated at the peak of ``fn(*args)``, over what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTallProductMemory:
    """The XOR path's tables must not cost what its speed buys: on the
    paper's encode shape its traced peak stays within 4 MiB of the log
    path's on the same operands, and its shard bodies allocate no array
    (numpy may take a fixed iterator buffer of some KiB per call).  The
    packed step is held the same way."""

    @pytest.fixture(scope="class")
    def encode(self):
        field = GF(16)
        rng = np.random.default_rng(33)
        return field, field.random((640, 319), rng), field.random((319, 1644), rng)

    def test_peak_within_the_log_paths_plus_4_mib(self, encode, monkeypatch):
        field, a, b = encode
        xor_out = kernels.matmul(field, a, b, workers=2)
        xor_peak = _traced_peak(kernels.matmul, field, a, b, workers=2)
        monkeypatch.setattr(kernels, "_XOR_MIN_ROWS", a.shape[0] + 1)
        log_out = kernels.matmul(field, a, b, workers=2)
        log_peak = _traced_peak(kernels.matmul, field, a, b, workers=2)
        assert xor_out.tobytes() == log_out.tobytes()
        assert xor_peak <= log_peak + (4 << 20), (xor_peak, log_peak)

    def test_erasure_encode_peak_below_the_row_shard_kernels(self):
        """The packed step's whole-product peak on the 64 x 32 x 16 384
        erasure encode shape: its 2 MiB output, the shared basis, and one
        shard's table batch, byte index rows, gather and accumulator.
        The bound is the peak of an earlier row-shard log kernel here,
        4 664 304 bytes (an int32 k x tile log tile, chunk scratch and a
        widened index chunk); tables for every coefficient at once
        (m k KiB) would add 2 MiB to the output and fail."""
        field = GF(16)
        rng = np.random.default_rng(32)
        a, b = field.random((64, 32), rng), field.random((32, 16384), rng)
        kernels.matmul(field, a, b)
        assert _traced_peak(kernels.matmul, field, a, b) <= 4_664_304

    def test_packed_shard_bodies_allocate_no_array(self, monkeypatch):
        """Each packed shard doubles its tables into its own batch, takes
        the data's bytes into its own index rows and every table row into
        its own gather and accumulator."""
        field = GF(16)
        rng = np.random.default_rng(31)
        a, b = field.random((31, 31), rng), field.random((31, 40000), rng)
        runs = []
        monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1)
        monkeypatch.setattr(kernels, "_run", lambda fn, arg_sets: runs.append((fn, arg_sets)))
        kernels.matmul(field, a, b, workers=2)
        ((fn, arg_sets),) = runs
        assert fn is kernels._packed_columns and len(arg_sets) == 2
        for args in arg_sets:
            fn(*args)  # numpy's first-call caches are not the kernel's
            acc = args[-1]  # (groups, tile, words): no buffer that size may be made
            assert acc.nbytes > 64 << 10
            assert _traced_peak(fn, *args) < 64 << 10

    def test_shard_bodies_allocate_no_array(self, encode, monkeypatch):
        field, a, b = encode
        runs = []
        monkeypatch.setattr(kernels, "_run", lambda fn, arg_sets: runs.append((fn, arg_sets)))
        kernels.matmul(field, a, b, workers=2)
        ((fn, arg_sets),) = runs
        assert fn is kernels._xor_columns
        for args in arg_sets:
            fn(*args)  # numpy's first-call caches are not the kernel's
            acc = args[-1]  # (m, tile): no buffer that size may be made
            assert acc.nbytes > 64 << 10
            assert _traced_peak(fn, *args) < 64 << 10


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroTimesXIsZero:
    """0 * x == 0 elementwise through every kernel path (the log[0]
    sentinel audit: a zero operand must never surface a table artifact)."""

    def test_elementwise_multiply(self, field):
        rng = np.random.default_rng(field.q)
        x = field.random((257,), rng)
        assert not field.multiply(field.zeros(x.shape), x).any()
        assert not field.multiply(x, field.zeros(x.shape)).any()

    @pytest.mark.parametrize("n", [1, 4, 257, 5000])
    def test_matmul_with_zero_rows_and_columns(self, field, n):
        """A zero coefficient row zeroes its output row; zero data
        columns stay zero -- at one row per step and at many."""
        rng = np.random.default_rng(field.q + n)
        a = field.random((4, 6), rng)
        a[2, :] = 0
        b = field.random((6, n), rng)
        b[:, 0] = 0
        out = kernels.matmul(field, a, b)
        assert not out[2].any()
        assert not out[:, 0].any()
        assert np.array_equal(out, direct_matmul(field, a, b))

    def test_matvec_zero_vector(self, field):
        rng = np.random.default_rng(field.q)
        a = field.random((5, 8), rng)
        assert not kernels.matvec(field, a, field.zeros(8)).any()
        assert not kernels.matvec(field, field.zeros((5, 8)), field.random(8, rng)).any()


class TestValidation:
    def test_block_sizes_below_one_raise(self):
        """A block size <= 0 would make range() yield nothing and the
        product silently come back all-zero."""
        field = GF(16)
        a = field.random((4, 4), np.random.default_rng(0))
        for bad in (0, -1, -64):
            with pytest.raises(ValueError, match="col_block"):
                kernels.matmul(field, a, a, col_block=bad)
            with pytest.raises(ValueError, match="col_block"):
                kernels.matmul_sharded(field, a, a, workers=1, col_block=bad)

    def test_shape_mismatch_raises(self):
        field = GF(16)
        with pytest.raises(ValueError, match="shape mismatch"):
            kernels.matmul(field, field.zeros((2, 3)), field.zeros((4, 2)))
        with pytest.raises(ValueError):
            kernels.matvec(field, field.zeros((2, 3)), field.zeros(5))

    def test_wrong_dtype_out_of_range_rejected(self):
        """int64 values beyond the field must raise, not wrap (the old
        behaviour silently truncated 70000 -> 4464 in GF(2^16))."""
        field = GF(16)
        bad = np.array([[70000]], dtype=np.int64)
        good = field.zeros((1, 1))
        with pytest.raises(ValueError, match="out of range"):
            kernels.matmul(field, bad, good)
        with pytest.raises(ValueError, match="out of range"):
            field.multiply(bad, good)
        with pytest.raises(ValueError, match="out of range"):
            field.linear_combination(
                np.array([70000], dtype=np.int64), field.zeros((1, 4))
            )
        with pytest.raises(TypeError, match="integers"):
            kernels.matmul(field, np.array([[1.5]]), good)

    @pytest.mark.parametrize("q", [4, 8, 16])
    def test_out_of_range_elements_never_yield_a_result(self, q):
        """The table lookups are bounds-checked where the index is an
        *element*: an out-of-range operand must raise from all four entry
        points -- as a same-dtype array in a narrow field (``_coerce``
        does not scan those; ``np.take(..., mode="clip")`` on them would
        return well-formed garbage), and as a wider integer dtype."""
        field = GF(q)
        good = field.ones((2, 2))
        bads = [np.full((2, 2), field.order + 3, dtype=np.int64)]
        if field.order <= np.iinfo(field.dtype).max:
            bads.append(np.full((2, 2), field.order + 3, dtype=field.dtype))
        for bad in bads:
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises((ValueError, IndexError)):
                    field.multiply(a, b)
                with pytest.raises((ValueError, IndexError)):
                    field.linear_combination(a[0], b)
                with pytest.raises((ValueError, IndexError)):
                    kernels.matmul(field, a, b)
            with pytest.raises((ValueError, IndexError)):
                linalg.extract_and_invert(field, bad)

    def test_in_range_int64_coerces(self):
        field = GF(16)
        a = np.array([[3, 5]], dtype=np.int64)
        b = np.array([[7], [11]], dtype=np.int64)
        expected = direct_matmul(field, field.asarray(a), field.asarray(b))
        assert np.array_equal(kernels.matmul(field, a, b), expected)


class TestBackends:
    def test_default_backend_is_numpy(self):
        """The name the e2e ledger records with every run."""
        assert kernels.active_backend() == "numpy"


@pytest.fixture()
def fan_out(monkeypatch):
    """Shrink the fan-out threshold so test-sized products split into shards."""
    monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1 << 10)


def fan_out_operands(seed, m=8):
    """A product wide enough for three column tiles, the last one ragged."""
    field = GF(16)
    rng = np.random.default_rng(seed)
    width = 2 * kernels.DEFAULT_COL_BLOCK + 4464
    return field, field.random((m, 31), rng), field.random((31, width), rng)


def tall_operands(seed):
    """A product on the XOR path, several of its tiles wide, the last ragged."""
    field = GF(16)
    rng = np.random.default_rng(seed)
    width = 2 * kernels._XOR_TILE + 77
    return field, field.random((kernels._XOR_MIN_ROWS + 3, 31), rng), field.random((31, width), rng)


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"the shard pool was used ({name})")


class TestSharded:
    def test_worker_count_invariance(self, fan_out):
        """Column shards of the packed step (8 rows) and of the log path
        (2 rows): byte-identical for any worker count -- including more
        workers than rows -- so REPRO_GF_WORKERS can never change
        encodings."""
        for m in (8, 2):
            field, a, b = fan_out_operands(3, m)
            expected = kernels._matmul_reference(field, a, b)
            for workers in (1, 2, 3, 7):
                got = kernels.matmul(field, a, b, workers=workers)
                assert got.tobytes() == expected.tobytes(), (m, workers)
                sharded = kernels.matmul_sharded(field, a, b, workers=workers)
                assert sharded.tobytes() == expected.tobytes(), (m, workers)

    def test_tall_worker_count_invariance(self, fan_out):
        """Column shards of the XOR path: byte-identical for any worker
        count, uneven splits and more shards than tiles included."""
        field, a, b = tall_operands(3)
        expected = kernels._matmul_reference(field, a, b)
        for workers in (1, 2, 3, 7):
            got = kernels.matmul(field, a, b, workers=workers)
            assert got.tobytes() == expected.tobytes(), workers

    def test_tall_single_worker_never_touches_the_pool(self, fan_out, monkeypatch):
        field, a, b = tall_operands(5)
        expected = kernels._matmul_reference(field, a, b)
        monkeypatch.setattr(kernels, "_POOL", _Untouchable())
        assert kernels.matmul(field, a, b, workers=1).tobytes() == expected.tobytes()

    def test_narrow_data_does_not_shard(self, monkeypatch):
        """Below the threshold the product runs inline on the caller."""
        field = GF(16)
        rng = np.random.default_rng(4)
        a = field.random((2, 3), rng)
        b = field.random((3, 50), rng)
        expected = kernels._matmul_reference(field, a, b)
        monkeypatch.setattr(kernels, "_POOL", _Untouchable())
        assert np.array_equal(kernels.matmul_sharded(field, a, b, workers=8), expected)

    def test_single_worker_never_touches_the_pool(self, fan_out, monkeypatch):
        field, a, b = fan_out_operands(5)
        expected = kernels._matmul_reference(field, a, b)
        monkeypatch.setenv(kernels.WORKERS_ENV, "1")
        monkeypatch.setattr(kernels, "_POOL", _Untouchable())
        assert kernels.matmul(field, a, b).tobytes() == expected.tobytes()

    def test_no_thread_is_spawned_after_the_first_fan_out(self, fan_out, monkeypatch):
        """The pool's threads are created once, not per call, on either
        path: a pool built and joined inside each call would leave
        ``enumerate()`` alone too, so thread starts are counted as well."""
        products = [fan_out_operands(6), tall_operands(6)]
        firsts = [kernels.matmul(*operands, workers=2) for operands in products]
        before = set(threading.enumerate())
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(20):
            for operands, first in zip(products, firsts):
                assert kernels.matmul(*operands, workers=2).tobytes() == first.tobytes()
        assert started == []
        assert set(threading.enumerate()) - before == set()

    def test_concurrent_callers_share_the_pool(self, fan_out, monkeypatch):
        """Three callers fanning out three ways at once on a fresh pool,
        with a short switch interval: exact results, and the pool grows to
        two threads once -- no second pool, no lost update of its size."""
        monkeypatch.setattr(kernels, "_POOL", kernels._ShardPool())
        operands = [fan_out_operands(seed) for seed in (7, 8, 9)]
        expected = [kernels.matmul(f, a, b, workers=1).tobytes() for f, a, b in operands]
        before = set(threading.enumerate())
        start = threading.Barrier(len(operands))
        results: list[list[bytes]] = [[] for _ in operands]

        def caller(slot):
            start.wait()
            for _ in range(5):
                results[slot].append(kernels.matmul(*operands[slot], workers=3).tobytes())

        callers = [threading.Thread(target=caller, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [[blob] * 5 for blob in expected]
        spawned = set(threading.enumerate()) - before
        assert sorted(thread.name for thread in spawned) == ["gf-shard-1", "gf-shard-2"]

    def test_pool_lets_go_of_a_finished_product(self, fan_out):
        """Shard arguments hold the output and the coefficient logs; an
        idle pool thread must not keep them alive until its next task."""
        field, a, b = fan_out_operands(10)
        out = weakref.ref(kernels.matmul(field, a, b, workers=2))
        deadline = time.monotonic() + 10
        while out() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert out() is None

    def test_pool_shard_error_reaches_the_caller(self):
        def shard(fail):
            if fail:
                raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError, match="shard failed"):
            kernels._POOL.run(shard, [(True,), (False,)])
        kernels._POOL.run(shard, [(False,), (False,)])  # the pool survives it

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork only")
    def test_forked_child_can_fan_out(self, fan_out):
        """A child inherits the pool object but none of its threads; the
        first fan-out there must not wait forever on a dead thread."""
        field, a, b = fan_out_operands(9)
        expected = kernels.matmul(field, a, b, workers=2).tobytes()  # parent's pool is live
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            code = 1
            try:
                code = 0 if kernels.matmul(field, a, b, workers=2).tobytes() == expected else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("fan-out in a forked child hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_workers_validation(self, monkeypatch):
        field = GF(16)
        a = field.zeros((2, 2))
        with pytest.raises(ValueError, match="workers"):
            kernels.matmul_sharded(field, a, a, workers=0)
        with pytest.raises(ValueError, match="workers"):
            kernels.matmul(field, a, a, workers=0)
        monkeypatch.setenv(kernels.WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
            kernels.default_workers()
        with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
            kernels.matmul(field, a, a)
        for bad in ("abc", "2.5"):
            monkeypatch.setenv(kernels.WORKERS_ENV, bad)
            with pytest.raises(ValueError, match=f"{kernels.WORKERS_ENV}.*{bad}"):
                kernels.default_workers()
            with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
                kernels.matmul(field, a, a)
        monkeypatch.setenv(kernels.WORKERS_ENV, "5")
        assert kernels.default_workers() == 5

    def test_default_workers_counts_usable_cpus(self, monkeypatch):
        """A process pinned to 2 of 64 CPUs splits products 2 ways, not 64."""
        monkeypatch.delenv(kernels.WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        assert kernels.default_workers() == 2
        monkeypatch.setenv(kernels.WORKERS_ENV, "3")
        assert kernels.default_workers() == 3
        monkeypatch.delenv(kernels.WORKERS_ENV)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert kernels.default_workers() == 64
