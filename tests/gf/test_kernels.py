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
   raise instead of wrapping or clipping, and the thread-sharded product
   is byte-identical for every worker count.
"""

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
        rng = np.random.default_rng(field.q)
        a = field.random((13, 7), rng)
        b = field.random((7, 530), rng)
        expected = kernels._matmul_reference(field, a, b)
        for col_block in (1, 3, 256, 529, 530, 531, 1 << 20):
            got = kernels.matmul(field, a, b, col_block=col_block)
            assert np.array_equal(got, expected), col_block

    @pytest.mark.parametrize("rows_per_step", [1, 2, 5])
    def test_chunk_and_tile_boundaries(self, field, rows_per_step):
        """Row and column counts one either side of (and at multiples of)
        the kernel's own step sizes, read from the module: a tile of
        ``_CHUNK // r`` columns makes it run ``r`` output rows per step."""
        tile = kernels._CHUNK // rows_per_step
        assert tile <= kernels.DEFAULT_COL_BLOCK
        rng = np.random.default_rng(field.q + rows_per_step)
        for n in (tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1):
            for m in {max(rows_per_step - 1, 1), rows_per_step, rows_per_step + 1,
                      2 * rows_per_step, 2 * rows_per_step + 1}:
                a = field.random((m, 2), rng)
                b = field.random((2, n), rng)
                got = kernels.matmul(field, a, b, col_block=tile)
                assert np.array_equal(got, kernels._matmul_reference(field, a, b)), (m, n)
                assert np.array_equal(got, kernels.matmul(field, a, b)), (m, n)

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


class TestSharded:
    def test_worker_count_invariance(self):
        """Disjoint column shards: the result is byte-identical for any
        worker count, so REPRO_GF_WORKERS can never change encodings."""
        field = GF(16)
        rng = np.random.default_rng(3)
        a = field.random((8, 31), rng)
        b = field.random((31, 200_000), rng)
        expected = kernels.matmul(field, a, b)
        for workers in (1, 2, 3, 7):
            got = kernels.matmul_sharded(field, a, b, workers=workers)
            assert got.tobytes() == expected.tobytes(), workers

    def test_narrow_data_does_not_shard(self):
        field = GF(16)
        rng = np.random.default_rng(4)
        a = field.random((2, 3), rng)
        b = field.random((3, 50), rng)
        assert np.array_equal(
            kernels.matmul_sharded(field, a, b, workers=8),
            kernels.matmul(field, a, b),
        )

    def test_workers_validation(self, monkeypatch):
        field = GF(16)
        a = field.zeros((2, 2))
        with pytest.raises(ValueError, match="workers"):
            kernels.matmul_sharded(field, a, a, workers=0)
        monkeypatch.setenv(kernels.WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
            kernels.default_workers()
        monkeypatch.setenv(kernels.WORKERS_ENV, "5")
        assert kernels.default_workers() == 5
