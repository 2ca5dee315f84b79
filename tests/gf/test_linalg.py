"""Tests for GF linear algebra: the paper's second primitive (section 4.2)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import kernels, linalg
from repro.gf.field import _CHUNK, GF


def _clear_pivot_unblocked(field, work, index, pivot, lo, hi):
    """The elimination step as it was before blocking, kept verbatim."""
    window = work[:, lo:hi]
    row = window[index]
    row[:] = field.multiply(field.inverse_elements(work[index, pivot]), row)
    log_row = np.take(field._log0, row)
    log_col = np.take(field._log0, work[:, pivot])
    log_col[index] = field._log_sentinel  # the pivot row itself stays
    width = hi - lo
    step = min(len(window), max(1, _CHUNK // width))
    idx = np.empty((step, width), dtype=np.int32)
    prod = np.empty((step, width), dtype=field.dtype)
    for start in range(0, len(window), step):
        acc = window[start : start + step]
        factors = log_col[start : start + step]
        field._xor_outer(acc, factors, log_row, idx[: len(acc)], prod[: len(acc)])


def extract_unblocked(field, a, count, track):
    """The oracle: ``linalg._extract`` before blocking -- every pivot
    cleared from every row at once, selected rows left where they are.
    Returns what ``_extract`` returns."""
    a = field.asarray(a)
    rows, cols = a.shape
    target = cols if count is None else count
    if target > cols:
        raise linalg.LinAlgError(f"cannot extract {target} independent rows from {cols} columns")
    work = field.zeros((rows, cols + target if track else cols))
    work[:, :cols] = a
    is_pivot = np.zeros(cols + 1, dtype=bool)
    lo = 0
    pivot_cols = []
    selected = []
    for index in range(rows):
        if len(selected) == target:
            break
        nonzero = np.flatnonzero(work[index, lo:cols])
        if nonzero.size == 0:
            continue
        pivot = lo + int(nonzero[0])
        hi = cols
        if track:
            work[index, cols + len(selected)] = 1  # tracks "1 x this row"
            hi = cols + len(selected) + 1
        _clear_pivot_unblocked(field, work, index, pivot, lo, hi)
        pivot_cols.append(pivot)
        selected.append(index)
        is_pivot[pivot] = True
        while is_pivot[lo]:  # the extra entry stops this at ``cols``
            lo += 1
    return selected, pivot_cols, work[selected, :cols], work[selected, cols:]


def assert_matches_unblocked(field, a, count=None):
    """``_extract`` and ``extract_and_invert`` agree with the oracle byte
    for byte, and raise where it runs short of ``count`` rows."""
    if count is not None and len(extract_unblocked(field, a, count, False)[0]) < count:
        with pytest.raises(linalg.LinAlgError, match="cannot extract"):
            linalg._extract(field, a, count, False)
        count = None
    for track in (False, True):
        want = extract_unblocked(field, a, count, track)
        got = linalg._extract(field, a, count, track)
        assert got[:2] == want[:2]
        for got_block, want_block in zip(got[2:], want[2:]):
            assert got_block.shape == want_block.shape
            assert got_block.tobytes() == want_block.tobytes()
    selected, pivots, _, tracking = want
    if len(selected) < tracking.shape[1]:
        with pytest.raises(linalg.LinAlgError, match="cannot extract"):
            linalg.extract_and_invert(field, a, count)
    else:
        chosen, inverse = linalg.extract_and_invert(field, a, count)
        assert chosen == selected
        assert inverse.tobytes() == tracking[np.argsort(pivots)].tobytes()
    return want


class TestMatmul:
    def test_identity(self, gf256, rng):
        a = gf256.random((5, 5), rng)
        assert np.all(linalg.gf_matmul(gf256, gf256.eye(5), a) == a)
        assert np.all(linalg.gf_matmul(gf256, a, gf256.eye(5)) == a)

    def test_associativity(self, gf256, rng):
        a = gf256.random((3, 4), rng)
        b = gf256.random((4, 5), rng)
        c = gf256.random((5, 2), rng)
        left = linalg.gf_matmul(gf256, linalg.gf_matmul(gf256, a, b), c)
        right = linalg.gf_matmul(gf256, a, linalg.gf_matmul(gf256, b, c))
        assert np.all(left == right)

    def test_matches_manual_small(self, gf16):
        a = gf16.asarray([[1, 2], [3, 4]])
        b = gf16.asarray([[5, 6], [7, 8]])
        expected = gf16.zeros((2, 2))
        for row in range(2):
            for col in range(2):
                total = gf16.dtype.type(0)
                for inner in range(2):
                    total = gf16.add(total, gf16.multiply(a[row, inner], b[inner, col]))
                expected[row, col] = total
        assert np.all(linalg.gf_matmul(gf16, a, b) == expected)

    def test_shape_mismatch(self, gf256):
        with pytest.raises(ValueError):
            linalg.gf_matmul(gf256, gf256.zeros((2, 3)), gf256.zeros((4, 2)))

    def test_matvec_agrees_with_matmul(self, gf256, rng):
        a = gf256.random((6, 4), rng)
        x = gf256.random(4, rng)
        via_matmul = linalg.gf_matmul(gf256, a, x[:, None])[:, 0]
        assert np.all(linalg.gf_matvec(gf256, a, x) == via_matmul)

    def test_matvec_shape_mismatch(self, gf256):
        with pytest.raises(ValueError):
            linalg.gf_matvec(gf256, gf256.zeros((2, 3)), gf256.zeros(2))


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_inverse_roundtrip(self, gf256, rng, n):
        matrix = linalg.random_invertible_matrix(gf256, n, rng)
        inverse = linalg.inverse(gf256, matrix)
        assert np.all(linalg.gf_matmul(gf256, inverse, matrix) == gf256.eye(n))
        assert np.all(linalg.gf_matmul(gf256, matrix, inverse) == gf256.eye(n))

    def test_singular_raises(self, gf256):
        singular = gf256.asarray([[1, 2], [1, 2]])
        with pytest.raises(linalg.LinAlgError):
            linalg.inverse(gf256, singular)

    def test_zero_matrix_raises(self, gf256):
        with pytest.raises(linalg.LinAlgError):
            linalg.inverse(gf256, gf256.zeros((3, 3)))

    def test_non_square_raises(self, gf256):
        with pytest.raises(linalg.LinAlgError):
            linalg.inverse(gf256, gf256.zeros((2, 3)))

    def test_inverse_of_identity(self, gf65536):
        assert np.all(linalg.inverse(gf65536, gf65536.eye(4)) == gf65536.eye(4))

    def test_inverse_involution(self, gf65536, rng):
        matrix = linalg.random_invertible_matrix(gf65536, 6, rng)
        assert np.all(linalg.inverse(gf65536, linalg.inverse(gf65536, matrix)) == matrix)


class TestSolve:
    def test_solve_vector(self, gf256, rng):
        a = linalg.random_invertible_matrix(gf256, 5, rng)
        x = gf256.random(5, rng)
        b = linalg.gf_matvec(gf256, a, x)
        assert np.all(linalg.solve(gf256, a, b) == x)

    def test_solve_matrix_rhs(self, gf256, rng):
        a = linalg.random_invertible_matrix(gf256, 4, rng)
        x = gf256.random((4, 7), rng)
        b = linalg.gf_matmul(gf256, a, x)
        assert np.all(linalg.solve(gf256, a, b) == x)

    def test_solve_singular_raises(self, gf256):
        with pytest.raises(linalg.LinAlgError):
            linalg.solve(gf256, gf256.zeros((2, 2)), gf256.zeros(2))

    def test_solve_shape_mismatch(self, gf256):
        with pytest.raises(ValueError):
            linalg.solve(gf256, gf256.eye(3), gf256.zeros(2))


class TestRankAndRref:
    def test_rank_of_identity(self, gf256):
        assert linalg.rank(gf256, gf256.eye(5)) == 5

    def test_rank_of_zero(self, gf256):
        assert linalg.rank(gf256, gf256.zeros((4, 4))) == 0

    def test_rank_of_duplicated_rows(self, gf256, rng):
        row = gf256.random(6, rng)
        matrix = np.stack([row, row, gf256.multiply(3, row)])
        assert linalg.rank(gf256, matrix) == 1

    def test_random_matrix_full_rank_whp(self, gf65536, rng):
        matrix = gf65536.random((10, 10), rng)
        assert linalg.rank(gf65536, matrix) == 10  # fails w.p. ~2^-16

    def test_rref_pivots_are_unit_columns(self, gf256, rng):
        matrix = gf256.random((4, 6), rng)
        reduced, pivots = linalg.rref(gf256, matrix)
        for row_index, pivot_col in enumerate(pivots):
            column = reduced[:, pivot_col]
            assert column[row_index] == 1
            assert np.count_nonzero(column) == 1

    def test_rref_preserves_row_space(self, gf256, rng):
        matrix = gf256.random((4, 6), rng)
        reduced, _ = linalg.rref(gf256, matrix)
        stacked = np.concatenate([matrix, reduced])
        assert linalg.rank(gf256, stacked) == linalg.rank(gf256, matrix)

    def test_wide_matrix_rank_bounded_by_rows(self, gf256, rng):
        assert linalg.rank(gf256, gf256.random((3, 10), rng)) <= 3

    def test_non_matrix_input_rejected(self, gf256):
        with pytest.raises(ValueError):
            linalg.rank(gf256, gf256.zeros(4))


class TestExtraction:
    """The reconstruction-time primitive: pick n_file independent rows."""

    def test_extracts_in_scan_order(self, gf256, rng):
        basis = linalg.random_invertible_matrix(gf256, 4, rng)
        selected = linalg.extract_independent_rows(gf256, basis, 4)
        assert selected == [0, 1, 2, 3]

    def test_skips_dependent_rows(self, gf256, rng):
        basis = linalg.random_invertible_matrix(gf256, 3, rng)
        duplicated = np.stack(
            [basis[0], gf256.multiply(5, basis[0]), basis[1], basis[0], basis[2]]
        )
        selected = linalg.extract_independent_rows(gf256, duplicated, 3)
        assert selected == [0, 2, 4]

    def test_skips_zero_rows(self, gf256, rng):
        basis = linalg.random_invertible_matrix(gf256, 2, rng)
        padded = np.concatenate([gf256.zeros((2, 2)), basis])
        assert linalg.extract_independent_rows(gf256, padded, 2) == [2, 3]

    def test_insufficient_rank_raises(self, gf256, rng):
        row = gf256.random_nonzero(4, rng)
        matrix = np.stack([row, gf256.multiply(2, row)])
        with pytest.raises(linalg.LinAlgError):
            linalg.extract_independent_rows(gf256, matrix, 2)

    def test_count_none_returns_maximal_set(self, gf256, rng):
        row = gf256.random_nonzero(4, rng)
        matrix = np.stack([row, gf256.multiply(2, row), gf256.random(4, rng)])
        selected = linalg.extract_independent_rows(gf256, matrix)
        assert len(selected) == linalg.rank(gf256, matrix)

    def test_count_above_columns_raises(self, gf256):
        with pytest.raises(linalg.LinAlgError):
            linalg.extract_independent_rows(gf256, gf256.eye(3), 4)

    def test_selected_rows_are_invertible(self, gf65536, rng):
        tall = gf65536.random((20, 8), rng)
        selected = linalg.extract_independent_rows(gf65536, tall, 8)
        linalg.inverse(gf65536, tall[selected])  # must not raise


class TestNullspace:
    def test_nullspace_vector_annihilates(self, gf256, rng):
        rank_deficient = gf256.random((3, 5), rng)
        x = linalg.nullspace_vector(gf256, rank_deficient, rng)
        assert np.any(x != 0)
        assert np.all(linalg.gf_matvec(gf256, rank_deficient, x) == 0)

    def test_full_rank_has_trivial_nullspace(self, gf256, rng):
        matrix = linalg.random_invertible_matrix(gf256, 4, rng)
        with pytest.raises(linalg.LinAlgError):
            linalg.nullspace_vector(gf256, matrix, rng)


class TestRandomInvertible:
    def test_small_field_eventually_succeeds(self, gf16, rng):
        matrix = linalg.random_invertible_matrix(gf16, 5, rng)
        assert linalg.is_invertible(gf16, matrix)

    def test_is_invertible_rejects_rectangles(self, gf256):
        assert not linalg.is_invertible(gf256, gf256.zeros((2, 3)))


class TestPropertyBased:
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_inverse_property(self, n, seed):
        field = GF(8)
        rng = np.random.default_rng(seed)
        matrix = linalg.random_invertible_matrix(field, n, rng)
        inverse = linalg.inverse(field, matrix)
        assert np.all(linalg.gf_matmul(field, matrix, inverse) == field.eye(n))

    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rank_is_permutation_invariant(self, rows, cols, seed):
        field = GF(8)
        rng = np.random.default_rng(seed)
        matrix = field.random((rows, cols), rng)
        shuffled = matrix[rng.permutation(rows)]
        assert linalg.rank(field, matrix) == linalg.rank(field, shuffled)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extraction_consistent_with_rank(self, rows, seed):
        field = GF(8)
        rng = np.random.default_rng(seed)
        matrix = field.random((rows, 4), rng)
        selected = linalg.extract_independent_rows(field, matrix)
        assert len(selected) == linalg.rank(field, matrix)


CROSSOVER = linalg._BLOCKED_MIN_ROWS
BLOCK = linalg._BLOCK_ROWS


class TestBlockedExtraction:
    """The blocked elimination against the unblocked oracle, at its real
    constants: block edges, the crossover and planted dependencies."""

    @pytest.mark.parametrize(
        "rows",
        [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, CROSSOVER + BLOCK - 1, CROSSOVER + BLOCK + 1],
    )
    def test_row_counts_around_the_crossover_and_block_edges(self, any_field, rng, rows):
        assert_matches_unblocked(any_field, any_field.random((rows, rows - 1), rng))

    def test_dependent_rows_at_block_edges(self, any_field, rng):
        field = any_field
        a = field.random((CROSSOVER + BLOCK, CROSSOVER - 8), rng)
        # First and last row of the second block: combinations of rows
        # from the first block and from their own.
        a[BLOCK] = field.add(a[0], field.multiply(3, a[5]))
        a[2 * BLOCK - 1] = field.add(field.multiply(7, a[BLOCK + 2]), a[1])
        selected = assert_matches_unblocked(field, a)[0]
        assert BLOCK not in selected and 2 * BLOCK - 1 not in selected

    def test_duplicate_rows_straddle_blocks_and_zero_rows(self, any_field, rng):
        field = any_field
        a = field.random((CROSSOVER + BLOCK, CROSSOVER), rng)
        a[BLOCK] = a[BLOCK - 1]
        a[3 * BLOCK] = field.multiply(2, a[BLOCK - 2])
        a[0] = 0
        a[2 * BLOCK] = 0
        selected = assert_matches_unblocked(field, a)[0]
        assert not {0, BLOCK, 2 * BLOCK, 3 * BLOCK} & set(selected)

    @pytest.mark.parametrize("count", [BLOCK // 2, BLOCK, BLOCK + BLOCK // 2, 3 * BLOCK + 1])
    def test_count_below_columns(self, any_field, rng, count):
        """The target is reached inside a block, at its end, or later: the
        rows selected before the block still take its pivots."""
        tall = any_field.random((CROSSOVER + 8, CROSSOVER), rng)
        assert_matches_unblocked(any_field, tall, count)

    @pytest.mark.parametrize("count", [None, CROSSOVER])
    def test_fewer_rows_than_columns(self, any_field, rng, count):
        wide = any_field.random((CROSSOVER, CROSSOVER + 40), rng)
        assert_matches_unblocked(any_field, wide, count)

    def test_rank_deficient_input_raises(self, any_field, rng):
        field = any_field
        basis = field.random((100, CROSSOVER - 40), rng)
        a = linalg.gf_matmul(field, field.random((CROSSOVER + 20, 100), rng), basis)
        selected = assert_matches_unblocked(field, a)[0]
        assert len(selected) <= 100
        with pytest.raises(linalg.LinAlgError, match="cannot extract"):
            linalg.extract_independent_rows(field, a, CROSSOVER - 40)
        assert linalg.rank(field, a) == len(selected)

    def test_public_functions_at_table_one_size(self, gf65536, rng):
        """rref, rank, inverse and solve are the oracle's selection, sorted."""
        field = gf65536
        n = CROSSOVER + 8
        a = field.random((n, n), rng)
        selected, pivots, reduced, tracking = extract_unblocked(field, a, None, True)
        assert len(selected) == n  # fails w.p. ~2^-16
        order = np.argsort(pivots)
        inverse = linalg.inverse(field, a)
        assert inverse.tobytes() == tracking[order].tobytes()
        assert (linalg.gf_matmul(field, a, inverse) == field.eye(n)).all()
        x = field.random(n, rng)
        assert linalg.solve(field, a, linalg.gf_matvec(field, a, x)).tobytes() == x.tobytes()
        assert linalg.rank(field, a) == n and linalg.is_invertible(field, a)
        tall = np.concatenate([a[: n // 2], a[: n // 2], field.random((n // 2, n), rng)])
        selected, pivots, reduced, _ = extract_unblocked(field, tall, None, False)
        echelon, pivot_cols = linalg.rref(field, tall)
        want = field.zeros(tall.shape)
        want[: len(pivots)] = reduced[np.argsort(pivots)]
        assert pivot_cols == sorted(pivots)
        assert echelon.tobytes() == want.tobytes()


class TestBlockedPaths:
    """Which kernel the blocked elimination reaches, how many threads run
    it, and what it holds in memory."""

    def test_below_the_crossover_matmul_is_never_called(self, gf65536, rng, monkeypatch):
        def no_product(*args, **kwargs):
            raise AssertionError("kernels.matmul called below the crossover")

        monkeypatch.setattr(kernels, "matmul", no_product)
        field = gf65536
        tall = field.random((CROSSOVER - 1, CROSSOVER - 2), rng)
        square = field.random((CROSSOVER - 1, CROSSOVER - 1), rng)
        linalg.extract_and_invert(field, tall)
        linalg.extract_independent_rows(field, tall)
        linalg.rank(field, tall)
        linalg.rref(field, tall)
        linalg.inverse(field, square)

    def test_paper_stack_products_take_the_xor_path(self, gf65536, rng, monkeypatch):
        """On the paper's 320 x 319 reconstruct stack every block product
        of the plan's ``extract_and_invert`` is tall and wide enough for
        the row-XOR path."""
        shapes = []
        matmul = kernels.matmul

        def recording(field, a, b, **kwargs):
            shapes.append((a.shape[0], b.shape[1]))
            return matmul(field, a, b, **kwargs)

        field = gf65536
        a = field.random((320, 319), rng)
        selected, pivots, _, tracking = extract_unblocked(field, a, None, True)
        monkeypatch.setattr(kernels, "matmul", recording)
        chosen, inverse = linalg.extract_and_invert(field, a)
        assert chosen == selected
        assert inverse.tobytes() == tracking[np.argsort(pivots)].tobytes()
        assert len(shapes) == -(-len(a) // BLOCK)  # one per block

        for rows, columns in shapes:
            assert rows >= kernels._XOR_MIN_ROWS
            assert columns >= kernels._XOR_MIN_COLUMNS

    def test_byte_identical_for_any_worker_count(self, gf65536, rng, monkeypatch):
        field = gf65536
        a = field.random((CROSSOVER + BLOCK + 5, CROSSOVER + 3), rng)
        want = extract_unblocked(field, a, None, True)
        monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1)  # every product fans out
        for workers in (1, 2, 3, 7):
            monkeypatch.setenv(kernels.WORKERS_ENV, str(workers))
            got = linalg._extract(field, a, None, True)
            assert got[:2] == want[:2]
            assert got[3].tobytes() == want[3].tobytes()

    def test_memory_peak_stays_near_the_unblocked_one(self, gf65536, rng):
        field = gf65536
        a = field.random((320, 319), rng)
        linalg.extract_and_invert(field, a)  # warm-up: kernel pool, tables

        def peak(extract):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                extract(field, a, None, True)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(linalg._extract) <= peak(extract_unblocked) + (4 << 20)
