"""Tests for GF linear algebra: the paper's second primitive (section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import linalg
from repro.gf.field import GF


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
