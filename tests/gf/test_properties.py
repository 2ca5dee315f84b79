"""Property-based coverage of GF(2^q) arithmetic and linear algebra.

The networked life cycle leans on two algebraic guarantees: the field
axioms (every repair combination is a linear map that must be exactly
invertible) and the solve/invert round-trips of :mod:`repro.gf.linalg`
(reconstruction *is* one big matrix inversion).  Hypothesis checks both
over arbitrary elements and matrices instead of a handful of fixtures.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st

from repro.gf import kernels, linalg
from repro.gf.field import GF

pytestmark = pytest.mark.property

# The paper's field plus the byte field; q=4 is small enough that
# hypothesis explores a meaningful fraction of it.
FIELDS = [GF(4), GF(8), GF(16)]


def elements(field):
    return st.integers(min_value=0, max_value=field.order - 1)


def matrices(field, n, m):
    return st.lists(
        elements(field), min_size=n * m, max_size=n * m
    ).map(lambda vals: np.asarray(vals, dtype=field.dtype).reshape(n, m))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF(2^{f.q})")
class TestFieldAxioms:
    @given(data=st.data())
    def test_addition_group(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field))
        c = data.draw(elements(field))
        assert field.add(a, b) == field.add(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.add(a, 0) == a
        assert field.add(a, a) == 0  # characteristic 2: every element is its own negative

    @given(data=st.data())
    def test_multiplication_group(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field))
        c = data.draw(elements(field))
        assert field.multiply(a, b) == field.multiply(b, a)
        assert field.multiply(field.multiply(a, b), c) == field.multiply(
            a, field.multiply(b, c)
        )
        assert field.multiply(a, 1) == a
        assert field.multiply(a, 0) == 0

    @given(data=st.data())
    def test_multiplicative_inverse(self, field, data):
        a = data.draw(elements(field).filter(bool))
        inv = field.inverse_elements(a)
        assert field.multiply(a, inv) == 1

    @given(data=st.data())
    def test_distributivity(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field))
        c = data.draw(elements(field))
        assert field.multiply(a, field.add(b, c)) == field.add(
            field.multiply(a, b), field.multiply(a, c)
        )

    @given(data=st.data())
    def test_division_inverts_multiplication(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field).filter(bool))
        assert field.divide(field.multiply(a, b), b) == a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF(2^{f.q})")
class TestLinalgRoundTrips:
    @given(n=st.integers(min_value=1, max_value=5), data=st.data())
    def test_inverse_roundtrip(self, field, n, data):
        a = data.draw(matrices(field, n, n))
        assume(linalg.is_invertible(field, a))
        inv = linalg.inverse(field, a)
        eye = field.eye(n)
        assert (linalg.gf_matmul(field, inv, a) == eye).all()
        assert (linalg.gf_matmul(field, a, inv) == eye).all()
        # Inverting twice returns the original matrix.
        assert (linalg.inverse(field, inv) == a).all()

    @given(n=st.integers(min_value=1, max_value=5), data=st.data())
    def test_solve_roundtrip(self, field, n, data):
        a = data.draw(matrices(field, n, n))
        x = np.asarray(
            data.draw(st.lists(elements(field), min_size=n, max_size=n)),
            dtype=field.dtype,
        )
        assume(linalg.is_invertible(field, a))
        b = linalg.gf_matvec(field, a, x)
        assert (linalg.solve(field, a, b) == x).all()

    @given(n=st.integers(min_value=1, max_value=4), data=st.data())
    def test_singular_matrices_raise_typed_error(self, field, n, data):
        a = data.draw(matrices(field, n, n))
        a[n - 1] = a[0]  # duplicate row: rank < n for n > 1
        assume(not linalg.is_invertible(field, a))
        with pytest.raises(linalg.LinAlgError):
            linalg.inverse(field, a)

    @given(
        n=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_extract_and_invert_agrees_with_separate_steps(
        self, field, n, extra, data
    ):
        """The fused extraction+inversion (paper section 4.2) and the
        scan-order extractor share one elimination core.  On any input --
        full rank or not, ``count`` up to the column count -- both select
        the rows a rank-by-rank greedy scan would, or both raise; and the
        fused matrix takes the selected rows to their RREF, which is the
        exact inverse when ``count == cols`` (the reconstruction
        planner's core invariant)."""
        tall = data.draw(matrices(field, n + extra, n))
        count = data.draw(st.integers(min_value=1, max_value=n))
        greedy: list[int] = []
        for index in range(n + extra):
            if linalg.rank(field, tall[greedy + [index]]) == len(greedy) + 1:
                greedy.append(index)
        assert linalg.extract_independent_rows(field, tall) == greedy
        if len(greedy) < count:
            with pytest.raises(linalg.LinAlgError):
                linalg.extract_independent_rows(field, tall, count)
            with pytest.raises(linalg.LinAlgError):
                linalg.extract_and_invert(field, tall, count)
            return
        selected, inverse = linalg.extract_and_invert(field, tall, count)
        assert selected == greedy[:count]
        assert selected == linalg.extract_independent_rows(field, tall, count)
        submatrix = tall[selected]
        reduced = linalg.gf_matmul(field, inverse, submatrix)
        assert (reduced == linalg.rref(field, submatrix)[0]).all()
        if count == n:
            assert (reduced == field.eye(n)).all()


def naive_matmul(field, a, b):
    """Scalar-at-a-time oracle: multiply_direct + XOR, no table tricks."""
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    for i in range(m):
        for j in range(k):
            out[i] = field.add(out[i], field.multiply_direct(a[i, j], b[j]))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF(2^{f.q})")
class TestBlockedKernelProperties:
    """The cache-blocked kernel vs the naive oracle over arbitrary shapes.

    Covers the historical ``row_block`` edge cases by construction:
    hypothesis draws empty matrices, single rows, and dimensions far from
    any multiple of the 64-row default, plus arbitrary block sizes.
    """

    @given(
        m=st.integers(min_value=0, max_value=9),
        k=st.integers(min_value=0, max_value=9),
        n=st.integers(min_value=0, max_value=40),
        row_block=st.integers(min_value=1, max_value=12),
        col_block=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    def test_blocked_matches_naive(self, field, m, k, n, row_block, col_block, data):
        a = data.draw(matrices(field, m, k))
        b = data.draw(matrices(field, k, n))
        expected = naive_matmul(field, a, b)
        got = kernels.matmul(
            field, a, b, row_block=row_block, col_block=col_block
        )
        assert got.shape == expected.shape
        assert (got == expected).all()
        assert (linalg.gf_matmul(field, a, b, row_block=row_block) == expected).all()

    @given(
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=24),
        data=st.data(),
    )
    def test_zero_times_x_is_zero_through_matmul(self, field, m, k, n, data):
        """0 * x == 0 elementwise: zeroing any coefficient row zeroes
        exactly that output row, whatever the data (the log[0] sentinel
        must be unreachable)."""
        a = data.draw(matrices(field, m, k))
        b = data.draw(matrices(field, k, n))
        row = data.draw(st.integers(min_value=0, max_value=m - 1))
        a[row, :] = 0
        out = kernels.matmul(field, a, b)
        assert not out[row].any()
        assert (out == naive_matmul(field, a, b)).all()
        vec_out = kernels.matvec(field, a, b[:, 0]) if n else None
        if vec_out is not None:
            assert vec_out[row] == 0
