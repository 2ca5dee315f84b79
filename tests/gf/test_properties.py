"""Property-based coverage of GF(2^q) arithmetic and linear algebra.

The networked life cycle leans on two algebraic guarantees: the field
axioms (every repair combination is a linear map that must be exactly
invertible) and the solve/invert round-trips of :mod:`repro.gf.linalg`
(reconstruction *is* one big matrix inversion).  Hypothesis checks both
over arbitrary elements and matrices instead of a handful of fixtures.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st

from repro.gf import kernels, linalg
from repro.gf.field import GF
from tests.gf.test_linalg import assert_matches_unblocked, extract_unblocked

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


def direct_rank(field, a):
    """Rank by scalar-pivot elimination on ``multiply_direct``: shares no
    table lookup and no loop with :mod:`repro.gf.linalg`."""
    work = a.copy()
    rank = 0
    for col in range(work.shape[1]):
        hits = [r for r in range(rank, len(work)) if work[r, col]]
        if not hits:
            continue
        work[[rank, hits[0]]] = work[[hits[0], rank]]
        work[rank] = field.multiply_direct(field.inverse_elements(work[rank, col]), work[rank])
        for r in range(len(work)):
            if r != rank and work[r, col]:
                work[r] ^= field.multiply_direct(work[r, col], work[rank])
        rank += 1
    return rank


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF(2^{f.q})")
class TestStructuredExtraction:
    """The right-looking extraction loop on inputs built to break it.

    Its column window assumes nothing about *where* pivots fall, so the
    inputs plant zero and duplicate rows at the head, middle and tail,
    zero columns (pivots are then not a contiguous prefix), many more
    rows than columns, ``count < cols`` and rank deficiency -- and the
    selection must still be the rank-by-rank greedy one, the fused matrix
    the one that takes the selected rows to their RREF.
    """

    @given(
        cols=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_selection_and_inverse_match_greedy_oracle(self, field, cols, extra, data):
        rows = cols + extra
        tall = data.draw(matrices(field, rows, cols))
        for position in (0, rows // 2, rows - 1):
            kind = data.draw(st.sampled_from(["keep", "zero", "duplicate"]))
            if kind == "zero":
                tall[position] = 0
            elif kind == "duplicate":
                source = tall[data.draw(st.integers(0, rows - 1))]
                tall[position] = field.multiply_direct(data.draw(elements(field)), source)
        tall[:, data.draw(st.lists(st.integers(0, cols - 1), max_size=cols - 1))] = 0
        count = data.draw(st.integers(min_value=1, max_value=cols))

        greedy: list[int] = []
        for index in range(rows):
            if direct_rank(field, tall[greedy + [index]]) == len(greedy) + 1:
                greedy.append(index)
        assert linalg.extract_independent_rows(field, tall) == greedy
        if len(greedy) < count:
            message = f"matrix has rank {len(greedy)}, cannot extract {count} independent rows"
            with pytest.raises(linalg.LinAlgError, match=message):
                linalg.extract_independent_rows(field, tall, count)
            with pytest.raises(linalg.LinAlgError, match=message):
                linalg.extract_and_invert(field, tall, count)
            return
        assert linalg.extract_independent_rows(field, tall, count) == greedy[:count]
        selected, fused = linalg.extract_and_invert(field, tall, count)
        assert selected == greedy[:count]
        assert fused.shape == (count, count)
        # fused @ A[selected] is in RREF with ``count`` non-zero rows ...
        reduced = naive_matmul(field, fused, tall[selected])
        pivots = [int(np.flatnonzero(row)[0]) for row in reduced]
        assert pivots == sorted(set(pivots))
        for row, pivot in enumerate(pivots):
            assert (reduced[:, pivot] == field.eye(count)[:, row]).all()
        # ... which is the identity -- fused is the inverse -- when square.
        if count == cols:
            assert (reduced == field.eye(cols)).all()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"GF(2^{f.q})")
class TestBlockedExtraction:
    """The blocked elimination against the unblocked oracle with its
    block size and crossover shrunk, so hypothesis-sized stacks cross
    many blocks: planted zero and dependent rows land at block edges,
    the target is met mid-block, and the block products take either
    kernel path (the XOR path's thresholds are shrunk in half the
    examples)."""

    @given(
        cols=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=-3, max_value=30),
        block=st.integers(min_value=1, max_value=6),
        crossover=st.integers(min_value=0, max_value=12),
        xor_path=st.booleans(),
        data=st.data(),
    )
    def test_blocked_matches_unblocked(self, field, cols, extra, block, crossover, xor_path, data):
        rows = max(0, cols + extra)
        tall = data.draw(matrices(field, rows, cols))
        for position in data.draw(st.lists(st.integers(0, rows - 1), max_size=4)) if rows else []:
            source = tall[data.draw(st.integers(0, rows - 1))]
            tall[position] = field.multiply_direct(data.draw(elements(field)), source)
        count = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=cols)))
        with mock.patch.object(linalg, "_BLOCK_ROWS", block), mock.patch.object(
            linalg, "_BLOCKED_MIN_ROWS", crossover
        ), mock.patch.object(kernels, "_XOR_MIN_ROWS", 1 if xor_path else 10**9), mock.patch.object(
            kernels, "_XOR_MIN_COLUMNS", 1
        ):
            assert_matches_unblocked(field, tall, count)
            _, pivots, reduced, _ = extract_unblocked(field, tall, None, False)
            echelon, pivot_cols = linalg.rref(field, tall)
            assert pivot_cols == sorted(pivots)
            assert (echelon[: len(pivots)] == reduced[np.argsort(pivots)]).all()
            assert not echelon[len(pivots) :].any()
            assert linalg.rank(field, tall) == len(pivots) == direct_rank(field, tall)


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
    """The chunked kernel vs the naive oracle over arbitrary shapes.

    The kernel's step size is shrunk so that hypothesis-sized operands
    sit on both sides of every boundary the one loop has: ``n`` around the
    column tile and its multiples, ``m`` around the rows-per-step count
    ``_CHUNK // tile`` and its multiples, one row per step (the add-free
    offset view) and many, ``k = 1``, empty dimensions -- with all-zero
    and all-one coefficient rows and zero data columns planted.  The
    packed step's width and row floors and its table batch are drawn
    too, so operands run the packed step as well as the log path, with
    batches that do not divide ``k``.  The fan-out threshold is shrunk to one element
    operation, so the same operands also split into 1-3 column shards on
    the persistent pool, including more workers than rows.
    """

    @given(
        m=st.integers(min_value=0, max_value=9),
        k=st.integers(min_value=0, max_value=9),
        n=st.integers(min_value=0, max_value=40),
        chunk=st.integers(min_value=1, max_value=64),
        col_block=st.integers(min_value=1, max_value=50),
        wide=st.integers(min_value=1, max_value=60),
        few=st.integers(min_value=1, max_value=10),
        batch=st.integers(min_value=1, max_value=4),
        workers=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_blocked_matches_naive(
        self, field, m, k, n, chunk, col_block, wide, few, batch, workers, data
    ):
        a = data.draw(matrices(field, m, k))
        b = data.draw(matrices(field, k, n))
        if m:
            a[data.draw(st.integers(0, m - 1))] = 0
            a[data.draw(st.integers(0, m - 1))] = 1
        if n:
            b[:, data.draw(st.integers(0, n - 1))] = 0
        expected = naive_matmul(field, a, b)
        with mock.patch.object(kernels, "_CHUNK", chunk), mock.patch.object(
            kernels, "_MIN_SHARD_OPS", 1
        ), mock.patch.object(kernels, "_PACKED_MIN_COLUMNS", wide), mock.patch.object(
            kernels, "_PACKED_MIN_ROWS", few
        ), mock.patch.object(kernels, "_PACKED_BATCH", batch):
            got = kernels.matmul(field, a, b, workers=1, col_block=col_block)
            sharded = kernels.matmul(field, a, b, workers=workers, col_block=col_block)
            delegated = kernels.matmul_sharded(
                field, a, b, workers=workers, col_block=col_block
            )
        assert got.shape == expected.shape
        assert (got == expected).all()
        assert sharded.tobytes() == got.tobytes()
        assert delegated.tobytes() == got.tobytes()
        assert (kernels._matmul_reference(field, a, b) == expected).all()
        assert (linalg.gf_matmul(field, a, b) == expected).all()

    @given(
        m=st.integers(
            min_value=kernels._XOR_MIN_ROWS - 2, max_value=kernels._XOR_MIN_ROWS + 2
        ),
        k=st.integers(min_value=0, max_value=7),
        n=st.one_of(
            st.integers(min_value=0, max_value=3),
            st.integers(
                min_value=kernels._XOR_MIN_COLUMNS - 2,
                max_value=kernels._XOR_MIN_COLUMNS + 40,
            ),
        ),
        batch=st.integers(min_value=1, max_value=4),
        col_block=st.integers(min_value=1, max_value=50),
        workers=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_either_side_of_the_xor_threshold(
        self, field, m, k, n, batch, col_block, workers, seed, data
    ):
        """Shapes straddling the XOR path's row and column thresholds
        agree with the oracle, on both paths; its table batch is shrunk
        so that small ``k q`` spans several batches, and the group width
        rarely divides ``k q``."""
        rng = np.random.default_rng(seed)
        a = field.random((m, k), rng)
        b = field.random((k, n), rng)
        a[data.draw(st.integers(0, m - 1))] = 0
        a[data.draw(st.integers(0, m - 1))] = 1
        if n:
            b[:, data.draw(st.integers(0, n - 1))] = 0
        expected = kernels._matmul_reference(field, a, b)
        with mock.patch.object(kernels, "_XOR_BATCH", batch), mock.patch.object(
            kernels, "_MIN_SHARD_OPS", 1
        ):
            got = kernels.matmul(field, a, b, workers=workers, col_block=col_block)
        assert got.tobytes() == expected.tobytes()

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
