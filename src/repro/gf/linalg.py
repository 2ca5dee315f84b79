"""Linear algebra over GF(2^q).

The operations the paper reduces everything to (section 4.2) are:

1. linear combinations of fragments (provided by
   :meth:`repro.gf.field.GaloisField.linear_combination`), and
2. matrix inversion, including the variant needed at reconstruction:
   given a tall ``(m, n)`` coefficient matrix with ``m >= n``, *extract*
   ``n`` linearly independent rows and invert the resulting square
   submatrix ("extraction and inversion are done in parallel", paper 4.2).

This module implements those plus the supporting operations (product,
rank, reduced row echelon form, solving) as plain functions over numpy
arrays, parameterized by the field.
"""

from __future__ import annotations

import numpy as np

from repro.gf import kernels
from repro.gf.field import _CHUNK, GaloisField

__all__ = [
    "LinAlgError",
    "gf_matmul",
    "gf_matvec",
    "rref",
    "rank",
    "is_invertible",
    "inverse",
    "solve",
    "extract_independent_rows",
    "extract_and_invert",
    "nullspace_vector",
    "random_matrix",
    "random_invertible_matrix",
]


class LinAlgError(ValueError):
    """Raised when a matrix operation is impossible (singular, rank-deficient)."""


def _as_matrix(field: GaloisField, a) -> np.ndarray:
    arr = field.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def gf_matmul(field: GaloisField, a, b) -> np.ndarray:
    """Matrix product over the field (:func:`repro.gf.kernels.matmul`)."""
    return kernels.matmul(field, a, b)


def gf_matvec(field: GaloisField, a, x) -> np.ndarray:
    """Matrix-vector product ``a @ x`` over the field."""
    return kernels.matvec(field, a, x)


def _clear_pivot(
    field: GaloisField, work: np.ndarray, index: int, pivot: int, lo: int, hi: int
) -> None:
    """One right-looking Gauss-Jordan step on the column window [lo, hi).

    Normalises row ``index`` to a unit entry in column ``pivot`` and
    clears that column from every other row with one chunked rank-1
    update.  Needs the logs of one column and one row, never of the
    matrix.  The caller guarantees row ``index`` is zero outside the
    window, so columns beyond it cannot change.
    """
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


def _eliminate(field: GaloisField, work: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """In-place forward elimination; returns (work, pivot column list).

    ``work`` is reduced to row echelon form with unit pivots and zeros
    below *and above* each pivot (i.e. RREF).  The list of pivot columns
    has one entry per non-zero row.
    """
    rows, cols = work.shape
    pivot_cols: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_candidates = np.nonzero(work[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        # Rows from ``row`` down are zero left of ``col`` (echelon form).
        _clear_pivot(field, work, row, col, col, cols)
        pivot_cols.append(col)
        row += 1
    return work, pivot_cols


def rref(field: GaloisField, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    work = _as_matrix(field, a).copy()
    return _eliminate(field, work)


def rank(field: GaloisField, a) -> int:
    """Rank of the matrix over the field."""
    _, pivots = rref(field, a)
    return len(pivots)


def is_invertible(field: GaloisField, a) -> bool:
    a = _as_matrix(field, a)
    return a.shape[0] == a.shape[1] and rank(field, a) == a.shape[0]


def inverse(field: GaloisField, a) -> np.ndarray:
    """Inverse of a square matrix via Gauss-Jordan on ``[A | I]``.

    This is the paper's 5n^3-operation primitive (section 4.2, item 2).
    Raises :class:`LinAlgError` when the matrix is singular.
    """
    a = _as_matrix(field, a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise LinAlgError(f"cannot invert non-square matrix of shape {a.shape}")
    work = np.concatenate([a.copy(), field.eye(n)], axis=1)
    work, pivots = _eliminate(field, work)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise LinAlgError("matrix is singular over the field")
    return work[:, n:].copy()


def solve(field: GaloisField, a, b) -> np.ndarray:
    """Solve ``A x = b`` for square invertible A.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    a = _as_matrix(field, a)
    b_arr = field.asarray(b)
    vector = b_arr.ndim == 1
    rhs = b_arr[:, None] if vector else b_arr
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch for solve: {a.shape} and {b_arr.shape}")
    work = np.concatenate([a.copy(), rhs.astype(field.dtype)], axis=1)
    work, pivots = _eliminate(field, work)
    n = a.shape[1]
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise LinAlgError("matrix is singular over the field")
    solution = work[:n, a.shape[1] :]
    return solution[:, 0].copy() if vector else solution.copy()


def _extract(
    field: GaloisField, a, count: int | None, track: bool
) -> tuple[list[int], list[int], np.ndarray]:
    """Scan-order independent-row selection; the one elimination loop
    behind :func:`extract_independent_rows` and :func:`extract_and_invert`.

    Right-looking Gauss-Jordan without row swaps: rows are visited in
    order, and a row whose front is still non-zero after the eliminations
    so far is selected and its pivot column (its first non-zero) cleared
    from every other row by :func:`_clear_pivot`.  The greedy rule fixes
    the selection, and the selected rows end in *reduced* row echelon
    form, so the result does not depend on the elimination order.

    With ``track`` the work matrix is ``[A | T]``: ``T`` has one column
    per selected row, recording which combination of the selected rows
    each row has become (the ``[A | I]`` block of Gauss-Jordan, grown one
    column at a time).  Each step touches only the live column window:
    leading columns that are all pivots already are zero in the pivot
    row, and so are the tracking columns of rows not yet selected.
    Returns ``(selected row indices, their pivot columns, tracking block
    of the selected rows)``; stops at ``target`` rows, the caller decides
    whether fewer is an error.
    """
    a = _as_matrix(field, a)
    rows, cols = a.shape
    target = cols if count is None else count
    if target > cols:
        raise LinAlgError(f"cannot extract {target} independent rows from {cols} columns")
    work = field.zeros((rows, cols + target if track else cols))
    work[:, :cols] = a
    is_pivot = np.zeros(cols + 1, dtype=bool)
    lo = 0
    pivot_cols: list[int] = []
    selected: list[int] = []
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
        _clear_pivot(field, work, index, pivot, lo, hi)
        pivot_cols.append(pivot)
        selected.append(index)
        is_pivot[pivot] = True
        while is_pivot[lo]:  # the extra entry stops this at ``cols``
            lo += 1
    return selected, pivot_cols, work[selected, cols:]


def extract_independent_rows(field: GaloisField, a, count: int | None = None) -> list[int]:
    """Indices of a maximal (or ``count``-sized) set of independent rows.

    This is the reconstruction-time operation of section 3.2: from the
    ``(k * n_piece, n_file)`` coefficient matrix, pick ``n_file`` rows
    forming an invertible submatrix, scanning rows in order so that the
    earliest usable rows win (the decoder then downloads only the
    fragments matching the selected rows).

    Raises :class:`LinAlgError` if ``count`` rows cannot be found.
    """
    selected, _, _ = _extract(field, a, count, track=False)
    if count is not None and len(selected) < count:
        raise LinAlgError(
            f"matrix has rank {len(selected)}, cannot extract {count} independent rows"
        )
    return selected


def extract_and_invert(
    field: GaloisField, a, count: int | None = None
) -> tuple[list[int], np.ndarray]:
    """Extraction and inversion "done in parallel" (paper section 4.2).

    Single elimination pass over the ``(m, n)`` matrix that both picks
    ``count`` independent rows (scan order, like
    :func:`extract_independent_rows`) and produces the inverse of the
    selected square submatrix, by carrying an augmented combination-
    tracking block.  Total cost sits between the paper's 5 n^3 and
    5 m n^2 bounds (eq. E8) -- cheaper than extracting and then
    inverting separately.

    Returns ``(selected_row_indices, inverse)``.  With ``count < n`` the
    selection is not square; the matrix returned is then the ``T`` that
    takes the selected rows to their reduced row echelon form.
    """
    selected, pivot_cols, tracking = _extract(field, a, count, track=True)
    target = tracking.shape[1]
    if len(selected) < target:
        raise LinAlgError(
            f"matrix has rank {len(selected)}, cannot extract {target} independent rows"
        )
    # The tracking block T satisfies T @ A_selected = the basis' front
    # block, whose rows are unit-pivot RREF rows in selection order.
    # Sorting them by pivot column gives the RREF proper -- the identity
    # when rank == cols == target, so the sorted T is the inverse.
    return selected, tracking[np.argsort(pivot_cols)]


def nullspace_vector(field: GaloisField, a, rng: np.random.Generator | None = None) -> np.ndarray:
    """A non-zero vector x with ``A x = 0``, or raise if A has full column rank.

    Used by tests to construct adversarial dependent-piece scenarios.
    """
    a = _as_matrix(field, a)
    reduced, pivots = rref(field, a)
    cols = a.shape[1]
    free_cols = [c for c in range(cols) if c not in pivots]
    if not free_cols:
        raise LinAlgError("matrix has full column rank; nullspace is trivial")
    rng = rng if rng is not None else np.random.default_rng()
    free = free_cols[int(rng.integers(0, len(free_cols)))]
    x = field.zeros(cols)
    x[free] = 1
    for row_index, pivot_col in enumerate(pivots):
        x[pivot_col] = reduced[row_index, free]
    return x


def random_matrix(
    field: GaloisField, shape: tuple[int, int], rng: np.random.Generator | None = None
) -> np.ndarray:
    """Uniformly random matrix over the field."""
    return field.random(shape, rng)


def random_invertible_matrix(
    field: GaloisField, n: int, rng: np.random.Generator | None = None, max_tries: int = 64
) -> np.ndarray:
    """Random invertible ``(n, n)`` matrix (rejection sampling).

    For q >= 8 a uniform matrix is invertible with probability > 0.99, so
    a couple of tries suffice; ``max_tries`` guards tiny fields.
    """
    rng = rng if rng is not None else np.random.default_rng()
    for _ in range(max_tries):
        candidate = field.random((n, n), rng)
        if is_invertible(field, candidate):
            return candidate
    raise LinAlgError(f"failed to sample an invertible {n}x{n} matrix in {max_tries} tries")
