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
from repro.gf.field import GaloisField

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


def gf_matmul(field: GaloisField, a, b, row_block: int = kernels.DEFAULT_ROW_BLOCK) -> np.ndarray:
    """Matrix product over the field.

    Runs the cache-blocked fused-table kernel in :mod:`repro.gf.kernels`.
    ``row_block`` bounds the broadcast intermediate on the small-matrix
    path and must be >= 1.
    """
    return kernels.matmul(field, a, b, row_block=row_block)


def gf_matvec(field: GaloisField, a, x) -> np.ndarray:
    """Matrix-vector product ``a @ x`` over the field."""
    return kernels.matvec(field, a, x)


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
        inv = field.inverse_elements(work[row, col])
        work[row] = field.multiply(inv, work[row])
        other = np.nonzero(work[:, col])[0]
        other = other[other != row]
        if other.size:
            factors = work[other, col]
            work[other] = field.add(
                work[other], field.multiply(factors[:, None], work[row][None, :])
            )
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


def _scaled_outer(field: GaloisField, factors: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``factors[:, None] * row[None, :]`` with one log pass per operand.

    Elimination hot path.  Uses the fused zero-extended tables, so zero
    factors *and* zero row entries are exact with no masking pass.
    """
    return field._exp0[field._log0[factors][:, None] + field._log0[row][None, :]]


def _extract(
    field: GaloisField, a, count: int | None, track: bool
) -> tuple[list[int], list[int], np.ndarray]:
    """Scan-order independent-row selection; the one elimination loop
    behind :func:`extract_independent_rows` and :func:`extract_and_invert`.

    Incremental elimination with the basis kept in *reduced* row echelon
    form: each basis row has a unit pivot that is zero in every other
    basis row.  A candidate then reduces in one shot -- candidate +=
    candidate[pivot_cols] @ basis -- instead of one pass per basis row,
    which matters at the paper's n_file ~ 1500 scale.

    With ``track`` every row carries ``target`` extra columns recording
    which combination of the selected rows it is (the ``[A | I]`` block of
    Gauss-Jordan, grown one row at a time).  Returns ``(selected row
    indices, their pivot columns, tracking block)``; stops at ``target``
    rows, the caller decides whether fewer is an error.
    """
    a = _as_matrix(field, a)
    rows, cols = a.shape
    target = cols if count is None else count
    if target > cols:
        raise LinAlgError(f"cannot extract {target} independent rows from {cols} columns")
    width = cols + target if track else cols
    basis = field.zeros((min(rows, cols), width))
    pivot_cols: list[int] = []
    selected: list[int] = []
    for index in range(rows):
        if len(selected) == target:
            break
        candidate = field.zeros(width)
        candidate[:cols] = a[index]
        if track:
            candidate[cols + len(selected)] = 1  # tracks "1 x this row"
        if selected:
            factors = candidate[pivot_cols]
            if np.any(factors):
                # One-shot reduction against the RREF basis.
                candidate = field.add(
                    candidate,
                    field.linear_combination(factors, basis[: len(selected)]),
                )
        front = candidate[:cols]
        nonzero = np.nonzero(front)[0]
        if nonzero.size == 0:
            continue
        pivot = int(nonzero[0])
        candidate = field.multiply(field.inverse_elements(front[pivot]), candidate)
        if selected:
            # Keep RREF: clear the new pivot column in the existing basis.
            column = basis[: len(selected), pivot]
            touched = np.nonzero(column)[0]
            if touched.size:
                basis[touched] = field.add(
                    basis[touched], _scaled_outer(field, column[touched], candidate)
                )
        basis[len(selected)] = candidate
        pivot_cols.append(pivot)
        selected.append(index)
    return selected, pivot_cols, basis[:, cols:]


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
