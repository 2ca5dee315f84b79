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

**One elimination, blocked.**  Every function here that eliminates runs
:func:`_extract`, Gauss-Jordan without row swaps that selects in scan
order each row independent of those before it.  The selection, the
selected rows' reduced echelon form and the ``[A | I]`` half taking them
there are unique and GF arithmetic is exact, so no result depends on the
order of the updates.  Stacks of ``_BLOCKED_MIN_ROWS`` (192) rows or
more are visited ``_BLOCK_ROWS`` (32) rows at a time: the block's pivots
are cleared within it by the rank-1 steps of :func:`_clear_pivot`, then
from every other live row by one :func:`repro.gf.kernels.matmul` product
of about ``m - 32`` rows -- on the kernel's row-XOR path from the
paper's 320 x 319 reconstruct stack on.  Smaller stacks are one block.
Single-thread CPU time of :func:`extract_and_invert`, random GF(2^16)
stacks, 2 vCPUs ("before": unblocked, scalar pivot normalisation)::

    stack (m x n)   blocked / one block   this module / before
    176 x 175       1.03-1.08             0.73-0.80 (one block)
    192 x 191       0.84-0.94             0.70-0.77
    256 x 255       0.66-0.75             0.59-0.61
    320 x 319       0.52-0.56             0.45-0.47   paper, RC(32,32,40,1)
    544 x 508       0.39-0.48             0.35-0.40   RC(40,8)
    992 x 527       0.32-0.34             0.31-0.32   RC(32,30)

Blocks of 24-48 rows measured alike, 16 rows 5-10 % slower.
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


#: Rows per block, and the stack height from which blocks pay (module docstring).
_BLOCK_ROWS = 32
_BLOCKED_MIN_ROWS = 192


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
    log_row = np.take(field._log0, row)
    # Times the pivot's inverse, as GaloisField._xor_outer does one row.
    inverse_log = -int(log_row[pivot - lo]) % (field.order - 1)
    np.take(field._exp0[inverse_log:], log_row, out=row, mode="clip")
    np.take(field._log0, row, out=log_row)
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


def _extract(
    field: GaloisField, a, count: int | None, track: bool
) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """Scan-order independent-row selection: the one elimination loop.

    A row whose front is still non-zero after the eliminations so far is
    selected, and its pivot column (its first non-zero) cleared from every
    other row: within its block by :func:`_clear_pivot`, then by the
    block's product (module docstring).  Selected rows move up to the top
    of ``work`` in selection order, so the rows a product updates are two
    slices: those selected before the block, and the unvisited tail.

    With ``track`` the work matrix is ``[A | T]``: ``T`` has one column
    per selected row, recording which combination of the selected rows
    each row has become, grown one column at a time.  Each step touches
    only the live column window: leading columns that are all pivots
    already are zero in the pivot row, and so are the tracking columns of
    rows not yet selected.  Returns ``(selected row indices, their pivot
    columns, the reduced selected rows, their tracking block)``, in
    selection order: ``count`` rows, or raises; all of them when ``None``.
    """
    a = _as_matrix(field, a)
    rows, cols = a.shape
    target = cols if count is None else count
    if target > cols:
        raise LinAlgError(f"cannot extract {target} independent rows from {cols} columns")
    work = field.zeros((rows, cols + target if track else cols))
    work[:, :cols] = a
    block = _BLOCK_ROWS if rows >= _BLOCKED_MIN_ROWS else max(1, rows)
    is_pivot = np.zeros(cols + 1, dtype=bool)
    lo = 0
    pivot_cols: list[int] = []
    selected: list[int] = []
    for start in range(0, rows, block):
        stop = min(rows, start + block)
        done, front = len(selected), lo
        for index in range(start, stop):
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
            _clear_pivot(field, work[start:stop], index - start, pivot, lo, hi)
            pivot_cols.append(pivot)
            selected.append(index)
            is_pivot[pivot] = True
            while is_pivot[lo]:  # the extra entry stops this at ``cols``
                lo += 1
        found = len(selected)
        work[done:found] = work[selected[done:]]
        tail = stop if found < target else rows
        if done < found and (done or tail < rows):
            hi = cols + found if track else cols  # the block is zero left of front
            pivots = pivot_cols[done:]
            factors = np.concatenate([work[:done, pivots], work[tail:, pivots]])
            update = kernels.matmul(field, factors, work[done:found, front:hi])
            work[:done, front:hi] ^= update[:done]
            work[tail:, front:hi] ^= update[done:]
        if found == target:
            break
    found = len(selected)
    if count is not None and found < count:
        raise LinAlgError(f"matrix has rank {found}, cannot extract {count} independent rows")
    return selected, pivot_cols, work[:found, :cols], work[:found, cols:]


def extract_independent_rows(field: GaloisField, a, count: int | None = None) -> list[int]:
    """Indices of a maximal (or ``count``-sized) set of independent rows.

    This is the reconstruction-time operation of section 3.2: from the
    ``(k * n_piece, n_file)`` coefficient matrix, pick ``n_file`` rows
    forming an invertible submatrix, scanning rows in order so that the
    earliest usable rows win (the decoder then downloads only the
    fragments matching the selected rows).

    Raises :class:`LinAlgError` if ``count`` rows cannot be found.
    """
    return _extract(field, a, count, track=False)[0]


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
    a = _as_matrix(field, a)
    count = a.shape[1] if count is None else count
    selected, pivot_cols, _, tracking = _extract(field, a, count, track=True)
    # T @ A_selected is the RREF in selection order: sorted by pivot it is
    # the identity when rank == cols == target, so the sorted T is the inverse.
    return selected, tracking[np.argsort(pivot_cols)]


def rref(field: GaloisField, a) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns): the
    reduced selected rows sorted by pivot column, zero rows below them."""
    a = _as_matrix(field, a)
    _, pivot_cols, reduced, _ = _extract(field, a, None, track=False)
    out = field.zeros(a.shape)
    out[: len(pivot_cols)] = reduced[np.argsort(pivot_cols)]
    return out, sorted(pivot_cols)


def rank(field: GaloisField, a) -> int:
    """Rank of the matrix over the field: the number of rows selected."""
    return len(_extract(field, a, None, track=False)[0])


def is_invertible(field: GaloisField, a) -> bool:
    a = _as_matrix(field, a)
    return a.shape[0] == a.shape[1] and rank(field, a) == a.shape[0]


def inverse(field: GaloisField, a) -> np.ndarray:
    """Inverse of a square matrix, the paper's 5n^3-operation primitive
    (section 4.2, item 2): :func:`extract_and_invert` on all of it.
    Raises :class:`LinAlgError` when the matrix is singular."""
    a = _as_matrix(field, a)
    if a.shape[0] != a.shape[1]:
        raise LinAlgError(f"cannot invert non-square matrix of shape {a.shape}")
    return extract_and_invert(field, a)[1]


def solve(field: GaloisField, a, b) -> np.ndarray:
    """Solve ``A x = b`` for square invertible A, as ``inverse(A) @ b``;
    ``b`` may be a vector or a matrix of stacked right-hand sides."""
    a = _as_matrix(field, a)
    b_arr = field.asarray(b)
    vector = b_arr.ndim == 1
    rhs = b_arr[:, None] if vector else b_arr
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch for solve: {a.shape} and {b_arr.shape}")
    solution = gf_matmul(field, inverse(field, a), rhs)
    return solution[:, 0] if vector else solution


def nullspace_vector(field: GaloisField, a, rng: np.random.Generator | None = None) -> np.ndarray:
    """A non-zero vector x with ``A x = 0``, or raise if A has full column rank.

    Used by tests to construct adversarial dependent-piece scenarios.
    """
    _, pivots, reduced, _ = _extract(field, a, None, track=False)
    free_cols = np.setdiff1d(np.arange(reduced.shape[1]), pivots)
    if not free_cols.size:
        raise LinAlgError("matrix has full column rank; nullspace is trivial")
    rng = rng if rng is not None else np.random.default_rng()
    free = free_cols[int(rng.integers(0, len(free_cols)))]
    x = field.zeros(reduced.shape[1])
    x[free] = 1
    x[pivots] = reduced[:, free]
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
