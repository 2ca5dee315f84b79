"""Galois-field substrate for random linear coding.

The paper (section 4.2) performs every coding operation in GF(2^q) with
q = 16, implementing multiplication and division through precomputed
log/exp tables ("3 lookups and 1 addition").  This package provides that
substrate:

- :mod:`repro.gf.field` -- the field itself, with vectorized numpy kernels.
- :mod:`repro.gf.kernels` -- the batched matmul kernel and its thread
  fan-out; its module docstring owns the kernel design.
- :mod:`repro.gf.linalg` -- linear algebra over the field (matrix product,
  inversion, rank, and the independent-row extraction used during
  reconstruction).
"""

from repro.gf import kernels
from repro.gf.field import GF, GaloisField
from repro.gf.linalg import (
    LinAlgError,
    extract_independent_rows,
    gf_matmul,
    gf_matvec,
    inverse,
    is_invertible,
    nullspace_vector,
    random_matrix,
    rank,
    rref,
    solve,
)

__all__ = [
    "GF",
    "GaloisField",
    "LinAlgError",
    "extract_independent_rows",
    "gf_matmul",
    "gf_matvec",
    "inverse",
    "is_invertible",
    "kernels",
    "nullspace_vector",
    "random_matrix",
    "rank",
    "rref",
    "solve",
]
