"""RL2xx fixture: idiomatic use of the batched kernels stays clean."""

import numpy as np

from repro.gf.kernels import matmul_sharded


def stays_in_domain(field, a, b):
    product = matmul_sharded(field, a, b)
    return field.add(product, a)  # field op, not integer +


def xor_is_field_addition(field, a, b):
    combined = matmul_sharded(field, a, b)
    return combined ^ a  # XOR *is* GF(2^q) addition; allowed


def explicit_dtype_is_fine(field, b):
    coefficients = np.array([[1, 2]], dtype=field.dtype)
    return matmul_sharded(field, coefficients, b)


def numpy_matmul_is_not_a_gf_kernel(x, y):
    # np.matmul must not be confused with the GF kernels: plain integer
    # arithmetic on its result is ordinary numpy code.
    return np.matmul(x, y) + 1
