"""RL2xx fixture: the batched kernel entry points leak like any GF API."""

import numpy as np

from repro.gf.kernels import matmul_sharded


def integer_arithmetic_on_sharded_product(field, a, b):
    combined = matmul_sharded(field, a, b, workers=2)
    return combined * 3  # line 10: integer multiply on field elements


def dtypeless_zeros_into_sharded(field, a):
    return matmul_sharded(field, a, np.zeros((2, 8)))  # line 14
