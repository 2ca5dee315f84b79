"""Binary-extension Galois fields GF(2^q) with log/exp table arithmetic.

The paper stores data as sequences of *elements* of GF(2^q) and chooses
q = 16 so that every element is an unsigned short (2 bytes).  Section 4.2
describes the arithmetic implementation this module reproduces:

- addition and subtraction are a XOR of the two elements;
- multiplication and division are carried out in log space:
  ``a * b = exp(log a + log b)``, with the log and exp tables for every
  field value precomputed once ("256 KB of memory for q = 16") so that a
  product costs 3 table lookups and 1 integer addition.

All kernels are vectorized with numpy so whole fragments (vectors of
elements) are combined in single calls; this is what makes a pure-Python
reproduction of the paper's C implementation feasible.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

__all__ = ["GaloisField", "GF"]

#: Elements per add -> take -> xor step of every table-lookup loop (the
#: kernels' row chunks, elimination's rank-1 updates, fragment
#: combinations): index, product and accumulator chunks -- 256 KB at
#: q = 16 -- stay inside L2 while a whole operand streams through.
_CHUNK = 1 << 15

# Primitive polynomials for GF(2^q), expressed as integers that include the
# x^q term.  These are the conventional choices used by production erasure
# coding libraries (e.g. Jerasure, zfec), so encoded data is interoperable.
PRIMITIVE_POLYNOMIALS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


def _build_tables(q: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the log and (doubled) exp tables for GF(2^q).

    Returns ``(log, exp2)`` where ``log`` has length 2^q (``log[0]`` is a
    sentinel 0 and must never be used unmasked -- the fused tables below
    remove that hazard for the hot kernels) and ``exp2`` has length
    ``2 * (2^q - 1)`` so that ``exp2[log[a] + log[b]]`` needs no modulo
    reduction -- the sum of two logs is at most ``2 * (2^q - 2)``.
    """
    order = 1 << q
    mul_group = order - 1
    exp = np.zeros(mul_group, dtype=np.uint32)
    log = np.zeros(order, dtype=np.uint32)
    value = 1
    for power in range(mul_group):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & order:
            value ^= poly
    if value != 1:
        raise ValueError(f"polynomial {poly:#x} is not primitive for q={q}")
    exp2 = np.concatenate([exp, exp]).astype(np.uint32)
    return log, exp2


def _build_fused_tables(
    log: np.ndarray, exp2: np.ndarray, q: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, int]:
    """Zero-extended log/exp tables: products need no zero-masking pass.

    ``log0`` equals ``log`` except that ``log0[0]`` is a sentinel pushed
    *past* every index two real logs can sum to, and ``exp0`` extends the
    doubled exp table with zeros up to twice that sentinel.  Then

        exp0[log0[a] + log0[b]]

    is the field product for **all** operands including zero: any index
    involving the sentinel lands in the zero region of ``exp0``, so the
    classic "``log[0]`` must never be used unmasked" hazard cannot occur
    by construction (the Jerasure-style table layout).  Costs about
    ``3 * 2^q`` extra table bytes -- ~768 KB for the paper's q = 16.
    """
    mul_group = (1 << q) - 1
    # Real logs are in [0, mul_group - 1]; their pairwise sums reach
    # 2 * mul_group - 2, so the first index that cannot be produced by
    # two non-zero operands is 2 * mul_group - 1 < sentinel.
    sentinel = 2 * mul_group + 1
    log0 = log.astype(np.int32)
    log0[0] = sentinel
    exp0 = np.zeros(2 * sentinel + 1, dtype=dtype)
    exp0[: 2 * mul_group] = exp2[: 2 * mul_group].astype(dtype)
    return log0, exp0, sentinel


class GaloisField:
    """The finite field GF(2^q) with vectorized element arithmetic.

    Elements are represented as numpy integer arrays (``dtype`` is
    ``uint8`` for q <= 8 and ``uint16`` for q <= 16).  All operations
    accept scalars or arrays and broadcast like ordinary numpy ufuncs.

    Instances are cheap to share and thread-safe after construction; use
    the :func:`GF` factory to obtain the cached instance for a given q.
    """

    def __init__(self, q: int, polynomial: int | None = None):
        if not 1 <= q <= 16:
            raise ValueError(f"q must be in [1, 16], got {q}")
        self.q = q
        self.order = 1 << q
        self.polynomial = polynomial if polynomial is not None else PRIMITIVE_POLYNOMIALS[q]
        self._log, self._exp2 = _build_tables(q, self.polynomial)
        self.dtype = np.dtype(np.uint8 if q <= 8 else np.uint16)
        #: Number of bytes used to store one element (the paper's q=16 gives 2).
        self.element_size = self.dtype.itemsize
        # Fused tables used by the batched kernels (repro.gf.kernels) and
        # the element-wise product: zero operands are correct without a
        # masking pass because the log-of-zero sentinel maps into the
        # zero-extended region of the exp table.
        self._log0, self._exp0, self._log_sentinel = _build_fused_tables(
            self._log, self._exp2, q, self.dtype
        )

    # ------------------------------------------------------------------
    # representation and validation
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaloisField(q={self.q}, polynomial={self.polynomial:#x})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GaloisField)
            and other.q == self.q
            and other.polynomial == self.polynomial
        )

    def __hash__(self) -> int:
        return hash((self.q, self.polynomial))

    def asarray(self, values) -> np.ndarray:
        """Coerce ``values`` to a field-element array, validating range."""
        arr = np.asarray(values)
        if arr.dtype.kind not in "ui":
            raise TypeError(f"field elements must be integers, got dtype {arr.dtype}")
        if arr.size and (int(arr.max(initial=0)) >= self.order or int(arr.min(initial=0)) < 0):
            raise ValueError(
                f"values out of range for GF(2^{self.q}) "
                f"(dtype {arr.dtype}, min {int(arr.min())}, max {int(arr.max())}); "
                f"coercing would silently wrap them into wrong field elements"
            )
        return arr.astype(self.dtype, copy=False)

    def _coerce(self, values) -> np.ndarray:
        """Kernel-boundary coercion with dtype discipline.

        Arrays already carrying the field dtype pass through untouched
        (the hot path -- no scan).  Anything else (Python ints, int64
        arrays, ...) is routed through :meth:`asarray`, which rejects
        non-integer dtypes and out-of-range values with a clear error
        instead of letting ``np.asarray(..., dtype=self.dtype)`` wrap
        them into well-formed garbage elements.
        """
        arr = np.asarray(values)
        if arr.dtype == self.dtype:
            return arr
        return self.asarray(arr)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=self.dtype)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=self.dtype)

    def random(self, shape, rng: np.random.Generator | None = None) -> np.ndarray:
        """Uniformly random field elements (including zero)."""
        rng = rng if rng is not None else np.random.default_rng()
        return rng.integers(0, self.order, size=shape, dtype=np.uint32).astype(self.dtype)

    def random_nonzero(self, shape, rng: np.random.Generator | None = None) -> np.ndarray:
        """Uniformly random elements of the multiplicative group (no zeros)."""
        rng = rng if rng is not None else np.random.default_rng()
        return rng.integers(1, self.order, size=shape, dtype=np.uint32).astype(self.dtype)

    # ------------------------------------------------------------------
    # arithmetic kernels
    # ------------------------------------------------------------------

    def add(self, a, b) -> np.ndarray:
        """Field addition: XOR of the binary representations (paper 4.2)."""
        return np.bitwise_xor(self._coerce(a), self._coerce(b))

    # In characteristic 2 subtraction and addition coincide.
    subtract = add

    def multiply(self, a, b) -> np.ndarray:
        """Field product in log space: one fused ``exp0[log0 a + log0 b]``.

        The zero-extended tables make this exact for zero operands with
        no masking pass -- the paper's "3 table lookups and 1 integer
        addition", now for every input.  The element lookups are
        bounds-checked, so an out-of-range element raises.
        """
        log0 = self._log0
        idx = np.take(log0, self._coerce(a)) + np.take(log0, self._coerce(b))
        out = np.take(self._exp0, idx, mode="clip")
        return out[()] if out.ndim == 0 else out

    def _xor_outer(
        self, acc: np.ndarray, log_col: np.ndarray, log_row: np.ndarray,
        idx: np.ndarray, prod: np.ndarray,
    ) -> None:
        """``acc ^= col[:, None] * row[None, :]``, given the operands' logs.

        The one lookup step behind the kernels and elimination: ``acc`` is
        a (rows, width) accumulator view, ``idx`` (int32) and ``prod``
        (field dtype) caller-owned contiguous scratch of that shape.
        ``mode="clip"`` skips the bounds check -- and numpy's output
        buffering -- which is sound here and only here: the index is a
        sum of two logs, in range by the sentinel construction, never an
        element.  A single row needs no sum at all: ``exp0[log:]`` is an
        offset view whose zero tail still absorbs a sentinel on either side.
        """
        if len(log_col) == 1:
            np.take(self._exp0[log_col[0] :], log_row, out=prod[0], mode="clip")
        else:
            np.add(log_col[:, None], log_row, out=idx)
            np.take(self._exp0, idx, out=prod, mode="clip")
        np.bitwise_xor(acc, prod, out=acc)

    def multiply_direct(self, a, b) -> np.ndarray:
        """Field product via shift-and-add in the polynomial basis.

        The textbook carryless multiplication with modular reduction,
        vectorized over numpy arrays.  Much slower than the log-table
        kernel -- it exists as an *independent implementation* so tests
        can cross-validate the tables against first principles.
        """
        a = self._coerce(a).astype(np.uint32)
        b = self._coerce(b).astype(np.uint32)
        a, b = np.broadcast_arrays(a.copy(), b.copy())
        a = a.copy()
        b = b.copy()
        result = np.zeros(a.shape, dtype=np.uint32)
        overflow = np.uint32(self.order)
        modulus = np.uint32(self.polynomial & (self.order - 1))
        for _ in range(self.q):
            result ^= np.where(b & 1, a, 0).astype(np.uint32)
            b >>= 1
            a <<= 1
            carried = (a & overflow) != 0
            a = np.where(carried, a ^ (overflow | modulus), a).astype(np.uint32)
        return result.astype(self.dtype)

    def divide(self, a, b) -> np.ndarray:
        """Field quotient ``a / b``; raises ZeroDivisionError if any b == 0."""
        a = self._coerce(a)
        b = self._coerce(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in Galois field")
        mul_group = self.order - 1
        idx = self._log[a].astype(np.int64) - self._log[b].astype(np.int64) + mul_group
        # ``a == 0`` broadcasts against the quotient like the operands do.
        out = np.where(a == 0, 0, self._exp2[idx]).astype(self.dtype)
        return out[()] if out.ndim == 0 else out

    def inverse_elements(self, a) -> np.ndarray:
        """Multiplicative inverse of every element of ``a``."""
        return self.divide(self.ones(np.shape(a)), a)

    def power(self, a, n: int) -> np.ndarray:
        """Raise elements to the integer power ``n`` (n may be negative)."""
        a = self._coerce(a)
        mul_group = self.order - 1
        if np.any(a == 0):
            if n < 0:
                raise ZeroDivisionError("negative power of zero in Galois field")
            if n == 0:
                out = self.ones(a.shape)
            else:
                out = self.zeros(a.shape)
                nz = a != 0
                idx = (self._log[a[nz]].astype(np.int64) * n) % mul_group
                out[nz] = self._exp2[idx].astype(self.dtype)
            return out[()] if out.ndim == 0 else out
        idx = (self._log[a].astype(np.int64) * n) % mul_group
        return self._exp2[idx].astype(self.dtype)

    def exp(self, n) -> np.ndarray:
        """The element ``g^n`` for the field generator g (vectorized)."""
        n = np.asarray(n, dtype=np.int64) % (self.order - 1)
        return self._exp2[n].astype(self.dtype)

    def log(self, a) -> np.ndarray:
        """Discrete log base the generator; undefined (raises) for zero."""
        a = self._coerce(a)
        if np.any(a == 0):
            raise ValueError("log of zero is undefined in a Galois field")
        return self._log[a].astype(np.int64)

    # ------------------------------------------------------------------
    # fragment-level kernels (the paper's "linear combinations")
    # ------------------------------------------------------------------

    def linear_combination(self, coefficients, vectors) -> np.ndarray:
        """Combine ``n`` fragments with ``n`` coefficients.

        ``coefficients`` has shape (n,), ``vectors`` shape (n, l); the
        result has shape (l,).  This is the 5nl-operation primitive of
        the paper's section 4.2 (n*l multiplications + n*l additions).
        """
        coefficients = self._coerce(coefficients)
        vectors = self._coerce(vectors)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a (n, l) matrix of elements")
        if coefficients.shape != (vectors.shape[0],):
            raise ValueError(
                f"need {vectors.shape[0]} coefficients, got shape {coefficients.shape}"
            )
        out = self.zeros(vectors.shape[1])
        log_c = np.take(self._log0, coefficients)[:, None]
        # Four steps' worth per call: helpers run this side by side on
        # daemon threads, and every numpy call is a GIL hand-off.
        width = max(1, 4 * _CHUNK // max(1, len(log_c)))
        for start in range(0, out.size, width):
            # Unvalidated elements: the default, bounds-checked mode.
            idx = np.take(self._log0, vectors[:, start : start + width])
            idx += log_c
            products = np.take(self._exp0, idx, mode="clip")
            np.bitwise_xor.reduce(products, axis=0, out=out[start : start + width])
        return out

    # ------------------------------------------------------------------
    # byte <-> element packing
    # ------------------------------------------------------------------

    def bytes_to_elements(self, data: bytes | bytearray | memoryview) -> np.ndarray:
        """Interpret raw bytes as little-endian field elements.

        Only supported for byte-aligned fields (q = 8 or 16), which are the
        ones used for actual data coding; narrow fields exist for tests.

        On a little-endian host the result is a **view** of ``data``, not
        a copy: read-only when ``data`` is ``bytes`` (or a read-only
        ``memoryview``), and keeping ``data`` alive while referenced.
        Callers that need to mutate the elements copy them first.
        """
        if self.q not in (8, 16):
            raise ValueError("byte packing requires q == 8 or q == 16")
        if len(data) % self.element_size:
            raise ValueError(
                f"data length {len(data)} is not a multiple of the "
                f"element size {self.element_size}"
            )
        return np.frombuffer(data, dtype=self.dtype.newbyteorder("<")).astype(
            self.dtype, copy=False
        )

    def elements_to_bytes(self, elements: np.ndarray) -> bytes:
        """Serialize field elements back to little-endian bytes."""
        if self.q not in (8, 16):
            raise ValueError("byte packing requires q == 8 or q == 16")
        return np.ascontiguousarray(
            np.asarray(elements, dtype=self.dtype).astype(self.dtype.newbyteorder("<"))
        ).tobytes()

    def elements_to_buffer(self, elements: np.ndarray) -> memoryview | bytes:
        """Little-endian byte view of field elements, zero-copy when possible.

        On a little-endian host a C-contiguous element array is returned
        as a :class:`memoryview` that **aliases the array's memory** --
        callers must not mutate the array while the buffer is in flight
        (the zero-copy RGNP framing path writes these views straight to
        the socket).  Otherwise a byte copy is made, exactly matching
        :meth:`elements_to_bytes`.
        """
        if self.q not in (8, 16):
            raise ValueError("byte packing requires q == 8 or q == 16")
        arr = self._coerce(elements)
        le = arr.astype(self.dtype.newbyteorder("<"), copy=False)
        if le.flags["C_CONTIGUOUS"]:
            return memoryview(le).cast("B")
        return le.tobytes()


_FIELD_LOCK = threading.Lock()


@functools.lru_cache(maxsize=None)
def _cached_field(q: int) -> GaloisField:
    return GaloisField(q)


def GF(q: int) -> GaloisField:
    """Return the shared GF(2^q) instance (tables built once per process)."""
    with _FIELD_LOCK:
        return _cached_field(q)

