"""Unit and property tests for GF(2^q) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.field import GF, GaloisField, PRIMITIVE_POLYNOMIALS


class TestConstruction:
    def test_factory_returns_cached_instance(self):
        assert GF(8) is GF(8)

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            GaloisField(0)
        with pytest.raises(ValueError):
            GaloisField(17)

    def test_non_primitive_polynomial_rejected(self):
        # x^4 + x^2 + 1 = 0x15 is reducible over GF(2).
        with pytest.raises(ValueError):
            GaloisField(4, polynomial=0x15)

    def test_element_size_matches_paper(self):
        assert GF(16).element_size == 2  # "an element size of 2 bytes"
        assert GF(8).element_size == 1

    def test_equality_and_hash(self):
        assert GF(8) == GaloisField(8)
        assert GF(8) != GF(16)
        assert hash(GF(8)) == hash(GaloisField(8))

    def test_repr_mentions_polynomial(self):
        assert hex(PRIMITIVE_POLYNOMIALS[8]) in repr(GF(8))

    def test_all_polynomials_are_primitive(self):
        # Construction itself validates primitivity for every q.
        for q in PRIMITIVE_POLYNOMIALS:
            GaloisField(q)


class TestScalarArithmetic:
    def test_addition_is_xor(self, gf256):
        assert gf256.add(0b1010, 0b0110) == 0b1100

    def test_add_self_is_zero(self, any_field):
        values = any_field.random(100, np.random.default_rng(1))
        assert np.all(any_field.add(values, values) == 0)

    def test_multiply_by_zero(self, any_field):
        assert any_field.multiply(0, 5) == 0
        assert any_field.multiply(5, 0) == 0
        assert any_field.multiply(0, 0) == 0

    def test_multiply_by_one_is_identity(self, any_field):
        values = np.arange(any_field.order, dtype=any_field.dtype)
        assert np.all(any_field.multiply(values, 1) == values)

    def test_division_roundtrip(self, any_field):
        rng = np.random.default_rng(2)
        a = any_field.random(200, rng)
        b = any_field.random_nonzero(200, rng)
        assert np.all(any_field.divide(any_field.multiply(a, b), b) == a)

    def test_division_by_zero_raises(self, gf256):
        with pytest.raises(ZeroDivisionError):
            gf256.divide(3, 0)
        with pytest.raises(ZeroDivisionError):
            gf256.divide(np.array([1, 2], dtype=np.uint8), np.array([1, 0], dtype=np.uint8))

    @pytest.mark.parametrize(
        "a, b",
        [
            (0, 5),
            (6, 3),
            (0, [1, 2, 3]),
            ([0, 2], 3),
            ([0, 2], [[1], [3]]),
            ([[0], [2]], [1, 3]),
        ],
    )
    def test_divide_broadcasts_like_multiply_by_inverse(self, gf256, a, b):
        # The zero mask must follow the broadcast: a zero numerator zeroes
        # its own column of the quotient, not a row picked by position.
        got = gf256.divide(a, b)
        expected = gf256.multiply(a, gf256.inverse_elements(b))
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).dtype == gf256.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, x: f.power(x, 3),
            lambda f, x: f.power(x, 0),
            lambda f, x: f.multiply(x, 7),
            lambda f, x: f.multiply(7, x),
            lambda f, x: f.divide(x, 7),
            lambda f, x: f.inverse_elements(x + 1),  # zero has no inverse
        ],
        ids=["power", "power0", "multiply_left", "multiply_right", "divide", "inverse"],
    )
    @pytest.mark.parametrize("x", [0, 2])
    def test_scalar_operands_give_numpy_scalars(self, gf256, op, x):
        # Zero and non-zero operands take different branches; both must
        # unwrap to a scalar of the field dtype, never a 0-d array.
        got = op(gf256, x)
        assert isinstance(got, np.generic)
        assert got.dtype == gf256.dtype

    def test_inverse_elements(self, any_field):
        values = np.arange(1, any_field.order, dtype=any_field.dtype)
        inverses = any_field.inverse_elements(values)
        assert np.all(any_field.multiply(values, inverses) == 1)

    def test_inverse_of_zero_raises(self, gf256):
        with pytest.raises(ZeroDivisionError):
            gf256.inverse_elements(np.array([0], dtype=np.uint8))

    def test_power_matches_repeated_multiplication(self, gf16):
        for base in range(1, gf16.order):
            accumulator = gf16.dtype.type(1)
            for exponent in range(5):
                assert gf16.power(base, exponent) == accumulator
                accumulator = gf16.multiply(accumulator, base)

    def test_power_zero_of_zero_is_one(self, gf256):
        assert gf256.power(np.array([0], dtype=np.uint8), 0) == 1

    def test_power_negative(self, gf256):
        values = np.arange(1, 256, dtype=np.uint8)
        assert np.all(
            gf256.multiply(gf256.power(values, -1), values) == 1
        )

    def test_negative_power_of_zero_raises(self, gf256):
        with pytest.raises(ZeroDivisionError):
            gf256.power(np.array([0], dtype=np.uint8), -1)

    def test_exp_log_roundtrip(self, any_field):
        values = np.arange(1, any_field.order, dtype=any_field.dtype)
        assert np.all(any_field.exp(any_field.log(values)) == values)

    def test_log_zero_raises(self, gf256):
        with pytest.raises(ValueError):
            gf256.log(0)

    def test_multiplicative_group_is_cyclic(self, gf16):
        powers = {int(gf16.exp(n)) for n in range(gf16.order - 1)}
        assert powers == set(range(1, gf16.order))


class TestFieldAxiomsExhaustive:
    """Complete verification on GF(2^4) -- 16^3 triples is cheap."""

    def test_multiplication_associative_and_commutative(self, gf16):
        values = np.arange(16, dtype=np.uint8)
        a, b = np.meshgrid(values, values)
        ab = gf16.multiply(a, b)
        assert np.all(ab == gf16.multiply(b, a))
        for c in range(16):
            assert np.all(
                gf16.multiply(ab, c) == gf16.multiply(a, gf16.multiply(b, c))
            )

    def test_distributivity(self, gf16):
        values = np.arange(16, dtype=np.uint8)
        a, b = np.meshgrid(values, values)
        for c in range(16):
            left = gf16.multiply(c, gf16.add(a, b))
            right = gf16.add(gf16.multiply(c, a), gf16.multiply(c, b))
            assert np.all(left == right)


class TestPropertyBased:
    @given(st.integers(0, 65535), st.integers(0, 65535), st.integers(0, 65535))
    @settings(max_examples=200, deadline=None)
    def test_gf65536_associativity(self, a, b, c):
        field = GF(16)
        assert field.multiply(field.multiply(a, b), c) == field.multiply(
            a, field.multiply(b, c)
        )

    @given(st.integers(0, 65535), st.integers(0, 65535))
    @settings(max_examples=200, deadline=None)
    def test_gf65536_commutativity(self, a, b):
        field = GF(16)
        assert field.multiply(a, b) == field.multiply(b, a)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_gf256_distributivity(self, a, b, c):
        field = GF(8)
        left = field.multiply(a, field.add(b, c))
        right = field.add(field.multiply(a, b), field.multiply(a, c))
        assert left == right

    @given(st.integers(1, 65535))
    @settings(max_examples=200, deadline=None)
    def test_gf65536_inverse(self, a):
        field = GF(16)
        inverse = field.inverse_elements(np.array([a], dtype=np.uint16))[0]
        assert field.multiply(a, inverse) == 1


class TestVectorKernels:
    def test_linear_combination_matches_manual(self, gf256):
        rng = np.random.default_rng(3)
        coefficients = gf256.random(4, rng)
        vectors = gf256.random((4, 32), rng)
        expected = gf256.zeros(32)
        for coefficient, vector in zip(coefficients, vectors):
            expected = gf256.add(expected, gf256.multiply(coefficient, vector))
        assert np.all(gf256.linear_combination(coefficients, vectors) == expected)

    def test_linear_combination_shape_validation(self, gf256):
        with pytest.raises(ValueError):
            gf256.linear_combination(gf256.zeros(3), gf256.zeros((4, 8)))
        with pytest.raises(ValueError):
            gf256.linear_combination(gf256.zeros(3), gf256.zeros(8))

    def test_single_vector_combination(self, gf65536):
        vectors = gf65536.asarray(np.array([[7, 8, 9]], dtype=np.uint16))
        out = gf65536.linear_combination(np.array([1], dtype=np.uint16), vectors)
        assert np.all(out == vectors[0])


class TestPacking:
    def test_bytes_roundtrip_gf16bit(self, gf65536):
        data = bytes(range(256)) * 4
        elements = gf65536.bytes_to_elements(data)
        assert elements.dtype == np.uint16
        assert len(elements) == len(data) // 2
        assert gf65536.elements_to_bytes(elements) == data

    def test_bytes_roundtrip_gf256(self, gf256):
        data = b"hello world!"
        assert gf256.elements_to_bytes(gf256.bytes_to_elements(data)) == data

    def test_unaligned_length_rejected(self, gf65536):
        with pytest.raises(ValueError):
            gf65536.bytes_to_elements(b"abc")

    def test_narrow_field_packing_rejected(self, gf16):
        with pytest.raises(ValueError):
            gf16.bytes_to_elements(b"ab")
        with pytest.raises(ValueError):
            gf16.elements_to_bytes(np.zeros(2, dtype=np.uint8))

    def test_little_endian_layout(self, gf65536):
        elements = gf65536.bytes_to_elements(b"\x01\x02")
        assert int(elements[0]) == 0x0201


class TestValidationHelpers:
    def test_asarray_range_check(self, gf16):
        with pytest.raises(ValueError):
            gf16.asarray(np.array([16], dtype=np.uint8))

    def test_asarray_type_check(self, gf16):
        with pytest.raises(TypeError):
            gf16.asarray(np.array([0.5]))

    def test_zeros_ones_eye(self, gf256):
        assert np.all(gf256.zeros(3) == 0)
        assert np.all(gf256.ones(3) == 1)
        identity = gf256.eye(3)
        assert np.all(np.diag(identity) == 1)
        assert identity.dtype == gf256.dtype

    def test_random_nonzero_has_no_zeros(self, any_field):
        values = any_field.random_nonzero(1000, np.random.default_rng(6))
        assert np.all(values != 0)
        assert np.all(values < any_field.order)

    def test_random_covers_field(self, gf16):
        values = gf16.random(2000, np.random.default_rng(7))
        assert set(np.unique(values)) == set(range(16))


class TestCrossValidation:
    """The log-table kernel against the first-principles polynomial-basis
    multiplier: two independent implementations must agree everywhere."""

    def test_exhaustive_agreement_gf16(self, gf16):
        values = np.arange(16, dtype=np.uint8)
        a, b = np.meshgrid(values, values)
        assert np.all(gf16.multiply(a, b) == gf16.multiply_direct(a, b))

    def test_exhaustive_agreement_gf256(self, gf256):
        values = np.arange(256, dtype=np.uint8)
        a, b = np.meshgrid(values, values)
        assert np.all(gf256.multiply(a, b) == gf256.multiply_direct(a, b))

    def test_random_agreement_gf65536(self, gf65536):
        rng = np.random.default_rng(99)
        a = gf65536.random(5000, rng)
        b = gf65536.random(5000, rng)
        assert np.all(gf65536.multiply(a, b) == gf65536.multiply_direct(a, b))

    @given(st.integers(0, 65535), st.integers(0, 65535))
    @settings(max_examples=300, deadline=None)
    def test_property_agreement_gf65536(self, a, b):
        field = GF(16)
        assert field.multiply(a, b) == field.multiply_direct(
            np.uint16(a), np.uint16(b)
        )

    def test_direct_known_values(self, gf256):
        # x * x = x^2 in GF(256): 2 * 2 = 4.
        assert gf256.multiply_direct(np.uint8(2), np.uint8(2)) == 4
        # Reduction case: x^7 * x = x^8 = x^4 + x^3 + x^2 + 1 (poly 0x11D).
        assert gf256.multiply_direct(np.uint8(0x80), np.uint8(2)) == 0x1D
