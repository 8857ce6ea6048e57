"""GF(2^8) arithmetic: field axioms, tables, and polynomial helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.galois import DEFAULT_FIELD, GF256, PRIMITIVE_POLYNOMIALS_DEG8

ELEMENTS = st.integers(min_value=0, max_value=255)
NONZERO = st.integers(min_value=1, max_value=255)


@pytest.fixture(scope="module")
def gf() -> GF256:
    return GF256()


class TestConstruction:
    def test_default_polynomial(self, gf):
        assert gf.primitive_poly == 0x11D

    def test_rejects_non_degree8(self):
        with pytest.raises(ValueError):
            GF256(0xFF)
        with pytest.raises(ValueError):
            GF256(0x200)

    def test_rejects_reducible_polynomial(self):
        # x^8 + 1 = 0x101 is not primitive.
        with pytest.raises(ValueError):
            GF256(0x101)

    def test_accepts_exactly_the_listed_primitive_polynomials(self):
        # x^255 == 1 holds in every GF(256); e.g. AES's 0x11B is irreducible
        # but x has order 51 there, so its tables would multiply wrongly.
        accepted = []
        for poly in range(0x101, 0x200):
            try:
                GF256(poly)
            except ValueError:
                continue
            accepted.append(poly)
        assert accepted == sorted(PRIMITIVE_POLYNOMIALS_DEG8)

    @pytest.mark.parametrize("poly", PRIMITIVE_POLYNOMIALS_DEG8)
    def test_all_listed_polynomials_are_primitive(self, poly):
        field = GF256(poly)
        # The generator must have full order 255.
        seen = set()
        value = 1
        for _ in range(255):
            seen.add(value)
            value = field.multiply(value, 2)
        assert len(seen) == 255

    def test_exp_log_inverse_tables(self, gf):
        for a in range(1, 256):
            assert gf.exp(gf.log(a)) == a


class TestFieldAxioms:
    @given(a=ELEMENTS, b=ELEMENTS)
    def test_addition_is_commutative_and_self_inverse(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)
        assert GF256.add(GF256.add(a, b), b) == a

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_multiplication_commutative(self, a, b):
        gf = DEFAULT_FIELD
        assert gf.multiply(a, b) == gf.multiply(b, a)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    @settings(max_examples=200)
    def test_multiplication_associative(self, a, b, c):
        gf = DEFAULT_FIELD
        assert gf.multiply(gf.multiply(a, b), c) == gf.multiply(a, gf.multiply(b, c))

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    @settings(max_examples=200)
    def test_distributive_law(self, a, b, c):
        gf = DEFAULT_FIELD
        left = gf.multiply(a, GF256.add(b, c))
        right = GF256.add(gf.multiply(a, b), gf.multiply(a, c))
        assert left == right

    @given(a=NONZERO)
    def test_inverse_roundtrip(self, a):
        gf = DEFAULT_FIELD
        assert gf.multiply(a, gf.inverse(a)) == 1

    @given(a=ELEMENTS, b=NONZERO)
    def test_divide_is_multiply_by_inverse(self, a, b):
        gf = DEFAULT_FIELD
        assert gf.divide(a, b) == gf.multiply(a, gf.inverse(b))

    @given(a=ELEMENTS)
    def test_multiplicative_identity_and_zero(self, a):
        gf = DEFAULT_FIELD
        assert gf.multiply(a, 1) == a
        assert gf.multiply(a, 0) == 0

    def test_zero_division_raises(self, gf):
        with pytest.raises(ZeroDivisionError):
            gf.divide(5, 0)
        with pytest.raises(ZeroDivisionError):
            gf.inverse(0)
        with pytest.raises(ValueError):
            gf.log(0)

    @given(a=NONZERO, n=st.integers(min_value=-10, max_value=10))
    def test_power_matches_repeated_multiplication(self, a, n):
        gf = DEFAULT_FIELD
        expected = 1
        for _ in range(abs(n)):
            expected = gf.multiply(expected, a)
        if n < 0:
            expected = gf.inverse(expected)
        assert gf.power(a, n) == expected

    def test_power_of_zero(self, gf):
        assert gf.power(0, 0) == 1
        assert gf.power(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            gf.power(0, -1)


class TestVectorised:
    @given(st.lists(ELEMENTS, min_size=1, max_size=64), st.lists(ELEMENTS, min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_multiply_vec_matches_scalar(self, xs, ys):
        gf = DEFAULT_FIELD
        n = min(len(xs), len(ys))
        a = np.array(xs[:n], dtype=np.uint8)
        b = np.array(ys[:n], dtype=np.uint8)
        out = gf.multiply_vec(a, b)
        for i in range(n):
            assert int(out[i]) == gf.multiply(int(a[i]), int(b[i]))

    @given(st.lists(ELEMENTS, min_size=1, max_size=64), ELEMENTS)
    @settings(max_examples=50)
    def test_scale_vec_matches_scalar(self, xs, scalar):
        gf = DEFAULT_FIELD
        a = np.array(xs, dtype=np.uint8)
        out = gf.scale_vec(a, scalar)
        for i, v in enumerate(xs):
            assert int(out[i]) == gf.multiply(v, scalar)


POLY = st.lists(ELEMENTS, min_size=1, max_size=16)


class TestPolynomials:
    @given(p=POLY, q=POLY)
    @settings(max_examples=100)
    def test_poly_multiply_evaluates_consistently(self, p, q):
        gf = DEFAULT_FIELD
        product = gf.poly_multiply(p, q)
        for x in (0, 1, 2, 0x53, 0xFF):
            expected = gf.multiply(gf.poly_eval(p, x), gf.poly_eval(q, x))
            assert gf.poly_eval(product, x) == expected

    @given(p=POLY, q=POLY)
    @settings(max_examples=100)
    def test_poly_add_evaluates_consistently(self, p, q):
        gf = DEFAULT_FIELD
        total = gf.poly_add(p, q)
        for x in (0, 1, 2, 0x53):
            expected = GF256.add(gf.poly_eval(p, x), gf.poly_eval(q, x))
            assert gf.poly_eval(total, x) == expected

    @given(dividend=POLY, divisor=POLY)
    @settings(max_examples=100)
    def test_divmod_reconstructs_dividend(self, dividend, divisor):
        gf = DEFAULT_FIELD
        if all(c == 0 for c in divisor):
            with pytest.raises(ZeroDivisionError):
                gf.poly_divmod(dividend, divisor)
            return
        quotient, remainder = gf.poly_divmod(dividend, divisor)
        reconstructed = gf.poly_add(gf.poly_multiply(quotient, divisor), remainder)
        assert gf._trim(reconstructed) == gf._trim(list(dividend))

    def test_poly_eval_horner_known_value(self, gf):
        # p(x) = x^2 + 3x + 2 at x = 2 over GF(256): 4 ^ 6 ^ 2 = 0.
        assert gf.poly_eval([1, 3, 2], 2) == 4 ^ 6 ^ 2

    def test_derivative_drops_even_powers(self, gf):
        # d/dx (a x^3 + b x^2 + c x + d) = 3a x^2 + c -> over GF(2^m): a x^2 + c.
        assert gf.poly_derivative([5, 7, 9, 11]) == [5, 0, 9]

    def test_derivative_of_constant_is_zero(self, gf):
        assert gf.poly_derivative([42]) == [0]
