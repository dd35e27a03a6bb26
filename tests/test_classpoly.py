"""Truncated H-polynomials: product, inverse, truncation, printing."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multisecant.bundles import ChernVector, segre_series
from multisecant.classpoly import TruncatedClassPoly
from multisecant.errors import AmbientMismatchError, NonUnitError


def poly(n, *coeffs):
    return TruncatedClassPoly.from_coeffs(n, coeffs)


def plus(a, b):
    # coefficientwise sum, to state the product's bilinearity
    return poly(a.ambient_dim, *(x + y for x, y in zip(a.coeffs, b.coeffs)))


def naive_truncated_product(a, b, n):
    # independent convolution oracle on raw coefficient lists
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


class TestExamples:
    def test_mul_truncates_on_p1(self):
        assert poly(1, 1, 1) * poly(1, 1, 1) == poly(1, 1, 2)

    def test_mul_binomial_coefficient(self):
        p = poly(4, 1, 1)
        for _ in range(4):
            p = p * poly(4, 1, 1)
        assert p.coeffs[4] == math.comb(5, 4)
        assert p.coeffs[3] == math.comb(5, 3)

    def test_mul_identity(self):
        p = poly(2, 1, 4, 4)
        assert p * poly(2, 1) == p

    def test_invert_geometric_series(self):
        assert poly(3, 1, 1).inverse() == poly(3, 1, -1, 1, -1)

    def test_invert_one(self):
        one = poly(5, 1)
        assert one.inverse() == one

    @pytest.mark.parametrize("n", range(1, 9))
    def test_invert_euler_power(self, n):
        # (1+H)^-(n+1) has H^m coefficient (-1)^m * binom(n+m, m)
        inv = poly(n, *(math.comb(n + 1, k) for k in range(n + 2))).inverse()
        for m in range(n + 1):
            assert inv.coeffs[m] == (-1) ** m * math.comb(n + m, m)

    def test_dimension_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            poly(2, 1) * poly(3, 1)

    def test_no_float_ever_appears(self):
        # integral data stays int: == alone would accept 4.0 for 4
        segre = segre_series(ChernVector.make(6, [1, 4, 4]))
        assert segre.coeffs == (1, -3, 4, 0, -14, 42, -84)
        assert all(type(c) is int for c in segre.coeffs)
        inv = poly(3, -1, 2).inverse()
        assert inv.coeffs == (-1, -2, -4, -8)
        assert all(type(c) is int for c in inv.coeffs)

    def test_invert_non_unit(self):
        # the units of Z[H]/H^(n+1) are the classes with constant term +-1
        for p in (poly(2), poly(3, 0, 1), poly(3, 2, 1), poly(2, -3)):
            with pytest.raises(NonUnitError, match=f"constant term {p.coeffs[0]} is not"):
                p.inverse()


rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def polys(max_dim=6):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda n: st.lists(rationals, min_size=n + 1, max_size=n + 1).map(
            lambda cs: TruncatedClassPoly.from_coeffs(n, cs)
        )
    )


def polys_of_dim(n):
    return st.lists(rationals, min_size=n + 1, max_size=n + 1).map(
        lambda cs: TruncatedClassPoly.from_coeffs(n, cs)
    )


class TestRingAxioms:
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(polys_of_dim(n), polys_of_dim(n), polys_of_dim(n))))
    def test_mul_associative_distributive(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert a * plus(b, c) == plus(a * b, a * c)

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(polys_of_dim(n), polys_of_dim(n))))
    def test_commutative(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(polys_of_dim(n), polys_of_dim(n))))
    def test_mul_matches_naive_convolution(self, pair):
        a, b = pair
        n = a.ambient_dim
        assert list((a * b).coeffs) == naive_truncated_product(a.coeffs, b.coeffs, n)

    @given(polys())
    def test_unit_inverse(self, a):
        if a.coeffs[0] not in (1, -1):
            with pytest.raises(NonUnitError):
                a.inverse()
        else:
            assert a * a.inverse() == poly(a.ambient_dim, 1)

    @given(st.integers(0, 5).flatmap(lambda n: polys_of_dim(n + 1).map(lambda p: (n, p))))
    def test_truncation_consistency(self, pair):
        # computing in P^(n+1) and dropping the top equals computing in P^n
        n, p = pair
        def restrict(x):
            return poly(n, *x.coeffs)

        assert restrict(p * p) == restrict(p) * restrict(p)


def test_str_rendering():
    assert str(poly(3, 1, -1, 1, -1)) == "1 - H + H^2 - H^3"
    assert str(poly(2)) == "0"
    assert str(poly(2, 0, Fraction(1, 2))) == "1/2*H"
    assert str(poly(2, -2, 0, 3)) == "-2 + 3*H^2"
