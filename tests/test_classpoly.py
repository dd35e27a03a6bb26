"""Truncated H-polynomial ring: examples, ring axioms, truncation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multisecant import (
    AmbientMismatchError,
    ChernVector,
    NonUnitError,
    TruncatedClassPoly,
    segre_series,
)


def poly(n, *coeffs):
    return TruncatedClassPoly.from_coeffs(n, coeffs)


def naive_truncated_product(a, b, n):
    # independent convolution oracle on raw coefficient lists
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


class TestExamples:
    def test_add_cancellation(self):
        assert poly(2, 1, 1) + poly(2, 1, -1) == poly(2, 2)

    def test_add_identity(self):
        p = poly(2, 1, 3, 3)
        assert p + TruncatedClassPoly.zero(2) == p

    def test_add_monomials(self):
        h2 = TruncatedClassPoly.monomial(2, 2, 1)
        assert h2 + h2 == TruncatedClassPoly.monomial(2, 2, 2)

    def test_mul_truncates_on_p1(self):
        assert poly(1, 1, 1) * poly(1, 1, 1) == poly(1, 1, 2)

    def test_mul_binomial_coefficient(self):
        p = poly(4, 1, 1) ** 5
        assert p.coefficient(4) == math.comb(5, 4)
        assert p.coefficient(3) == math.comb(5, 3)

    def test_mul_identity(self):
        p = poly(2, 1, 4, 4)
        assert p * TruncatedClassPoly.one(2) == p

    def test_invert_geometric_series(self):
        assert poly(3, 1, 1).inverse() == poly(3, 1, -1, 1, -1)

    def test_invert_one(self):
        one = TruncatedClassPoly.one(5)
        assert one.inverse() == one

    @pytest.mark.parametrize("n", range(1, 9))
    def test_invert_euler_power(self, n):
        # (1+H)^-(n+1) has H^m coefficient (-1)^m * binom(n+m, m)
        inv = (poly(n, 1, 1) ** (n + 1)).inverse()
        for m in range(n + 1):
            assert inv.coefficient(m) == (-1) ** m * math.comb(n + m, m)

    def test_coefficient_access(self):
        p = poly(2, 1, 3, 3)
        assert p.coefficient(2) == 3
        assert TruncatedClassPoly.one(4).coefficient(0) == 1
        with pytest.raises(IndexError):
            p.coefficient(3)
        with pytest.raises(IndexError):
            p.coefficient(-1)

    def test_dimension_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            poly(2, 1) + poly(3, 1)
        with pytest.raises(AmbientMismatchError):
            poly(2, 1) * poly(3, 1)

    def test_no_float_ever_appears(self):
        # integral data stays int; the one forced division stays Fraction
        inv = poly(3, 2, 1).inverse()
        assert inv.coeffs == (
            Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)
        )
        segre = segre_series(ChernVector.make(6, [1, 4, 4]))
        assert segre.coeffs == (1, -3, 4, 0, -14, 42, -84)
        # == alone would accept floats: Fraction(1, 2) == 0.5
        assert all(type(c) is Fraction for c in inv.coeffs)
        assert all(type(c) is int for c in segre.coeffs)

    def test_invert_non_unit(self):
        with pytest.raises(NonUnitError):
            TruncatedClassPoly.zero(2).inverse()
        with pytest.raises(NonUnitError):
            TruncatedClassPoly.hyperplane(3).inverse()


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
        assert a * (b + c) == a * b + a * c

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(polys_of_dim(n), polys_of_dim(n))))
    def test_commutative(self, pair):
        a, b = pair
        assert a + b == b + a
        assert a * b == b * a

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(polys_of_dim(n), polys_of_dim(n))))
    def test_mul_matches_naive_convolution(self, pair):
        a, b = pair
        n = a.ambient_dim
        assert list((a * b).coeffs) == naive_truncated_product(a.coeffs, b.coeffs, n)

    @given(polys())
    def test_unit_inverse(self, a):
        if a.coeffs[0] == 0:
            with pytest.raises(NonUnitError):
                a.inverse()
        else:
            assert (a * a.inverse()).is_one()

    @given(st.integers(0, 5).flatmap(lambda n: polys_of_dim(n + 1).map(lambda p: (n, p))))
    def test_truncation_consistency(self, pair):
        # computing in P^(n+1) and dropping the top equals computing in P^n
        n, p = pair
        q = p * p
        assert q.restrict(n) == p.restrict(n) * p.restrict(n)


def test_str_rendering():
    assert str(poly(3, 1, -1, 1, -1)) == "1 - H + H^2 - H^3"
    assert str(TruncatedClassPoly.zero(2)) == "0"
    assert str(poly(2, 0, Fraction(1, 2))) == "1/2*H"
    assert str(poly(2, -2, 0, 3)) == "-2 + 3*H^2"
