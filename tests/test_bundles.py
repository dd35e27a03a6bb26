"""Bundle construction, twisting, top Chern values, Segre coefficients."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multisecant.bundles import (
    ChernVector,
    as_chern_vector,
    complete_intersection_bundle,
    direct_sum,
    line_bundle,
    segre_coefficient,
    segre_series,
    tangent_bundle,
    top_chern_twisted,
    twist,
)
from multisecant.classpoly import TruncatedClassPoly
from multisecant.errors import AmbientMismatchError, HypothesisError
from multisecant.secants import multisecant_report
from multisecant.verify import _random_chern_vector


def split_bundle_chern(n, weights):
    # oracle: c(O(a_1) + ... + O(a_r)) = prod (1 + a_i H)
    out = TruncatedClassPoly.from_coeffs(n, [1])
    for a in weights:
        out = out * TruncatedClassPoly.from_coeffs(n, [1, a])
    return out


class TestConstructors:
    def test_line_bundle(self):
        assert line_bundle(4, 2).total_chern == TruncatedClassPoly.from_coeffs(4, [1, 2])
        assert line_bundle(3, 0).total_chern == TruncatedClassPoly.from_coeffs(3, [1])
        assert line_bundle(2, -1).total_chern == TruncatedClassPoly.from_coeffs(2, [1, -1])

    def test_direct_sum_squares(self):
        e = direct_sum(line_bundle(4, 2), line_bundle(4, 2))
        assert e.codim == 2
        assert e.total_chern == TruncatedClassPoly.from_coeffs(4, [1, 4, 4])

    def test_direct_sum_mixed(self):
        e = direct_sum(line_bundle(4, 1), line_bundle(4, 2))
        assert e.total_chern == TruncatedClassPoly.from_coeffs(4, [1, 3, 2])

    def test_trivial_summand_keeps_chern(self):
        e = complete_intersection_bundle(5, [2, 3])
        augmented = direct_sum(e, line_bundle(5, 0))
        assert augmented.codim == e.codim + 1
        assert augmented.total_chern == e.total_chern

    def test_dimension_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            direct_sum(line_bundle(3, 1), line_bundle(4, 1))

    def test_abstract_data_has_no_whitney_sum(self):
        abstract = ChernVector.make(4, [1, 2])
        for a, b in [(line_bundle(4, 1), abstract), (abstract, line_bundle(4, 1)), (abstract, abstract)]:
            with pytest.raises(HypothesisError):
                direct_sum(a, b)

    @pytest.mark.parametrize(
        "n, degrees",
        [
            (4, [3]),
            (4, [0]),
            (5, [2, 3]),
            (5, [-2, 3]),
            (6, [0, 0, 4]),
            (6, [-1, 2, -3, 5]),
            (8, [2, 2, 2, 2]),
            # r > n: classes above degree n are truncated away
            (2, [2, 3, 4]),
            (1, [1, -2, 3, 0]),
            (3, [-4, 0, 5, 7]),
        ],
    )
    def test_complete_intersection_matches_direct_sum_fold(self, n, degrees):
        folded = line_bundle(n, degrees[0])
        for d in degrees[1:]:
            folded = direct_sum(folded, line_bundle(n, d))
        e = complete_intersection_bundle(n, degrees)
        assert e == folded
        assert all(type(c) is int for c in e.total_chern.coeffs)
        # c_k is the k-th elementary symmetric function of the degrees, 0 past H^n
        elementary = [
            sum(math.prod(s) for s in itertools.combinations(degrees, k)) if k <= n else 0
            for k in range(len(degrees) + 1)
        ]
        assert e.c == tuple(elementary)

    def test_complete_intersection_needs_a_degree(self):
        with pytest.raises(ValueError, match="need at least one degree"):
            complete_intersection_bundle(4, [])

    def test_tangent_bundle(self):
        assert tangent_bundle(2).total_chern == TruncatedClassPoly.from_coeffs(2, [1, 3, 3])
        assert tangent_bundle(1).total_chern == TruncatedClassPoly.from_coeffs(1, [1, 2])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tangent_top_coefficient(self, n):
        assert tangent_bundle(n).total_chern.coeffs[n] == n + 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_euler_sequence(self, n):
        # total Chern of T P^n equals that of (n+1) copies of O(1)
        split = split_bundle_chern(n, [1] * (n + 1))
        assert tangent_bundle(n).total_chern == split


class TestTwist:
    def test_line_bundle_shift(self):
        assert twist(line_bundle(5, 3), -1) == line_bundle(5, 2)

    def test_identity_twist(self):
        e = complete_intersection_bundle(6, [2, 5])
        assert twist(e, 0) == e

    def test_twisted_square(self):
        e = complete_intersection_bundle(4, [2, 2])
        assert twist(e, -1).total_chern.coeffs[2] == 1

    @pytest.mark.parametrize(
        "e, c, degree, factors",
        [
            # abstract data keeps every class, even above degree n
            (ChernVector.make(2, [1, 2, 3, 4]), (1, 5, 10, 10), 10, (10, 4, 2)),
            # a split bundle stays in the ring: c_3 of the twist is truncated
            (complete_intersection_bundle(2, [1, 1, 1]), (1, 6, 12, 0), 0, (0, -7, -8)),
        ],
        ids=["abstract", "split"],
    )
    def test_rank_above_ambient_dimension(self, e, c, degree, factors):
        twisted = twist(e, 1)
        assert twisted.c == c and twisted.degree == degree
        assert twisted.abstract == e.abstract
        assert multisecant_report(twisted, 2).factors == factors

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.integers(-3, 3),
    )
    def test_against_split_oracle(self, n, weights, t):
        e = complete_intersection_bundle(n, weights)
        twisted = twist(e, t)
        assert twisted.total_chern == split_bundle_chern(n, [a + t for a in weights])

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_twist_composes(self, n, weights, s, t):
        e = complete_intersection_bundle(n, weights)
        assert twist(twist(e, s), t) == twist(e, s + t)

    @given(
        st.integers(2, 6),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.integers(-3, 3),
    )
    def test_twist_distributes_over_sum(self, n, w1, w2, t):
        a = complete_intersection_bundle(n, w1)
        b = complete_intersection_bundle(n, w2)
        assert twist(direct_sum(a, b), t) == direct_sum(twist(a, t), twist(b, t))

    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(st.integers(-6, 6), min_size=r, max_size=r)
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_twist_composes_on_abstract_data(self, tail, s, t):
        cv = ChernVector.make(12, [1] + tail)
        assert twist(twist(cv, s), t) == twist(cv, s + t)
        assert twist(cv, 0) == cv

    @given(st.integers(2, 8), st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    def test_whitney_sum_associative(self, n, weights):
        bundles = [line_bundle(n, a) for a in weights] + [tangent_bundle(n)]
        left = bundles[0]
        for b in bundles[1:]:
            left = direct_sum(left, b)
        right = bundles[-1]
        for b in reversed(bundles[:-1]):
            right = direct_sum(b, right)
        assert left == right


class TestTopChernTwisted:
    def test_square_pencil(self):
        e = complete_intersection_bundle(5, [2, 2])
        assert top_chern_twisted(e, -1) == 1

    def test_zero_factor(self):
        e = complete_intersection_bundle(5, [1, 2])
        assert top_chern_twisted(e, -1) == 0

    def test_chern_vector_direct_sum_rule(self):
        cv = ChernVector.make(6, [1, 4, 4])
        assert top_chern_twisted(cv, -2) == 4 - 8 + 4 == 0

    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(st.integers(-6, 6), min_size=r, max_size=r)
        ),
        st.integers(-4, 4),
    )
    def test_scalar_agrees_with_twisted_top_coefficient(self, tail, t):
        cv = ChernVector.make(10, [1] + tail)
        assert top_chern_twisted(cv, t) == twist(cv, t).c[cv.codim]

    @given(
        st.integers(4, 8),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4),
        st.integers(-4, 4),
    )
    def test_split_product_oracle(self, n, weights, t):
        # c_r(E(t)) = prod (a_i + t) for split bundles of rank <= n (in a
        # smaller ambient ring the top coefficient is truncated away)
        e = complete_intersection_bundle(n, weights)
        assert top_chern_twisted(e, t) == math.prod(a + t for a in weights)


class TestChernVector:
    def test_degree_defaults_to_top(self):
        cv = ChernVector.make(4, [1, 4, 4])
        assert cv.degree == 4 and cv.degree_consistent

    def test_inconsistent_degree_explicit_optin(self):
        # an explicit degree is kept as given, and the flag records the mismatch
        cv = ChernVector.make(4, [1, 4, 4], degree=5)
        assert cv.degree == 5 and not cv.degree_consistent
        assert ChernVector.make(4, [1, 4, 4], degree=4).degree_consistent

    @pytest.mark.parametrize(
        "c, degree",
        [
            ([1, 2.9, 4.2], None),
            ([1, Fraction(1, 2)], None),
            ([1, 2.0], None),
            ([1, 4, 4], 7.5),
            ([1, 4, 4], Fraction(4)),
        ],
        ids=["floats", "fraction", "integral-float", "float-degree", "integral-fraction-degree"],
    )
    def test_non_integer_data_is_rejected_not_truncated(self, c, degree):
        with pytest.raises(TypeError):
            ChernVector.make(4, c, degree)

    def test_sampled_integers_pass(self):
        cv = ChernVector.make(4, (1, -3, 10**30), degree=-(10**40))
        assert cv.c == (1, -3, 10**30) and cv.degree == -(10**40)
        rng = random.Random(0)
        for r in range(1, 6):
            cv = _random_chern_vector(rng, 2 * r, r, 9)
            assert all(type(x) is int for x in cv.c) and type(cv.degree) is int

    def test_leading_one_required(self):
        with pytest.raises(ValueError):
            ChernVector.make(4, [2, 4, 4])

    def test_as_chern_vector_roundtrip(self):
        e = complete_intersection_bundle(5, [2, 3])
        cv = as_chern_vector(e)
        assert cv.c == (1, 5, 6) and cv.degree == 6

    def test_as_chern_vector_needs_room(self):
        with pytest.raises(HypothesisError):
            as_chern_vector(complete_intersection_bundle(1, [2, 2]))


class TestSegre:
    def test_sigma_zero(self):
        cv = ChernVector.make(9, [1, 2, 7])
        assert segre_coefficient(cv, 0) == 1

    def test_worked_surface(self):
        cv = ChernVector.make(4, [1, 4, 4])
        assert segre_coefficient(cv, 1) == -1
        assert segre_coefficient(cv, 2) == -1

    def test_range_check(self):
        cv = ChernVector.make(4, [1, 4, 4])
        with pytest.raises(IndexError):
            segre_coefficient(cv, 5)

    @given(
        st.integers(1, 12),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    )
    def test_duality_with_polynomial_route(self, n, tail):
        # sigma_k must be the H^k coefficient of (1+H)^-(n+1) * c(N)
        cv = ChernVector.make(n, [1] + tail)
        series = segre_series(cv)
        for k in range(n + 1):
            assert segre_coefficient(cv, k) == series.coeffs[k]

    @given(st.integers(1, 10), st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_chern_times_segre_is_euler_inverse_unit(self, n, tail):
        # c(N) * (Segre series) recovers (1+H)^-(n+1) * c(N)^2 ... restated:
        # segre_series * (1+H)^(n+1) == c(N) exactly
        cv = ChernVector.make(n, [1] + tail)
        euler = TruncatedClassPoly.from_coeffs(n, [math.comb(n + 1, k) for k in range(n + 2)])
        chern_poly = TruncatedClassPoly.from_coeffs(n, cv.c)
        assert segre_series(cv) * euler == chern_poly
