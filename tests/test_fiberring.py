"""The blow-up fiber-power ring: relations, recursion oracle, integration."""

import ast
import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multisecant import fiberring, verify
from multisecant.bundles import (
    ChernVector,
    _chern_data,
    complete_intersection_bundle,
    line_bundle,
    top_chern_twisted,
)
from multisecant.errors import AmbientMismatchError, HypothesisError
from multisecant.fiberring import (
    closed_form_top_chern,
    recursion_top_chern,
    secant_count_via_ring,
)
from multisecant.secants import multisecant_report
from oracles import OracleRing, coefficient, integrate


class TestRelations:
    def test_wu_chern_square(self):
        ring = OracleRing(5, 2)
        d1, l = ring.exceptional(1), ring.l_class()
        assert d1 * d1 == -(l * d1)

    def test_hyperplane_kills_own_exceptional(self):
        ring = OracleRing(5, 2)
        assert not (ring.hyperplane_class(1) * ring.exceptional(1)).terms

    def test_l_truncation(self):
        ring = OracleRing(4, 1)
        l = ring.l_class()
        assert (l**3).terms
        assert not (l**4).terms

    def test_hyperplane_square_expansion(self):
        ring = OracleRing(6, 3)
        h2 = ring.hyperplane_class(2) ** 2
        expected = ring.l_class() * ring.exceptional(2) + ring.l_class() ** 2
        assert h2 == expected

    @pytest.mark.parametrize("r", range(1, 7))
    def test_hyperplane_power_collapse(self, r):
        # H_i^r == L^(r-1) * H_i
        ring = OracleRing(9, 2)
        h = ring.hyperplane_class(1)
        assert h**r == ring.l_class() ** (r - 1) * h
        assert h**r == ring.hyperplane_power(1, r)

    def test_fundamental_class_powers(self):
        # H^n integrates to 1 and D^n to (-1)^(n-1) on the blow-up itself
        for n in range(2, 7):
            ring = OracleRing(n, 1)
            assert integrate(ring.hyperplane_class(1) ** n) == 1
            assert integrate(ring.exceptional(1) ** n) == (-1) ** (n - 1)

    def test_diagonal_symmetry(self):
        ring = OracleRing(5, 3)
        assert ring.diagonal_class(1, 2) == ring.diagonal_class(2, 1)

    def test_diagonal_vs_hyperplane(self):
        ring = OracleRing(5, 3)
        lhs = ring.hyperplane_class(2) - ring.diagonal_class(1, 2)
        assert lhs == -ring.exceptional(1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_diagonal_is_the_sum_of_its_generators(self, n):
        # diagonal_class writes its terms directly; L = 0 when n = 1
        ring = OracleRing(n, 3)
        for i, j in itertools.permutations(range(1, 4), 2):
            expected = ring.exceptional(i) + ring.exceptional(j) + ring.l_class()
            assert ring.diagonal_class(i, j) == expected

    def test_index_bounds(self):
        ring = OracleRing(5, 2)
        with pytest.raises(IndexError):
            ring.exceptional(3)
        with pytest.raises(IndexError):
            ring.diagonal_class(1, 1)

    def test_negative_hyperplane_power_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            OracleRing(4, 2).hyperplane_power(1, -1)

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_coefficient_index_bounds(self, index):
        x = OracleRing(4, 2).hyperplane_class(1)
        with pytest.raises(IndexError, match=f"factor index {index} out of range 1..2"):
            coefficient(x, 0, (index,))
        assert coefficient(x, 0, (1,)) == 1

    @pytest.mark.parametrize(
        "l_exponent, indices, message",
        [
            (0, (1, 1), "factor index 1 repeated"),
            (-3, (1,), "L-exponent -3 out of range 0..3"),
            (9, (), "L-exponent 9 out of range 0..3"),
        ],
        ids=["repeated-index", "negative-l-exponent", "l-exponent-above-n-1"],
    )
    def test_coefficient_rejects_non_normal_monomials(self, l_exponent, indices, message):
        # D_1 * D_1 = -L * D_1 is not a normal-form monomial, and L^e
        # exists only for 0 <= e <= n-1
        d1 = OracleRing(4, 2).exceptional(1)
        with pytest.raises(IndexError, match=message):
            coefficient(d1, l_exponent, indices)
        assert coefficient(d1, 0, (1,)) == 1
        assert coefficient(d1, 3, ()) == 0

    def test_shape_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            OracleRing(5, 2).one() * OracleRing(5, 3).one()
        with pytest.raises(AmbientMismatchError):
            OracleRing(4, 2).one() * OracleRing(5, 2).one()


def elements(ring, rng, degree, terms=4, bound=5):
    """A homogeneous element of ``degree``: up to ``terms`` monomials
    L^(degree-|S|) * D_S built from the generators, with coefficients in
    -bound..bound; a draw whose L-exponent falls outside 0..n-1 is skipped."""
    out = ring.zero(degree)
    for _ in range(terms):
        mask_indices = [
            i + 1 for i in range(ring.factors) if rng.random() < 0.5
        ]
        e = degree - len(mask_indices)
        if not 0 <= e < ring.ambient_dim:
            continue
        mono = ring.one()
        for _ in range(e):
            mono = mono * ring.l_class()
        for i in mask_indices:
            mono = mono * ring.exceptional(i)
        out = out + ring.scalar(rng.randint(-bound, bound)) * mono
    return out


class TestRingAxioms:
    """The axioms on homogeneous elements: b and c share a degree, so that
    b + c is defined, and a sum of two classes of different degrees is
    refused."""

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_commutative_associative(self, n, f, seed):
        rng = random.Random(seed)
        ring = OracleRing(n, f)
        top = n - 1 + f
        a = elements(ring, rng, rng.randint(0, top))
        degree = rng.randint(0, top - a.degree)
        b, c = elements(ring, rng, degree), elements(ring, rng, degree)
        assert (a * b).degree == a.degree + b.degree
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_integrate_is_linear(self, n, f, seed):
        rng = random.Random(seed)
        ring = OracleRing(n, f)
        degree = rng.choice([n - 1 + f, rng.randint(0, n - 1 + f)])
        a, b = elements(ring, rng, degree), elements(ring, rng, degree)
        assert integrate(a + b) == integrate(a) + integrate(b)
        assert integrate(ring.scalar(7) * a) == 7 * integrate(a)

    def test_sum_needs_equal_degrees(self):
        ring = OracleRing(4, 2)
        with pytest.raises(ValueError, match="degrees differ: 1 vs 2"):
            ring.l_class() + ring.l_class() ** 2
        assert (ring.zero(2) + ring.l_class() ** 2).degree == 2

    def test_integrate_normalization(self):
        ring = OracleRing(5, 3)
        assert integrate(ring.top_monomial()) == 1
        # anything short of the top monomial integrates to zero
        assert integrate(ring.l_class() ** 4) == 0
        assert integrate(ring.exceptional(1) * ring.exceptional(2) * ring.exceptional(3)) == 0

    @pytest.mark.parametrize("n,f", [(2, 1), (3, 2), (4, 3)])
    def test_integrate_vanishes_off_the_top_monomial(self, n, f):
        ring = OracleRing(n, f)
        top = (n - 1, (1 << f) - 1)
        for e in range(n):
            for mask in range(1 << f):
                mono = ring.one()
                for _ in range(e):
                    mono = mono * ring.l_class()
                for i in range(f):
                    if mask >> i & 1:
                        mono = mono * ring.exceptional(i + 1)
                expected = 1 if (e, mask) == top else 0
                assert integrate(mono) == expected

    def test_equality_across_coefficient_types(self):
        ring = OracleRing(4, 2)
        a = ring.scalar(3) * ring.hyperplane_class(1)
        b = ring.scalar(Fraction(3)) * ring.hyperplane_class(1)
        assert a == b


class TestRecursion:
    def test_line_bundle_two_factor(self):
        # O(d), one completed stage: d(d-1) * H_1 H_2
        for d in (0, 1, 2, 3, 5):
            e = line_bundle(6, d)
            ring = OracleRing(6, 2)
            expected = (
                ring.scalar(d * (d - 1)) * ring.hyperplane_class(1) * ring.hyperplane_class(2)
            )
            assert recursion_top_chern(e, 1) == expected

    def test_rank_two_matches_twisted_product(self):
        e = complete_intersection_bundle(5, [2, 3])
        ring = OracleRing(5, 2)
        scalar = 6 * 2  # c_2(E) * c_2(E(-1)) = 6 * (2-1)(3-1)
        expected = (
            ring.scalar(scalar) * ring.hyperplane_power(1, 2) * ring.hyperplane_power(2, 2)
        )
        assert recursion_top_chern(e, 1) == expected
        assert closed_form_top_chern(e, 1) == expected

    def test_trivial_bundle_dies(self):
        e = line_bundle(4, 0)
        for k in range(3):
            assert not recursion_top_chern(e, k).terms

    def test_base_case(self):
        cv = ChernVector.make(6, [1, 2, 5])
        ring = OracleRing(6, 1)
        expected = ring.scalar(5) * ring.hyperplane_power(1, 2)
        assert recursion_top_chern(cv, 0) == expected
        assert closed_form_top_chern(cv, 0) == expected

    @pytest.mark.parametrize("k", [-1, -2])
    @pytest.mark.parametrize(
        "entry", [recursion_top_chern, closed_form_top_chern, secant_count_via_ring]
    )
    def test_negative_k_rejected(self, entry, k):
        with pytest.raises(ValueError):
            entry(complete_intersection_bundle(3, [2, 2]), k)

    @given(
        st.integers(3, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_recursion_equals_closed_form(self, n, r, k, tail):
        cv = ChernVector.make(n, [1] + tail[:r])
        assert recursion_top_chern(cv, k) == closed_form_top_chern(cv, k)

    def test_symmetry_in_completed_factors(self):
        # permuting the first k factors fixes the closed form's normal form
        cv = ChernVector.make(5, [1, 2, 3])
        k = 2
        base = closed_form_top_chern(cv, k)
        for perm in itertools.permutations(range(1, k + 1)):
            mapping = {old: new for old, new in zip(range(1, k + 1), perm)}
            mapping[k + 1] = k + 1
            permuted = {}
            for mask, c in base.terms.items():
                new_mask = 0
                for i in range(1, k + 2):
                    if mask >> (i - 1) & 1:
                        new_mask |= 1 << (mapping[i] - 1)
                permuted[new_mask] = c
            assert permuted == dict(base.terms)


class TestClosedForm:
    """``closed_form_top_chern`` writes prod_i c_r(E(-i)) * prod_i H_i^r in
    normal form; the product itself, built with ``OracleRing``, is the
    oracle.  The class has a term L^((k+1)r-s) * D_S for each subset S of
    size s with (k+1)r - s < n, all with the scalar as coefficient."""

    @staticmethod
    def check(cv, k) -> int:
        n, r = cv.ambient_dim, cv.codim
        ring = OracleRing(n, k + 1)
        scalar = math.prod(top_chern_twisted(cv, -i) for i in range(k + 1))
        product = ring.scalar(scalar)
        for i in range(1, k + 2):
            product = product * ring.hyperplane_power(i, r)
        closed = closed_form_top_chern(cv, k)
        assert closed == product
        count = sum(math.comb(k + 1, s) for s in range(k + 2) if (k + 1) * r - s < n)
        assert len(closed.terms) == (count if scalar else 0)
        assert set(closed.terms.values()) <= {scalar}
        return scalar

    def test_every_oracle_grid_cell(self):
        rng = random.Random(18)
        grid = verify.oracle_grid()
        nonzero = 0
        for n, r, k in grid:
            cv = ChernVector.make(n, [1] + [rng.randint(-5, 5) for _ in range(r)])
            nonzero += self.check(cv, k) != 0
        assert nonzero > len(grid) // 2

    @pytest.mark.parametrize(
        "n, c, k",
        [
            (1, [1, 3], 0),  # L = 0: only L^0 * D_1 survives
            (1, [1, 7], 3),  # ... and no term at all once k > 0
            (1, [1, 2, 5], 1),  # r > n
            (2, [1, 4], 1),  # n = (k+1)r
            (4, [1, 2, 7], 1),  # n = (k+1)r, r = 2
            (5, [1, -1, 4], 2),  # (k+1)r = 6 > n
            (3, [1, 1, 1, 2], 3),  # (k+1)r - (k+1) = 8 >= n: every term vanishes
        ],
    )
    def test_truncating_shapes(self, n, c, k):
        cv = ChernVector.make(n, c)
        assert n <= (k + 1) * cv.codim
        assert self.check(cv, k) != 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "cv", [ChernVector.make(6, [1, 3, 2]), line_bundle(5, 1)], ids=["abstract", "O(1)"]
    )
    def test_vanishing_factor(self, cv, k):
        # c_r(E(-1)) = 0: for [1, 3, 2] it is 1 - 3 + 2, for O(1) it is 1 - 1
        assert top_chern_twisted(cv, -1) == 0
        assert self.check(cv, k) == 0

    def test_multiplies_no_elements(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("the closed form called __mul__")

        monkeypatch.setattr(fiberring.FiberRingElement, "__mul__", refuse)
        assert closed_form_top_chern(ChernVector.make(5, [1, 2, 3]), 2).terms

    def test_oracle_ring_subclasses_nothing_from_the_package(self):
        assert OracleRing.__mro__ == (OracleRing, object)


class TestAgainstGroebnerOracle:
    """Products checked against sympy reduction modulo the defining ideal.

    The generators D_i^2 + L*D_i and L^n have coprime leading monomials
    under lex with every D_i above L, so they already form a Groebner
    basis and sympy's reduced() computes the same normal form by a
    completely independent route.
    """

    @staticmethod
    def to_sympy(x, symbols):
        import sympy

        L, ds = symbols
        total = sympy.Integer(0)
        for mask, c in x.terms.items():
            mono = L ** (x.degree - mask.bit_count())
            for i, d in enumerate(ds):
                if mask >> i & 1:
                    mono *= d
            total += sympy.Rational(c) * mono
        return sympy.expand(total)

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_product_matches_ideal_reduction(self, n, f, seed):
        import sympy

        rng = random.Random(seed)
        ring = OracleRing(n, f)
        a, b = (elements(ring, rng, rng.randint(0, n - 1 + f), terms=3) for _ in range(2))

        L = sympy.Symbol("L")
        ds = sympy.symbols(f"D1:{f + 1}") if f > 1 else (sympy.Symbol("D1"),)
        gens = (*ds, L)
        ideal = [d**2 + L * d for d in ds] + [L**n]
        product = self.to_sympy(a, (L, ds)) * self.to_sympy(b, (L, ds))
        _, remainder = sympy.reduced(sympy.expand(product), ideal, gens, order="lex")
        assert remainder == self.to_sympy(a * b, (L, ds))


class TestSecantCounts:
    def test_chord_count_of_quartic_curve(self):
        e = complete_intersection_bundle(3, [2, 2])
        assert secant_count_via_ring(e, 1) == 2

    def test_point_pairs_on_cubic_divisor(self):
        assert secant_count_via_ring(line_bundle(1, 3), 1) == 3

    def test_zero_when_twist_factor_dies(self):
        e = complete_intersection_bundle(7, [2, 2])
        assert secant_count_via_ring(e, 2) == 0

    def test_dimension_balance_enforced(self):
        with pytest.raises(HypothesisError):
            secant_count_via_ring(complete_intersection_bundle(3, [2, 2]), 3)

    @given(
        st.integers(3, 8),
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_cross_module_agreement(self, n, r, k, tail):
        cv = ChernVector.make(n, [1] + tail[:r])
        if n + k >= (k + 1) * r:
            assert secant_count_via_ring(cv, k) == multisecant_report(cv, k).value

    def test_integration_example_by_hand(self):
        # 4 * H_1^2 H_2^2 on n=3 reduces to 4 * L^2 D_1 D_2
        e = complete_intersection_bundle(3, [2, 2])
        top = closed_form_top_chern(e, 1)
        assert integrate(top) == 4
        assert Fraction(integrate(top), 2) == secant_count_via_ring(e, 1)


def test_routes_agree_on_a_box():
    """Ring == scalar at every point of a box, which proves the identities
    for every n and every integer c when r <= 3 and k <= 4.

    Fix n, r and k and take c_1..c_r as variables, with c_0 = 1.  The base
    class c_r H_1^r has degree 1 in them, and each of the k later stages
    multiplies by sum_i c_(r-i) H_t^(r-i) N^i, which is affine in them, so
    every coefficient of the recursion's class has total degree at most
    k+1.  The closed form is the product of the k+1 affine factors
    c_r(E(-i)) times a class free of c, and the ring count is one
    coefficient of the recursion's class over (k+1)!.  So each difference
    asserted below is a polynomial of degree at most k+1 in each c_i.  One
    that vanishes on a grid of k+2 values per variable is zero (N. Alon,
    "Combinatorial Nullstellensatz", 1999, Lemma 2.1).

    n enters only through L^n = 0.  An L-exponent never falls, so the
    class at n is the untruncated class less its terms of L-exponent n or
    more.  The class has degree (k+1)r, so every n above (k+1)r gives the
    terms of n = (k+1)r + 1, and inside the balance n + k >= (k+1)r the
    count reads the coefficient of L^((k+1)(r-1)) D_1...D_(k+1), which
    every such n keeps.  So n = 1..(k+1)r+1 covers every n.

    The box proves the ring arithmetic, not the packing: ``_width`` and
    the field layout grow with the size of the c_i, which the sampled
    tests reach up to 10^30.
    """
    for r in range(1, 4):
        for k in range(5):
            grid = range(-((k + 2) // 2), (k + 3) // 2)  # k + 2 consecutive integers
            for n in range(1, (k + 1) * r + 2):
                for c in itertools.product(grid, repeat=r):
                    e = _chern_data(n, (1, *c), True)
                    assert recursion_top_chern(e, k) == closed_form_top_chern(e, k), (n, c, k)
                    if n + k >= (k + 1) * r:
                        assert secant_count_via_ring(e, k) == multisecant_report(e, k).value


class TestPrunedCount:
    """The ring count runs the stages on L^excess from the start; it must
    equal its printed definition, the full class times L^excess."""

    @pytest.mark.parametrize(
        "n,c,k",
        [
            (3, [1, 4, 4], 1),  # excess 0
            (5, [1, 2, 3, 4], 1),  # excess 0, r = 3
            (6, [1, 3, 5], 3),  # (k+1)r = 8 > n: L^n = 0 cuts the full class
            (4, [1, -2, 7], 2),  # excess 0 with (k+1)r = 6 > n
            (8, [1, 2, 3, 5], 2),  # (k+1)r = 9 > n, r = 3
            (9, [1, 3, 5], 4),  # (k+1)r = 10 > n, excess 3
            (8, [1, 0, 5], 3),  # interior c_1 = 0: the Horner skip runs
            (9, [1, 2, 0, 5], 2),  # interior c_2 = 0, r = 3
            (12, [1, 0, 0, 6], 3),  # two interior zeros
        ],
    )
    def test_matches_printed_definition(self, n, c, k):
        cv = ChernVector.make(n, c)
        r = cv.codim
        excess = n + k - (k + 1) * r
        full = recursion_top_chern(cv, k)
        l_power = OracleRing(n, k + 1).l_class() ** excess
        expected = Fraction(integrate(full * l_power), factorial(k + 1))
        assert secant_count_via_ring(cv, k) == expected
        assert expected == multisecant_report(cv, k).value

    @pytest.mark.parametrize(
        "n,c,k", [(6, [1, 3, 5], 3), (8, [1, 2, 3, 5], 2), (9, [1, 3, 5], 4)]
    )
    def test_truncation_cases_cut_terms(self, n, c, k):
        # in the (k+1)r > n cases above, L^excess * full really loses terms
        cv = ChernVector.make(n, c)
        excess = n + k - (k + 1) * cv.codim
        full = recursion_top_chern(cv, k)
        pruned = full * OracleRing(n, k + 1).l_class() ** excess
        assert 0 < len(pruned.terms) < len(full.terms)

    def test_seeded_sweep(self):
        rng = random.Random(5)
        checked = 0
        while checked < 60:
            n, r, k = rng.randint(1, 9), rng.randint(1, 3), rng.randint(0, 4)
            excess = n + k - (k + 1) * r
            if excess < 0:
                continue
            cv = ChernVector.make(n, [1] + [rng.choice([0, rng.randint(-6, 6)]) for _ in range(r)])
            l_power = OracleRing(n, k + 1).l_class() ** excess
            full = integrate(recursion_top_chern(cv, k) * l_power)
            assert secant_count_via_ring(cv, k) == Fraction(full, factorial(k + 1))
            checked += 1

    @pytest.mark.parametrize(
        "n,c,k", [(6, [1, 3, 5], 3), (8, [1, 0, 5], 2), (7, [1, 2, 3, 5], 2)]
    )
    def test_integer_data_gives_integer_classes(self, n, c, k):
        # == alone accepts Fraction(3) for 3, so check the type itself
        cv = ChernVector.make(n, c)
        for cls in (recursion_top_chern(cv, k), closed_form_top_chern(cv, k)):
            assert cls.terms
            assert all(type(v) is int for v in cls.terms.values())
            assert type(integrate(cls)) is int
            mask, value = next(iter(cls.terms.items()))
            e = cls.degree - mask.bit_count()
            indices = tuple(i + 1 for i in range(k + 1) if mask >> i & 1)
            assert type(coefficient(cls, e, indices)) is int
            assert coefficient(cls, e, indices) == value
        # the one division, by (k+1)!, is exact rational
        assert type(secant_count_via_ring(cv, k)) is Fraction


def pack(x, width):
    """A list indexed by D-mask as one int of fields of ``width`` bits."""
    return sum(v << (width * s) for s, v in enumerate(x))


def unpack(x, size, width):
    """The ``size`` signed fields of a packed int, read one at a time."""
    half = 1 << (width - 1)
    x += pack([half] * size, width)
    return [(x >> (width * s) & ((1 << width) - 1)) - half for s in range(size)]


class TestFormKernel:
    """``_step``, the recursion's only arithmetic, against ``__mul__``.

    Classes are random and homogeneous, given as lists indexed by D-mask
    with a degree and packed into fields by the test's own ``pack``.  At
    stage t a step takes y over D_1..D_t, as its halves without and with
    D_t, and acc over D_1..D_(t-1), and returns y * N_t + acc * c H_t^m
    with N_t = -sum_(j<t) Delta_(j,t), for m = 1..n+1.  The step
    truncates nothing, so its result is compared with L^n = 0 applied.
    Elements are rebuilt from the generators and the factors built from
    them, so the comparison does not rely on the kernel's mask encoding.
    """

    @staticmethod
    def element(ring, x, d):
        out = ring.zero(d)
        for s, c in enumerate(x):
            if not c:
                continue
            mono = ring.l_class() ** (d - s.bit_count())
            for i in range(ring.factors):
                if s >> i & 1:
                    mono = mono * ring.exceptional(i + 1)
            out = out + ring.scalar(c) * mono
        return out

    @staticmethod
    def homogeneous(rng, n, f, d):
        """Coefficients in -9..9, zeros included, on every mask S below
        2^f with 0 <= d - |S| < n that the draw keeps; 0 elsewhere."""
        return [
            rng.choice([0, rng.randint(-9, 9)])
            if 0 <= d - s.bit_count() < n and rng.random() < 0.7
            else 0
            for s in range(1 << f)
        ]

    def test_matches_general_product(self):
        rng = random.Random(11)
        seen = dict.fromkeys(
            ["mask contains t", "zero half", "top L-exponent", "empty factor", "c = 0",
             "n = 1, t > 1", "truncated", "negative field"],
            0,
        )
        for _ in range(120):
            n, t = rng.randint(1, 8), rng.randint(1, 6)
            width = rng.choice([16, 24, 64])  # every field below stays under 2^10
            ring = OracleRing(n, t)
            half = 1 << (t - 1)
            bias = pack([1 << (width - 1)] * half, width)
            n_t = ring.zero(1)
            for j in range(1, t):
                n_t = n_t - ring.diagonal_class(j, t)
            seen["n = 1, t > 1"] += n == 1 and t > 1
            for m in range(1, n + 2):
                d = rng.randint(0, n + t - 2)  # the degree of acc
                acc = self.homogeneous(rng, n, t - 1, d)
                y = self.homogeneous(rng, n, t, d + m - 1)
                if rng.random() < 0.25:
                    y[half:] = [0] * half
                c = rng.choice([0, rng.randint(-9, 9)])
                p, q = fiberring._step(
                    pack(y[:half], width), pack(y[half:], width), pack(acc, width),
                    c, t - 1, width, bias,
                )
                out = unpack(p + (q << (width * half)), 2 * half, width)
                product = [v if d + m - s.bit_count() < n else 0 for s, v in enumerate(out)]
                factor = ring.scalar(c) * ring.hyperplane_class(t) ** m
                expected = self.element(ring, y, d + m - 1) * n_t + self.element(ring, acc, d) * factor
                assert self.element(ring, product, d + m) == expected
                # the rebuilt element would hide an L^n term, as L^n = 0 there
                assert all(not v or 0 <= d + m - s.bit_count() < n for s, v in enumerate(product))
                seen["mask contains t"] += any(y[half:])
                seen["zero half"] += not any(y[half:])
                seen["top L-exponent"] += any(
                    v and deg - s.bit_count() == n - 1
                    for x, deg in ((y, d + m - 1), (acc, d))
                    for s, v in enumerate(x)
                )
                seen["empty factor"] += not factor.terms
                seen["c = 0"] += c == 0
                seen["truncated"] += product != out
                seen["negative field"] += min(out) < 0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("size", [1 << b for b in range(13)])
    def test_layout_covers_each_pair_once(self, size):
        # for each bit j, the mask selects exactly the fields whose index
        # lacks j, and shifted by 2^j fields it lands on exactly those with
        # j, so the masked shift-adds of U cover each pair (S, S | j) once
        bits = size.bit_length() - 1
        for width in (8, 16, 40, 72):
            ones = (1 << width) - 1
            js = []
            for j, keep in fiberring._masks(bits, width):
                js.append(j)
                without = [s for s in range(size) if not s >> j & 1]
                assert keep == sum(ones << (width * s) for s in without)
                assert keep << (width << j) == sum(ones << (width * (s | 1 << j)) for s in without)
            assert js == list(range(bits - 1, -1, -1))

    def test_oracle_workload_shape(self):
        # the smallest ring of the benchmark's oracle cases: 2^9 monomials
        n, k = 30, 8
        cv = ChernVector.make(n, [1, -7, 5])
        assert all(top_chern_twisted(cv, -i) for i in range(k + 1))
        rec = recursion_top_chern(cv, k)
        assert rec == closed_form_top_chern(cv, k)
        assert len(rec.terms) == 512
        assert secant_count_via_ring(cv, k) == multisecant_report(cv, k).value


class TestWidth:
    """``_width`` against every field the recursion holds.

    A plain-list replay of the stages, with nothing truncated before the
    end as in the kernel, records each acc, each step's base and both
    halves, dead fields included.  Every field must satisfy
    |x| < 2^(W-2), the bound ``_width`` states, and the replay's last
    class, with L^n = 0 applied, must equal ``recursion_top_chern``.  The
    replay also runs as the bound's majorant, on |c_i| with no sign
    cancelling, |x| and |U(v)[S]| <= |S| |v[S]| + sum_(j in S) |v[S - j]|,
    which must stay under the same 2^(W-2) whatever the data's signs.
    """

    @staticmethod
    def replay(cv, k, majorant=False):
        r, n = cv.codim, cv.ambient_dim
        cs, sign, a = (list(map(abs, cv.c)), 1, abs) if majorant else (cv.c, -1, int)

        def u(v):
            bits = len(v).bit_length() - 1
            return [
                s.bit_count() * v[s]
                + sign * sum(v[s & ~(1 << j)] for j in range(bits) if s >> j & 1)
                for s in range(len(v))
            ]

        largest, acc = abs(cs[r]), [cs[r], cs[r]]
        for t in range(2, k + 2):
            p, q = acc, [0] * len(acc)
            for c in cs[1:]:
                base = [a(1 - t) * x + c * y for x, y in zip(p, acc)]
                p, q = [b + x for b, x in zip(base, u(p))], [b + x for b, x in zip(base, u(q))]
                largest = max(largest, *map(abs, base + p + q))
            acc = p + q
        d = (k + 1) * r
        return largest, {s: v for s, v in enumerate(acc) if v and d - s.bit_count() < n}

    def check(self, cv, k):
        largest, terms = self.replay(cv, k)
        bound, _ = self.replay(cv, k, majorant=True)
        width = fiberring._width(cv.c, k)
        assert width % 8 == 0
        assert largest <= bound < 1 << (width - 2)
        rec = recursion_top_chern(cv, k)
        assert (rec.degree, rec.terms) == ((k + 1) * cv.codim, terms)
        return bound, width

    def test_seeded_shapes(self):
        rng = random.Random(27)
        seen = collections.Counter()
        for _ in range(300):
            n, r, k = rng.randint(1, 12), rng.randint(1, 4), rng.randint(0, 5)
            scale = rng.choice([9, 9, 10**30])
            tail = [rng.choice([0, rng.randint(-scale, scale)]) for _ in range(r)]
            bound, width = self.check(ChernVector.make(n, [1] + tail), k)
            seen["truncating"] += (k + 1) * r > n
            seen["c_i = 0"] += 0 in tail
            seen["|c_i| > 2^64"] += max(map(abs, tail)) > 2**64
            seen["k = 0"] += k == 0
            # the majorant comes within a byte and the headroom of 2^W
            seen["tight"] += bound.bit_length() >= width - 10
        wanted = ("truncating", "c_i = 0", "|c_i| > 2^64", "k = 0", "tight")
        assert all(seen[key] for key in wanted), seen

    @given(
        st.integers(1, 12),
        st.integers(0, 5),
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_holds(self, n, k, tail):
        self.check(ChernVector.make(n, [1] + tail), k)


class TestHomogeneousClasses:
    """Both routes build a class of degree (k+1)r whose terms map each
    D-mask S to the coefficient of L^((k+1)r-|S|) * D_S, and the recursion
    reads its fields straight into that map through ``_terms``."""

    @given(
        st.integers(1, 10),
        st.integers(0, 5),
        st.lists(
            st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_both_routes_equal_the_oracle_product(self, n, k, tail):
        cv = ChernVector.make(n, [1] + tail)
        r, d = cv.codim, (k + 1) * cv.codim
        ring = OracleRing(n, k + 1)
        product = ring.scalar(math.prod(top_chern_twisted(cv, -i) for i in range(k + 1)))
        for i in range(1, k + 2):
            product = product * ring.hyperplane_power(i, r)
        rec, closed = recursion_top_chern(cv, k), closed_form_top_chern(cv, k)
        assert rec == closed == product
        for cls in (rec, closed):
            assert cls.degree == d
            assert all(0 <= s < 1 << (k + 1) and 0 <= d - s.bit_count() < n for s in cls.terms)
            assert 0 not in cls.terms.values()

    @pytest.mark.parametrize("width", range(8, 137, 8))
    def test_fields_read_back_exactly(self, width):
        # the largest fields _width allows, both signs, among small ones;
        # with floor = 0 the dead mask 0 goes, and with -1 none does
        edge = (1 << (width - 2)) - 1
        x = [edge, -edge, 0, -1, 1, -edge, edge, 0]
        biased = pack(x, width) + pack([1 << (width - 1)] * len(x), width)
        raw = biased.to_bytes(width // 8 * len(x), "little")
        nonzero = {s: v for s, v in enumerate(x) if v}
        assert fiberring._terms(raw, width // 8, -1) == nonzero
        del nonzero[0]
        assert fiberring._terms(raw, width // 8, 0) == nonzero

    def test_nothing_stays_allocated_after_a_call(self):
        # the n24-r1-k12 oracle case: 8,192 fields of 64 bits.  A warm-up on
        # a small ring first, so that only what this call leaves is counted;
        # struct.unpack's format cache alone would keep about 300 KB here
        cv = ChernVector.make(24, [1, -9])
        recursion_top_chern(ChernVector.make(5, [1, 2]), 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(recursion_top_chern(cv, 12).terms) == 8192
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 16 * 1024


    def test_unpack_peak_stays_near_the_result(self):
        # 8,192 fields of 112 bits: read one at a time, the fields are never
        # all alive beside the term map, so the peak is raw and the terms
        cv = ChernVector.make(30, [1, -7, 5])
        recursion_top_chern(cv, 12)
        tracemalloc.start()
        try:
            terms = recursion_top_chern(cv, 12).terms
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(terms) == 8192
        assert peak < 1.3 * kept


class TestLiveLevels:
    """``_live_stages``, the ring count's kernel, against the recursion's
    packed ``recursion_top_chern``.

    The count runs the stages on L^excess and keeps, of a class of degree
    d over t bits, only the popcount levels s > d - n, each in ascending
    mask order.  Stage t's class does not depend on k, so the class at
    the end of stage t is the kernel's result for k = t - 1 at the same
    excess; it must match the dense class times L^excess, a product by
    the general ``__mul__``, in every slot of every live level.
    """

    @staticmethod
    def level_masks(bits, s):
        return [m for m in range(1 << bits) if m.bit_count() == s]

    def check(self, cv, k, seen):
        n, r = cv.ambient_dim, cv.codim
        excess = n + k - (k + 1) * r
        for stage in range(k + 1):
            levels = fiberring._live_stages(cv, stage, excess)
            ring = OracleRing(n, stage + 1)
            dense = recursion_top_chern(cv, stage) * ring.l_class() ** excess
            d = excess + (stage + 1) * r
            assert dense.degree == d
            assert len(levels) == stage + 2
            for s, level in enumerate(levels):
                masks = self.level_masks(stage + 1, s)
                if s <= d - n:
                    # L^(d-s) = 0: a dead level, and no term of the product
                    assert level is None
                    assert not any(m in dense.terms for m in masks)
                    seen["dead level"] += 1
                    continue
                assert level == [dense.terms.get(m, 0) for m in masks]
                seen["live slot"] += len(level)
                seen["nonzero live slot"] += any(level)
        # the last stage ends at degree n + k: the top slot is all that lives
        assert levels[:-1] == [None] * (k + 1) and len(levels[-1]) == 1
        assert levels[-1][0] == integrate(dense)
        seen[f"r = {r}"] += 1
        seen["excess = 0"] += excess == 0
        seen["k = 0"] += k == 0
        seen["n = 1"] += n == 1
        seen["c_i = 0"] += 0 in cv.c

    def test_matches_dense_stages_slot_for_slot(self):
        rng = random.Random(26)
        seen = collections.Counter()
        shapes = [(1, 1, 0), (1, 1, 3), (4, 4, 0), (7, 4, 1), (5, 2, 3)]
        while len(shapes) < 150:
            n, r, k = rng.randint(1, 12), rng.randint(1, 4), rng.randint(0, 5)
            if n + k >= (k + 1) * r:
                shapes.append((n, r, k))
        for n, r, k in shapes:
            tail = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(r)]
            self.check(ChernVector.make(n, [1] + tail), k, seen)
        wanted = ["dead level", "live slot", "nonzero live slot", "excess = 0", "k = 0", "n = 1"]
        wanted += ["c_i = 0"] + [f"r = {r}" for r in range(1, 5)]
        assert all(seen[key] for key in wanted), seen

    @pytest.mark.parametrize("bits", range(11))
    def test_gathers_drop_one_set_bit(self, bits):
        # applied to level s - 1's masks themselves, the k-th gather of
        # level s reads each mask of level s less its k-th set bit
        for s in range(bits + 1):
            masks, lower = self.level_masks(bits, s), self.level_masks(bits, s - 1)
            gathers = fiberring._gathers(bits, s)
            assert len(gathers) == s
            for k, gather in enumerate(gathers):
                expected = []
                for mask in masks:
                    low_bits = [b for b in range(bits) if mask >> b & 1]
                    expected.append(mask & ~(1 << low_bits[k]))
                assert list(gather(lower)) == expected


class TestOracleIndependence:
    """README: the oracle and the scalar product route share no code."""

    ORACLE = (
        "recursion_top_chern",
        "secant_count_via_ring",
        "_terms",
        "_width",
        "_masks",
        "_step",
        "_live_stages",
        "_level_step",
        "_level_plus_u",
        "_gathers",
        "_ranks",
    )

    @staticmethod
    def module():
        return ast.parse(Path(fiberring.__file__).read_text())

    def test_imports_only_bundles_and_errors(self):
        relative = {
            node.module
            for node in ast.walk(self.module())
            if isinstance(node, ast.ImportFrom) and node.level
        }
        assert relative == {"bundles", "errors"}

    def test_top_chern_twisted_only_in_closed_form(self):
        users = [
            node.name
            for node in self.module().body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == "top_chern_twisted"
        ]
        assert users and set(users) == {"closed_form_top_chern"}

    def test_oracle_reaches_only_chern_vector_from_bundles(self):
        tree = self.module()
        from_bundles = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "bundles"
            for alias in node.names
        }
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        seen, todo, reached = set(), list(self.ORACLE), set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for sub in ast.walk(defs[name]):
                if isinstance(sub, ast.Name):
                    reached.add(sub.id)
                    if sub.id in defs:
                        todo.append(sub.id)
        assert "ChernVector" in from_bundles
        assert reached & from_bundles == {"ChernVector"}
