"""The blow-up fiber-power ring: relations, recursion oracle, integration."""

import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multisecant import (
    AmbientMismatchError,
    ChernVector,
    FiberRing,
    HypothesisError,
    closed_form_top_chern,
    complete_intersection_bundle,
    fiberring,
    integrate,
    line_bundle,
    multisecant_report,
    recursion_top_chern,
    secant_count_via_ring,
)


class TestRelations:
    def test_wu_chern_square(self):
        ring = FiberRing(5, 2)
        d1, l = ring.exceptional(1), ring.l_class()
        assert d1 * d1 == -(l * d1)

    def test_hyperplane_kills_own_exceptional(self):
        ring = FiberRing(5, 2)
        assert (ring.hyperplane_class(1) * ring.exceptional(1)).is_zero()

    def test_l_truncation(self):
        ring = FiberRing(4, 1)
        l = ring.l_class()
        assert not (l**3).is_zero()
        assert (l**4).is_zero()

    def test_hyperplane_square_expansion(self):
        ring = FiberRing(6, 3)
        h2 = ring.hyperplane_class(2) ** 2
        expected = ring.l_class() * ring.exceptional(2) + ring.l_class() ** 2
        assert h2 == expected

    @pytest.mark.parametrize("r", range(1, 7))
    def test_hyperplane_power_collapse(self, r):
        # H_i^r == L^(r-1) * H_i
        ring = FiberRing(9, 2)
        h = ring.hyperplane_class(1)
        assert h**r == ring.l_class() ** (r - 1) * h
        assert h**r == ring.hyperplane_power(1, r)

    def test_fundamental_class_powers(self):
        # H^n integrates to 1 and D^n to (-1)^(n-1) on the blow-up itself
        for n in range(2, 7):
            ring = FiberRing(n, 1)
            assert integrate(ring.hyperplane_class(1) ** n) == 1
            assert integrate(ring.exceptional(1) ** n) == (-1) ** (n - 1)

    def test_diagonal_symmetry(self):
        ring = FiberRing(5, 3)
        assert ring.diagonal_class(1, 2) == ring.diagonal_class(2, 1)

    def test_diagonal_vs_hyperplane(self):
        ring = FiberRing(5, 3)
        lhs = ring.hyperplane_class(2) - ring.diagonal_class(1, 2)
        assert lhs == -ring.exceptional(1)

    def test_index_bounds(self):
        ring = FiberRing(5, 2)
        with pytest.raises(IndexError):
            ring.exceptional(3)
        with pytest.raises(IndexError):
            ring.diagonal_class(1, 1)

    def test_negative_hyperplane_power_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FiberRing(4, 2).hyperplane_power(1, -1)

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_coefficient_index_bounds(self, index):
        x = FiberRing(4, 2).hyperplane_class(1)
        with pytest.raises(IndexError, match=f"factor index {index} out of range 1..2"):
            x.coefficient(0, (index,))
        assert x.coefficient(0, (1,)) == 1

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
        d1 = FiberRing(4, 2).exceptional(1)
        with pytest.raises(IndexError, match=message):
            d1.coefficient(l_exponent, indices)
        assert d1.coefficient(0, (1,)) == 1
        assert d1.coefficient(3, ()) == 0

    def test_shape_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            FiberRing(5, 2).one() * FiberRing(5, 3).one()
        with pytest.raises(AmbientMismatchError):
            FiberRing(4, 2).one() * FiberRing(5, 2).one()


def elements(ring, rng, terms=4, bound=5):
    out = ring.zero()
    for _ in range(terms):
        e = rng.randrange(ring.ambient_dim)
        mask_indices = [
            i + 1 for i in range(ring.factors) if rng.random() < 0.5
        ]
        mono = ring.one()
        for _ in range(e):
            mono = mono * ring.l_class()
        for i in mask_indices:
            mono = mono * ring.exceptional(i)
        out = out + mono.scale(rng.randint(-bound, bound))
    return out


class TestRingAxioms:
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_commutative_associative(self, n, f, seed):
        rng = random.Random(seed)
        ring = FiberRing(n, f)
        a, b, c = (elements(ring, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_integrate_is_linear(self, n, f, seed):
        rng = random.Random(seed)
        ring = FiberRing(n, f)
        a, b = elements(ring, rng), elements(ring, rng)
        assert integrate(a + b) == integrate(a) + integrate(b)
        assert integrate(a.scale(7)) == 7 * integrate(a)

    def test_integrate_normalization(self):
        ring = FiberRing(5, 3)
        assert integrate(ring.top_monomial()) == 1
        # anything short of the top monomial integrates to zero
        assert integrate(ring.l_class() ** 4) == 0
        assert integrate(ring.exceptional(1) * ring.exceptional(2) * ring.exceptional(3)) == 0

    @pytest.mark.parametrize("n,f", [(2, 1), (3, 2), (4, 3)])
    def test_integrate_vanishes_off_the_top_monomial(self, n, f):
        ring = FiberRing(n, f)
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
        ring = FiberRing(4, 2)
        a = ring.hyperplane_class(1).scale(3)
        b = ring.hyperplane_class(1).scale(Fraction(3))
        assert a == b


class TestRecursion:
    def test_line_bundle_two_factor(self):
        # O(d), one completed stage: d(d-1) * H_1 H_2
        for d in (0, 1, 2, 3, 5):
            e = line_bundle(6, d)
            ring = FiberRing(6, 2)
            expected = (
                ring.hyperplane_class(1) * ring.hyperplane_class(2)
            ).scale(d * (d - 1))
            assert recursion_top_chern(e, 1) == expected

    def test_rank_two_matches_twisted_product(self):
        e = complete_intersection_bundle(5, [2, 3])
        ring = FiberRing(5, 2)
        scalar = 6 * 2  # c_2(E) * c_2(E(-1)) = 6 * (2-1)(3-1)
        expected = (
            ring.hyperplane_power(1, 2) * ring.hyperplane_power(2, 2)
        ).scale(scalar)
        assert recursion_top_chern(e, 1) == expected
        assert closed_form_top_chern(e, 1) == expected

    def test_trivial_bundle_dies(self):
        e = line_bundle(4, 0)
        for k in range(3):
            assert recursion_top_chern(e, k).is_zero()

    def test_base_case(self):
        cv = ChernVector.make(6, [1, 2, 5])
        ring = FiberRing(6, 1)
        assert recursion_top_chern(cv, 0) == ring.hyperplane_power(1, 2).scale(5)
        assert closed_form_top_chern(cv, 0) == ring.hyperplane_power(1, 2).scale(5)

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
            for (e, mask), c in base.terms.items():
                new_mask = 0
                for i in range(1, k + 2):
                    if mask >> (i - 1) & 1:
                        new_mask |= 1 << (mapping[i] - 1)
                permuted[(e, new_mask)] = c
            assert permuted == dict(base.terms)


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
        for (e, mask), c in x.terms.items():
            mono = L**e
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
        ring = FiberRing(n, f)
        a, b = elements(ring, rng, terms=3), elements(ring, rng, terms=3)

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
        l_power = FiberRing(n, k + 1).l_class() ** excess
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
        pruned = full * FiberRing(n, k + 1).l_class() ** excess
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
            l_power = FiberRing(n, k + 1).l_class() ** excess
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


class TestOracleIndependence:
    """README: the oracle and the scalar product route share no code."""

    ORACLE = ("recursion_top_chern", "secant_count_via_ring", "_stages")

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
