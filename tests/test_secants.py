"""Secant-degree formulas: worked values, identities, flags."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multisecant.bundles import (
    ChernVector,
    complete_intersection_bundle,
    line_bundle,
    top_chern_twisted,
)
from multisecant.combinat import binomial
from multisecant.secants import (
    goettsche_a_derived,
    goettsche_b_full,
    goettsche_b_reduced,
    goettsche_c_full,
    goettsche_c_reduced,
    multisecant_report,
    trisecant_closed,
    trisecant_double_sum,
)
from oracles import double_point_expansion


def chern_vectors(min_codim=1, max_codim=6, bound=9, min_n=None, max_n=30):
    def build(r):
        lo_n = max(1, 2 * r - 2) if min_n is None else min_n
        return st.tuples(
            st.integers(lo_n, max_n),
            st.lists(st.integers(-bound, bound), min_size=r, max_size=r),
        ).map(lambda t: ChernVector.make(t[0], [1] + t[1]))

    return st.integers(min_codim, max_codim).flatmap(build)


# Per-cell copies of goettsche_b_full and goettsche_c_full as first written,
# each Segre class by its own finite sum: the oracle of the table-driven sums.
def per_cell_segre(cv, k):
    n = cv.ambient_dim
    return sum(
        (-1) ** (k - i) * binomial(n + k - i, k - i) * cv.c[i]
        for i in range(min(k, cv.codim) + 1)
    )


def per_cell_b_full(cv):
    n, r = cv.ambient_dim, cv.codim
    total = 0
    for k in range(2 * r - 1):
        for t in range(n):
            outer = binomial(n, t) * binomial(n + 1, k - t)
            if outer == 0:
                continue
            for j in range(max(r - t - 1, 0), 2 * r - 2 - k + 1):
                total += (
                    outer
                    * 2 ** (j + t - r + 1)
                    * per_cell_segre(cv, j)
                    * per_cell_segre(cv, 2 * r - 2 - k - j)
                )
    return total


def per_cell_c_full(cv):
    n, r = cv.ambient_dim, cv.codim
    return cv.degree * sum(
        binomial(n + r, k) * per_cell_segre(cv, 2 * r - 2 - k)
        for k in range(2 * r - 1)
    )


class TestMultisecant:
    def test_chords_of_quartic_curve(self):
        e = complete_intersection_bundle(3, [2, 2])
        assert multisecant_report(e, 1).value == 2

    def test_zero_factor(self):
        e = complete_intersection_bundle(4, [1, 2])
        assert multisecant_report(e, 1).value == 0

    def test_vanishing_higher_secants(self):
        e = complete_intersection_bundle(4, [2, 2])
        assert multisecant_report(e, 2).value == 0

    def test_report_flags_zero_class(self):
        # the flag itself is pinned at the CLI (test_cli.py, test_secants_flags_line)
        report = multisecant_report(complete_intersection_bundle(4, [2, 2]), 2)
        assert report.value == 0
        assert report.factors == (4, 1, 0)

    def test_report_flags_non_integral(self):
        cv = ChernVector.make(5, [1, 1, 1])
        report = multisecant_report(cv, 1)
        assert report.value == Fraction(1, 2) and report.factors == (1, 1)

    def test_line_bundle_pair_count(self):
        # points pairs on a degree-3 divisor of P^1
        assert multisecant_report(line_bundle(1, 3), 1).value == 3


class TestBisecant:
    def test_quartic_surface(self):
        assert multisecant_report(ChernVector.make(4, [1, 4, 4]), 1).value == 2

    def test_zero_twisted_factor(self):
        assert multisecant_report(ChernVector.make(4, [1, 3, 2]), 1).value == 0

    @given(st.integers(-9, 9))
    def test_hypersurface_closed_form(self, d):
        cv = ChernVector.make(3, [1, d])
        assert multisecant_report(cv, 1).value == Fraction(d * (d - 1), 2)

    @given(chern_vectors())
    def test_matches_multisecant(self, cv):
        # the j = 1 product is the double-point count (1/2) c_r(N) c_r(N(-1))
        bisecant = Fraction(1, 2) * top_chern_twisted(cv, 0) * top_chern_twisted(cv, -1)
        assert multisecant_report(cv, 1).value == bisecant


class TestDoublePointExpansion:
    def test_quartic_surface(self):
        assert double_point_expansion(ChernVector.make(4, [1, 4, 4])) == 1

    def test_cubic_hypersurface(self):
        assert double_point_expansion(ChernVector.make(4, [1, 3])) == 2

    def test_split_ones_vanish(self):
        # N = O(1)^r has c_r(N(-1)) = 0
        assert double_point_expansion(ChernVector.make(8, [1, 2, 1])) == 0

    @given(chern_vectors())
    def test_equals_twisted_top_chern(self, cv):
        assert double_point_expansion(cv) == top_chern_twisted(cv, -1)


class TestTrisecant:
    def test_cubic_hypersurface(self):
        cv = ChernVector.make(4, [1, 3])
        assert trisecant_closed(cv) == 1
        assert trisecant_double_sum(cv) == 1

    def test_quartic_surface_vanishes(self):
        cv = ChernVector.make(8, [1, 4, 4])
        assert trisecant_closed(cv) == 0
        assert trisecant_double_sum(cv) == 0

    def test_degenerate_probe_with_overridden_degree(self):
        cv = ChernVector.make(6, [1, 0, 0], degree=1)
        assert trisecant_closed(cv) == 2

    def test_unit_hypersurface(self):
        assert trisecant_double_sum(ChernVector.make(3, [1, 1])) == 0

    @given(chern_vectors())
    def test_double_sum_equals_closed(self, cv):
        assert trisecant_double_sum(cv) == trisecant_closed(cv)

    @given(chern_vectors())
    def test_three_marked_points_per_line(self, cv):
        # d-weighted trisecant class counts each line with its 3 points
        assert trisecant_closed(cv) * cv.degree == 3 * multisecant_report(cv, 2).value


class TestGoettscheTerms:
    def test_c_term_worked_instance(self):
        cv = ChernVector.make(4, [1, 4, 4])
        assert goettsche_c_full(cv) == 32
        assert goettsche_c_reduced(cv) == 32

    def test_c_term_hypersurface_collapse(self):
        cv = ChernVector.make(9, [1, 3])
        assert goettsche_c_full(cv) == 3
        assert goettsche_c_reduced(cv) == 3

    def test_c_reduced_degenerate_probe(self):
        cv = ChernVector.make(9, [1, 0, 0, 7])
        assert goettsche_c_reduced(cv) == 2 * 49

    @given(chern_vectors())
    def test_c_full_equals_reduced(self, cv):
        assert goettsche_c_full(cv) == goettsche_c_reduced(cv)

    def test_b_term_hypersurface(self):
        cv = ChernVector.make(7, [1, 5])
        assert goettsche_b_full(cv) == 1
        assert goettsche_b_reduced(cv) == 1

    def test_b_reduced_worked_instance(self):
        assert goettsche_b_reduced(ChernVector.make(8, [1, 4, 4])) == 14

    def test_b_term_all_zero_tail(self):
        cv = ChernVector.make(8, [1, 0, 0])
        full, reduced = goettsche_b_full(cv), goettsche_b_reduced(cv)
        assert isinstance(full, int) and isinstance(reduced, int)

    @given(chern_vectors(max_codim=5, bound=5))
    def test_true_residual_identity(self, cv):
        # the double sum splits as the m <= r-1 rectangle plus the m = r
        # slice; the reduced (b) term is that rectangle minus its
        # (m = r-1, i = r) cell, so the residual carries a boundary term:
        #   tds - b_reduced = (1/2) c_r sum_i (-1)^(r+i) c_i  -  c_(r-1) c_r
        r = cv.codim
        m_slice = Fraction(cv.c[r], 2) * sum(
            (-1) ** (r + i) * cv.c[i] for i in range(r + 1)
        )
        expected = m_slice - cv.c[r - 1] * cv.c[r]
        assert trisecant_double_sum(cv) - goettsche_b_reduced(cv) == expected

    @given(chern_vectors(max_codim=6, bound=9, min_n=1, max_n=14))
    def test_full_forms_equal_their_per_cell_formulas(self, cv):
        # n < 2r-2 included: the (b) sum reads Segre classes past n there
        assert goettsche_b_full(cv) == per_cell_b_full(cv)
        if 2 * cv.codim - 2 <= cv.ambient_dim:
            assert goettsche_c_full(cv) == per_cell_c_full(cv)
        else:
            with pytest.raises(IndexError):
                goettsche_c_full(cv)

    @given(chern_vectors(min_codim=2, max_codim=6, max_n=15))
    def test_b_gap_is_the_dropped_t_equals_n_cell(self, cv):
        # reduced - full is the dropped t = n cell, 2^(r-1), at n = 2r-2,
        # and 0 for n >= 2r-1; the printed form is not made to hold
        n, r = cv.ambient_dim, cv.codim
        gap = goettsche_b_reduced(cv) - goettsche_b_full(cv)
        assert gap == (2 ** (r - 1) if n == 2 * r - 2 else 0)

    def test_a_derived_bookkeeping(self):
        cv = ChernVector.make(4, [1, 4, 4])
        assert goettsche_a_derived(cv) == trisecant_closed(cv) + 32 - 14
