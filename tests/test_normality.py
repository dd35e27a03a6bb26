"""Normality criteria and auxiliary numerology."""

import pytest
from hypothesis import given, strategies as st

from multisecant.bundles import ChernVector, complete_intersection_bundle
from multisecant.errors import HypothesisError
from multisecant.normality import (
    check_2normal,
    check_jnormal_bundle,
    check_jnormal_general,
    check_linear_normality_zak,
    jnormal_min_ambient_dim,
    ran_min_ambient_dim,
)
from multisecant.secants import multisecant_report


class TestJnormalGeneral:
    def test_boundary_holds(self):
        v = check_jnormal_general(16, 2, 2, True)
        assert v.outcome == "holds"
        assert all(h.satisfied for h in v.hypotheses)

    def test_boundary_fails(self):
        v = check_jnormal_general(15, 2, 2, True)
        assert v.outcome == "fails"
        unmet = [h for h in v.hypotheses if not h.satisfied]
        assert [h.name for h in unmet] == ["intersection_bound"]
        assert (unmet[0].left, unmet[0].right) == (15, 14)

    def test_secant_gate_inapplicable(self):
        assert check_jnormal_general(100, 2, 2, False).outcome == "inapplicable"

    def test_parameter_errors(self):
        with pytest.raises(HypothesisError):
            check_jnormal_general(0, 2, 2, True)
        with pytest.raises(HypothesisError):
            check_jnormal_general(10, 2, 0, True)

    def test_hypotheses_enumerated_with_sides(self):
        v = check_jnormal_general(16, 2, 2, True)
        assert [h.name for h in v.hypotheses] == [
            "secants_nonempty",
            "codim_bound",
            "intersection_bound",
        ]
        assert all(h.render_sides() for h in v.hypotheses)


class TestJnormalBundle:
    def test_cubic_pencil_holds(self):
        e = complete_intersection_bundle(18, [3, 3])
        v = check_jnormal_bundle(e, 2)
        assert v.outcome == "holds"
        twists = {h.name: h.left for h in v.hypotheses if "twist" in h.name}
        assert twists == {
            "top_chern_nonzero_twist_1": 4,
            "top_chern_nonzero_twist_2": 1,
        }

    def test_quadric_pencil_twist_vanishes(self):
        e = complete_intersection_bundle(18, [2, 2])
        v = check_jnormal_bundle(e, 2)
        assert v.outcome == "fails"
        assert not [h for h in v.hypotheses if h.name == "top_chern_nonzero_twist_2"][
            0
        ].satisfied

    def test_small_ambient_fails_bounds(self):
        e = complete_intersection_bundle(10, [3, 3])
        assert check_jnormal_bundle(e, 2).outcome == "fails"

    def test_untwisted_factor_reported_as_note(self):
        e = complete_intersection_bundle(18, [3, 3])
        v = check_jnormal_bundle(e, 2)
        assert any("c_r(E) = 9" in note for note in v.notes)

    @pytest.mark.parametrize(
        "n, degrees, j", [(18, [3, 3], 2), (18, [2, 2], 2), (10, [3, 3], 2), (9, [1, 0, 4], 3)]
    )
    def test_given_factors_give_the_same_verdict(self, n, degrees, j):
        e = complete_intersection_bundle(n, degrees)
        factors = multisecant_report(e, j).factors
        assert check_jnormal_bundle(e, j, factors) == check_jnormal_bundle(e, j)


class TestTwoNormal:
    # X^m in P^n with normal data of rank r: the criterion reads m = n - r

    def test_boundary_holds(self):
        v = check_2normal(ChernVector.make(18, [1, 6, 9]))
        assert v.outcome == "holds"

    def test_bound_fails(self):
        assert check_2normal(ChernVector.make(17, [1, 6, 9])).outcome == "fails"

    def test_twisted_chern_vanishes(self):
        assert check_2normal(ChernVector.make(18, [1, 4, 4])).outcome == "fails"

    @pytest.mark.parametrize("n, holds", [(17, False), (18, True)])
    def test_codim_bound_reads_m_from_the_data(self, n, holds):
        v = check_2normal(ChernVector.make(n, [1, 6, 9]))
        bound = next(h for h in v.hypotheses if h.name == "codim_bound")
        assert (bound.left, bound.right) == (6 * 2, n - 2 - 4)
        assert bound.satisfied is holds

    def test_no_positive_dimensional_x_is_rejected(self):
        # in terms of the n and r the data gives, as check_jnormal_bundle says it
        message = "^ambient dimension 2 leaves no positive-dimensional X for rank 2$"
        with pytest.raises(HypothesisError, match=message):
            check_2normal(ChernVector.make(2, [1, 6, 9]))


class TestZak:
    def test_boundary(self):
        assert check_linear_normality_zak(8, 2).outcome == "holds"
        assert check_linear_normality_zak(7, 2).outcome == "inapplicable"
        assert check_linear_normality_zak(12, 3).outcome == "holds"

    def test_parameter_check(self):
        # n <= r is refused by the guard and message the other checks share
        for n, r in [(2, 2), (2, 3)]:
            message = f"^ambient dimension {n} leaves no positive-dimensional X for rank {r}$"
            with pytest.raises(HypothesisError, match=message):
                check_linear_normality_zak(n, r)
        for r in (0, -1):
            with pytest.raises(HypothesisError, match=f"^rank must be >= 1, got {r}$"):
                check_linear_normality_zak(5, r)


class TestNumerology:
    def test_ran_bound_values(self):
        assert ran_min_ambient_dim(1) == 7
        assert ran_min_ambient_dim(2) == 18
        assert ran_min_ambient_dim(3) == 35

    def test_min_ambient_values(self):
        assert jnormal_min_ambient_dim(2, 2) == 18
        assert jnormal_min_ambient_dim(2, 1) == 10
        assert jnormal_min_ambient_dim(3, 1) == 14

    def test_parameters_below_one_are_refused(self):
        with pytest.raises(HypothesisError, match="^j must be >= 1, got 0$"):
            ran_min_ambient_dim(0)
        with pytest.raises(HypothesisError, match="^parameters must be positive: r=0, j=1$"):
            jnormal_min_ambient_dim(0, 1)

    @given(st.integers(2, 10))
    def test_codim_two_recovers_ran_bound(self, j):
        assert jnormal_min_ambient_dim(2, j) == ran_min_ambient_dim(j)

    def test_j_one_discrepancy_is_real(self):
        # the two bounds genuinely differ at j = 1: 10 vs 7
        assert jnormal_min_ambient_dim(2, 1) == 10
        assert ran_min_ambient_dim(1) == 7

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_monotone_in_both_arguments(self, r, j):
        base = jnormal_min_ambient_dim(r, j)
        assert jnormal_min_ambient_dim(r + 1, j) >= base
        assert jnormal_min_ambient_dim(r, j + 1) >= base

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_min_ambient_is_sharp(self, r, j):
        n = jnormal_min_ambient_dim(r, j)
        assert check_jnormal_general(n - r, r, j, True).outcome == "holds"
        assert check_jnormal_general(n - 1 - r, r, j, True).outcome == "fails"



class TestBoundReductions:
    """The paper's two j-normality bounds, reduced exactly for r < 40, m < 400."""

    GRID = [(r, m) for r in range(1, 40) for m in range(1, 400)]

    @staticmethod
    def bounds_hold(m, r, j):
        return check_jnormal_general(m, r, j, True).outcome == "holds"

    def test_j_two_is_the_quadratic_criterion(self):
        # at j = 2 both bounds together say exactly 6r <= m - 4
        assert all(self.bounds_hold(m, r, 2) == (6 * r <= m - 4) for r, m in self.GRID)

    def test_j_one_needs_more_than_zak(self):
        # at j = 1 they say m >= 3r + 2, while Zak's n >= 4r says m >= 3r:
        # m = 3r and 3r + 1 separate the two for every r
        for r, m in self.GRID:
            holds = self.bounds_hold(m, r, 1)
            zak = check_linear_normality_zak(m + r, r).outcome == "holds"
            assert holds == (m >= 3 * r + 2)
            assert zak == (m >= 3 * r)

    @pytest.mark.parametrize("j", [1, 2, 3, 6])
    def test_least_ambient_dim_is_a_threshold(self, j):
        # both bounds grow with m, so they hold exactly from the least n on;
        # a census sweep keys its jnormal outcomes on n >= that least n
        for r, m in self.GRID:
            assert self.bounds_hold(m, r, j) == (m + r >= jnormal_min_ambient_dim(r, j))
