"""Normality criteria and auxiliary numerology."""

import pytest
from hypothesis import given, strategies as st

from multisecant import (
    ChernVector,
    HypothesisError,
    check_2normal,
    check_jnormal_bundle,
    check_jnormal_general,
    check_linear_normality_zak,
    complete_intersection_bundle,
    jnormal_min_ambient_dim,
    ran_min_ambient_dim,
)


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


class TestTwoNormal:
    def test_boundary_holds(self):
        v = check_2normal(16, 2, ChernVector.make(16, [1, 6, 9]))
        assert v.outcome == "holds"

    def test_bound_fails(self):
        assert check_2normal(15, 2, ChernVector.make(15, [1, 6, 9])).outcome == "fails"

    def test_twisted_chern_vanishes(self):
        assert check_2normal(16, 2, ChernVector.make(16, [1, 4, 4])).outcome == "fails"


class TestZak:
    def test_boundary(self):
        assert check_linear_normality_zak(8, 2).outcome == "holds"
        assert check_linear_normality_zak(7, 2).outcome == "inapplicable"
        assert check_linear_normality_zak(12, 3).outcome == "holds"

    def test_parameter_check(self):
        with pytest.raises(HypothesisError):
            check_linear_normality_zak(2, 2)


class TestNumerology:
    def test_ran_bound_values(self):
        assert ran_min_ambient_dim(1) == 7
        assert ran_min_ambient_dim(2) == 18
        assert ran_min_ambient_dim(3) == 35

    def test_min_ambient_values(self):
        assert jnormal_min_ambient_dim(2, 2) == 18
        assert jnormal_min_ambient_dim(2, 1) == 10
        assert jnormal_min_ambient_dim(3, 1) == 14

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

