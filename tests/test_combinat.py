"""Binomials and the alternating wedge/symmetric-power identities."""

import pytest
from hypothesis import given, strategies as st

from multisecant import combinat
from multisecant.combinat import (
    binomial,
    koszul_rank_identity,
    wedge_resolution_sum,
    wedge_resolution_sum_shifted,
    wedge_resolution_sum_unit,
)

MAX_ROW = 60


def pascal_triangle(rows):
    # additive oracle, independent of math.comb
    tri = [[1]]
    for a in range(1, rows + 1):
        prev = tri[-1]
        tri.append(
            [1] + [prev[b - 1] + prev[b] for b in range(1, a)] + [1]
        )
    return tri


PASCAL = pascal_triangle(MAX_ROW)


def series_convolution_coefficient(n, sym_space_dim, t):
    # [x^t] (1+x)^n * (1+x)^(-sym_space_dim), via explicit power series
    pos = [binomial(n, i) for i in range(t + 1)]
    neg = [1] * (t + 1)
    for i in range(1, t + 1):
        # (1+x)^(-m) coefficients satisfy a_i = -a_(i-1) * (m+i-1) / i
        neg[i] = -neg[i - 1] * (sym_space_dim + i - 1) // i
    return sum(pos[i] * neg[t - i] for i in range(t + 1))


class TestBinomial:
    def test_small_values(self):
        assert binomial(6, 2) == 15
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_big_value_against_pascal(self):
        assert binomial(40, 20) == PASCAL[40][20]
        assert binomial(40, 20) == 137846528820

    @given(st.integers(0, MAX_ROW), st.integers(0, MAX_ROW))
    def test_matches_pascal_oracle(self, a, b):
        expected = PASCAL[a][b] if b <= a else 0
        assert binomial(a, b) == expected

    @given(st.integers(1, MAX_ROW), st.integers(1, MAX_ROW))
    def test_pascal_recurrence(self, a, b):
        assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


class TestKoszulRankIdentity:
    def test_worked_small_case(self):
        assert koszul_rank_identity(2, 1, 1) == (2, 2)

    def test_degenerate_quotient(self):
        # p = 0 collapses the resolution; the i = 0 term carries everything
        assert koszul_rank_identity(5, 0, 3) == (10, 10)

    def test_t_zero(self):
        assert koszul_rank_identity(7, 4, 0) == (1, 1)

    @staticmethod
    def definitional_sum(l, p, t):
        # the identity as written: every i = 0..t, each factor through binomial
        series = [binomial(p - 1 + i, i) if p else int(i == 0) for i in range(t + 1)]
        rhs = sum((-1) ** i * binomial(l + p, t - i) * series[i] for i in range(t + 1))
        return binomial(l, t), rhs

    @pytest.mark.parametrize(
        "l, p, t",
        # t > l+p (the kernel starts past i = 0), p = 0 (only i = 0), both
        [(2, 1, 7), (0, 3, 5), (4, 4, 40), (0, 1, 1), (5, 0, 3), (5, 0, 9), (0, 0, 0), (0, 0, 4)],
    )
    def test_edge_cases_match_the_definitional_sum(self, l, p, t):
        assert koszul_rank_identity(l, p, t) == self.definitional_sum(l, p, t)

    @given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 60))
    def test_identity_holds(self, l, p, t):
        lhs, rhs = koszul_rank_identity(l, p, t)
        assert (lhs, rhs) == self.definitional_sum(l, p, t)
        assert lhs == rhs

    @given(st.integers(0, 80).flatmap(lambda m: st.tuples(st.integers(0, m), st.just(m))),
           st.integers(0, 80))
    def test_outside_the_lemma51_grid(self, lm, t):
        # m = l+p and t up to 80, across the kernel's table limit
        l, m = lm
        assert koszul_rank_identity(l, m - l, t) == self.definitional_sum(l, m - l, t)

    @pytest.mark.parametrize(
        "l, p, t",
        # t > m, p = 0, and m, p or t past the table limit
        [(3, 2, 80), (80, 0, 80), (0, 80, 80), (40, 40, 80), (70, 0, 5), (0, 0, 80), (1, 79, 3)],
    )
    def test_large_cases_match_the_definitional_sum(self, l, p, t):
        assert koszul_rank_identity(l, p, t) == self.definitional_sum(l, p, t)

    def test_tables_grow_for_a_larger_t(self, monkeypatch):
        # start from empty tables: a short series for each p, then longer
        # ones, then past the table limit, then a short one again
        monkeypatch.setattr(combinat, "_rows", {})
        monkeypatch.setattr(combinat, "_series", {})
        for t in (2, 9, 40, 64, 65, 80, 3):
            for l, p in [(0, 0), (5, 1), (3, 7), (10, 20), (30, 34)]:
                assert koszul_rank_identity(l, p, t) == self.definitional_sum(l, p, t)

    @pytest.mark.parametrize("l, p, t", [(-1, 2, 1), (2, -1, 1), (2, 1, -1)])
    def test_negative_arguments_rejected(self, l, p, t):
        with pytest.raises(ValueError):
            koszul_rank_identity(l, p, t)


class TestAlternatingSums:
    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="^wedge_resolution_sum: arguments must be >= 0$"):
            wedge_resolution_sum(-1, 0, 0)

    def test_unit_worked_cases(self):
        assert wedge_resolution_sum_unit(2, 1) == -1
        assert wedge_resolution_sum_unit(17, 0) == 1
        assert wedge_resolution_sum_unit(4, 3) == -1

    def test_shifted_worked_cases(self):
        # the off-by-one symmetric dimension changes the value
        assert wedge_resolution_sum_shifted(2, 1) == -2
        assert wedge_resolution_sum_shifted(2, 0) == 1
        assert wedge_resolution_sum_shifted(3, 2) == 3

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_unit_closed_form(self, n, t):
        assert wedge_resolution_sum_unit(n, t) == (-1) ** t

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_shifted_closed_form(self, n, t):
        assert wedge_resolution_sum_shifted(n, t) == (-1) ** t * (t + 1)

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_sums_match_series_oracle(self, n, t):
        assert wedge_resolution_sum_unit(n, t) == series_convolution_coefficient(
            n, n + 1, t
        )
        assert wedge_resolution_sum_shifted(n, t) == series_convolution_coefficient(
            n, n + 2, t
        )
