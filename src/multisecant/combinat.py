"""Exact binomial machinery and alternating wedge/symmetric-power sums.

The alternating sums here are the ranks of Koszul-type resolutions

    0 -> A -> B -> C -> 0   (dim A = l, dim B = m = l + p, dim C = p)

read off in two classical ways: resolving wedge^t A by wedge powers of B
tensored with symmetric powers of C, and the dual resolution through
symmetric powers of B.  Two variants of the second sum are kept side by
side: one uses the correct symmetric-power dimension binom(n+i, i) of an
(n+1)-dimensional space and telescopes to (-1)^t; the other uses the
off-by-one dimension binom(n+1+i, i) and provably evaluates to
(-1)^t * (t+1) instead.  Keeping both makes the off-by-one transcription
machine-checkable rather than folklore.
"""

from __future__ import annotations

import math
import operator


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient with zero outside the triangle.

    b < 0 or b > a yields 0; a < 0 is rejected (no generalized binomials
    are needed anywhere in this package's public surface).
    """
    if a < 0:
        raise ValueError(f"binomial: negative upper argument {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


# Tables for _alternating_dot, filled on demand and bounded by
# _TABLE_LIMIT: row m of Pascal's triangle, and the coefficients
# (-1)^i binom(p-1+i, i) of (1+x)^(-p) for i = 0..t.  The limit covers the
# lemma51 grids (m, p, t <= 41); larger arguments are computed per call
# and not stored.
_TABLE_LIMIT = 64
_rows: dict[int, list[int]] = {}
_series: dict[int, list[int]] = {}


def _binomial_row(m: int, top: int) -> list[int]:
    """binom(m, k) for k = 0..top at least."""
    if m > _TABLE_LIMIT:
        return [math.comb(m, k) for k in range(top + 1)]
    row = _rows.get(m)
    if row is None:
        row = _rows[m] = [math.comb(m, k) for k in range(m + 1)]
    return row


def _signed_series(p: int, t: int) -> list[int]:
    """(-1)^i binom(p-1+i, i) for i = 0..t at least, by the exact recurrence
    s_(i+1) = -s_i (p+i) / (i+1); for p = 0 it is 1, 0, 0, ..."""
    if p > _TABLE_LIMIT or t > _TABLE_LIMIT:
        s = [1]
    else:
        s = _series.setdefault(p, [1])
    for i in range(len(s) - 1, t):
        s.append(-s[i] * (p + i) // (i + 1))
    return s


def _alternating_dot(m: int, p: int, t: int) -> int:
    """sum_{i=0}^{t} (-1)^i binom(m, t-i) binom(p-1+i, i) for m, p, t >= 0,
    with binom(p-1+i, i) read as [i = 0] when p = 0.

    Only the terms i = max(0, t-m)..t are summed: below that binom(m, t-i)
    vanishes.  They form one dot product of binom(m, t-i), read backwards
    from a Pascal row, with (-1)^i binom(p-1+i, i), the coefficients of
    (1+x)^(-p).
    """
    top = min(t, m)
    row = _binomial_row(m, top)
    series = _signed_series(p, t)
    return sum(map(operator.mul, row[top::-1], series[t - top : t + 1]))


def koszul_rank_identity(l: int, p: int, t: int) -> tuple[int, int]:
    """Both sides of binom(l, t) = sum_i (-1)^i binom(l+p, t-i) binom(p-1+i, i).

    Returns (lhs, rhs).  When p = 0 the series (1-x)^0 is 1 and only the
    i = 0 term, binom(l, t), remains.
    """
    if l < 0 or p < 0 or t < 0:
        raise ValueError("koszul_rank_identity: arguments must be >= 0")
    return math.comb(l, t), _alternating_dot(l + p, p, t)


def wedge_resolution_sum(n: int, t: int, sym_space_dim: int) -> int:
    """sum_{i=0}^{t} (-1)^i binom(n, t-i) * dim S^i(C^sym_space_dim)."""
    if n < 0 or t < 0 or sym_space_dim < 0:
        raise ValueError("wedge_resolution_sum: arguments must be >= 0")
    return _alternating_dot(n, sym_space_dim, t)


def wedge_resolution_sum_unit(n: int, t: int) -> int:
    """The telescoping sum with S^i of an (n+1)-dimensional space.

    Contract: equals (-1)^t for all n, t >= 0.
    """
    return wedge_resolution_sum(n, t, n + 1)


def wedge_resolution_sum_shifted(n: int, t: int) -> int:
    """The same sum with the symmetric-power dimension off by one,
    i.e. binom(n+1+i, i) in place of binom(n+i, i).

    Evaluates to (-1)^t * (t+1); in particular at (n=2, t=1) it is -2,
    not the unit value -1.
    """
    return wedge_resolution_sum(n, t, n + 2)
