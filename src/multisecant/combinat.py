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


def _series_coefficient(p: int, i: int) -> int:
    # coefficient of x^i in (1-x)^(-p); for p = 0 the series is 1
    if p == 0:
        return 1 if i == 0 else 0
    return binomial(p - 1 + i, i)


def koszul_rank_identity(l: int, p: int, t: int) -> tuple[int, int]:
    """Both sides of binom(l, t) = sum_i (-1)^i binom(l+p, t-i) binom(p-1+i, i).

    Returns (lhs, rhs).  The identity's sum is over i = 0..t, but only
    i = max(0, t-m)..t with m = l+p is summed: below that binom(m, t-i)
    vanishes.  When p = 0 the series (1-x)^0 is 1 and only the i = 0
    term, binom(m, t), remains.
    """
    if l < 0 or p < 0 or t < 0:
        raise ValueError("koszul_rank_identity: arguments must be >= 0")
    m = l + p
    if p == 0:
        return math.comb(l, t), math.comb(m, t)
    low = max(0, t - m)
    sign = -1 if low % 2 else 1
    rhs = 0
    for i in range(low, t + 1):
        rhs += sign * math.comb(m, t - i) * math.comb(p - 1 + i, i)
        sign = -sign
    return math.comb(l, t), rhs


def wedge_resolution_sum(n: int, t: int, sym_space_dim: int) -> int:
    """sum_{i=0}^{t} (-1)^i binom(n, t-i) * dim S^i(C^sym_space_dim)."""
    return sum(
        (-1) ** i * binomial(n, t - i) * _series_coefficient(sym_space_dim, i)
        for i in range(t + 1)
    )


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
