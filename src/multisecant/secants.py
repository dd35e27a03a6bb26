"""Enumerative secant formulas for small-codimension subvarieties.

The central quantity is the degree of the locus of (j+1)-secant lines
through a generic external point, computed as the product

    deg Sigma_(j+1) = (1 / (j+1)!) * prod_{i=0..j} c_r(E(-i)),

together with the trisecant specialization and the expansion
bookkeeping around it.  Degrees are returned as exact rationals: the
product formula computes a virtual class, and a non-integral or zero
value is meaningful (improper dimension) rather than an error, so callers
get flags instead of exceptions.  The double-point expansion
d - c_(r-1) + c_(r-2) - ..., an independent route to c_r(N(-1)), lives
with the test suite's oracles (tests/oracles.py).

The goettsche_* functions keep a printed pair of expansions for the (b)
and (c) terms of the trisecant count alongside their reduced closed
forms.  The reduced (c) form agrees with the full sum identically; the
(b) pair is kept as a transcription experiment whose match/mismatch
status is reported, never assumed; goettsche_b_full's docstring proves
that their gap is the t = n cell the printed sum drops.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bundles import ChernVector, segre_prefix, top_chern_twisted
from .errors import Record


class SecantDegree(Record):
    """A secant degree plus the caveats that travel with it.

    ``possibly_degenerate`` marks a vanishing class: when the secant locus
    has smaller dimension than expected the formula's class is zero, so a
    zero value is a caveat, not a count.  ``integral`` is False when the
    rational value is not an integer, which likewise signals
    improper-dimension input.
    """

    __slots__ = ("value", "factors", "possibly_degenerate", "integral")


def multisecant_report(e: ChernVector, j: int) -> SecantDegree:
    """Degree of the (j+1)-secant locus through a generic external point."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    factors = tuple(top_chern_twisted(e, -i) for i in range(j + 1))
    value = Fraction(math.prod(factors), math.factorial(j + 1))
    return SecantDegree(value, factors, value == 0, value.denominator == 1)


def trisecant_closed(cv: ChernVector) -> Fraction:
    """(1/2) * c_r(N(-1)) * c_r(N(-2)): trisecants through an external point."""
    return Fraction(top_chern_twisted(cv, -1) * top_chern_twisted(cv, -2), 2)


def trisecant_double_sum(cv: ChernVector) -> Fraction:
    """(1/2) * sum_{m,i=0..r} (-1)^(m+i) 2^(r-m) c_m c_i.

    The expanded form of the trisecant product; must agree with
    trisecant_closed identically.
    """
    r = cv.codim
    total = 0
    for m in range(r + 1):
        w = 2 ** (r - m) * cv.c[m]
        for i in range(r + 1):
            total += (-1) ** (m + i) * w * cv.c[i]
    return Fraction(total, 2)


# -- trisecant count via Goettsche's (a) + (b) - (c) decomposition --------


def goettsche_b_full(cv: ChernVector) -> int:
    """The (b) term as a raw triple sum over Segre coefficients:

        sum_{k=0}^{2r-2} sum_{t=0}^{n-1} binom(n,t) binom(n+1,k-t)
            sum_{j=r-t-1}^{2r-2-k} 2^(j+t-r+1) sigma_j sigma_(2r-2-k-j)

    All H-degree bookkeeping collapses to total degree 2r-2, so the value
    is the plain coefficient sum.  Terms with j < 0 vanish (no negative
    Segre classes).  This is evaluated verbatim for comparison against the
    reduced form; the two are not assumed equal.

    The printed t-range stops at n-1 and so drops the t = n cells.  There
    binom(n,n) = 1 and binom(n+1,k-n) is nonzero only for k >= n, while
    k <= 2r-2.  For n >= 2r-1 no such k exists, so nothing is dropped.
    For n = 2r-2 only k = n remains: binom(n+1,0) = 1, and j runs from
    max(r-n-1, 0) = 0 to 2r-2-k = 0, so the one dropped cell is
    2^(0+n-r+1) sigma_0^2 = 2^(r-1).  That is exactly the gap
    goettsche_b_reduced - goettsche_b_full at n = 2r-2, and the gap is 0
    for n >= 2r-1 (tests/test_secants.py::TestGoettscheTerms
    ::test_b_gap_is_the_dropped_t_equals_n_cell).
    """
    n, r = cv.ambient_dim, cv.codim
    sigma = segre_prefix(cv, 2 * r - 2)
    total = 0
    for k in range(2 * r - 1):
        # binom(n+1, k-t) vanishes unless 0 <= k-t <= n+1
        for t in range(max(k - n - 1, 0), min(k + 1, n)):
            outer = math.comb(n, t) * math.comb(n + 1, k - t)
            for j in range(max(r - t - 1, 0), 2 * r - 2 - k + 1):
                # j >= r-t-1 keeps the power of two nonnegative
                total += outer * 2 ** (j + t - r + 1) * sigma[j] * sigma[2 * r - 2 - k - j]
    return total


def goettsche_b_reduced(cv: ChernVector) -> int:
    """The reduced (b) term:

        sum_{m=0}^{r-1} sum_{i=0}^{2r-2-m} (-1)^(m+i) 2^(r-1-m) c_m c_i

    with c_i = 0 for i > r.  The inner limit 2r-2-m keeps the H-power
    2r-2-i-m nonnegative, which drops the (m=r-1, i=r) cell relative to
    the full rectangle.
    """
    r = cv.codim
    total = 0
    for m in range(r):
        w = 2 ** (r - 1 - m) * cv.c[m]
        for i in range(min(2 * r - 2 - m, r) + 1):
            total += (-1) ** (m + i) * w * cv.c[i]
    return total


def goettsche_c_full(cv: ChernVector) -> int:
    """The (c) term as printed: d * sum_{k=0}^{2r-2} binom(n+r,k) sigma_(2r-2-k)."""
    n, r = cv.ambient_dim, cv.codim
    if 2 * r - 2 > n:
        raise IndexError(
            f"(c)-term needs Segre classes up to degree {2 * r - 2} > n = {n}"
        )
    sigma = segre_prefix(cv, 2 * r - 2)
    return cv.degree * sum(math.comb(n + r, k) * sigma[2 * r - 2 - k] for k in range(2 * r - 1))


def goettsche_c_reduced(cv: ChernVector) -> int:
    """The (c) term in closed form: d*c_(r-1) + d^2*(r-1)."""
    r = cv.codim
    return cv.degree * cv.c[r - 1] + cv.degree**2 * (r - 1)


def goettsche_a_derived(cv: ChernVector) -> Fraction:
    """The (a) term recovered from the other two:
    trisecant count + (c) - (b).

    The printed expansion of (a) is dimensionally inconsistent (it mixes
    an H-power into a numeric coefficient), so only this derived value is
    exposed; it is bookkeeping, not an independent formula.
    """
    return trisecant_closed(cv) + goettsche_c_reduced(cv) - goettsche_b_reduced(cv)
