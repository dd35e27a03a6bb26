"""Bundles on P^n and their class calculus.

One carrier holds all Chern data: ``ChernVector``, the integers
c_0 = 1, c_1, ..., c_r of a rank-r bundle on P^n with c_i = c_i * H^i,
plus a degree.  The same data serves both roles in the secant formulas:
the bundle E whose section cuts out X, and the normal bundle N of X.

* Split-built bundles (line bundles, Whitney sums, twists, the tangent
  bundle, complete intersections) have ``abstract`` False.  Their classes
  live in the ring of P^n, so c_k = 0 for k > n, and the degree is the
  top class c_r.

* Abstract normal-bundle data (``ChernVector.make``) has ``abstract``
  True and keeps its c_i as given, even when r > n.  In the Barth range
  the degree d of the subvariety equals the self-intersection number
  c_r, so the degree defaults to c_r.  An explicit d is kept as given,
  so that suspect printed formulas can be evaluated verbatim, and
  ``degree_consistent`` records whether it equals c_r.

Values are immutable; all functions are pure.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Sequence

from .errors import AmbientMismatchError, HypothesisError, Record

if TYPE_CHECKING:
    from .classpoly import TruncatedClassPoly


class ChernVector(Record):
    """Chern data c_0..c_r of a rank-r bundle on P^n.

    ``codim`` is the rank r: the codimension of X for normal-bundle data.
    ``abstract`` is True for data given by ``make`` and False for
    split-built bundles.
    """

    __slots__ = ("ambient_dim", "codim", "c", "degree", "abstract")

    def __init__(self, ambient_dim: int, codim: int, c: tuple, degree: int, abstract: bool):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if codim < 1:
            raise ValueError("codimension must be >= 1")
        if len(c) != codim + 1:
            raise ValueError(f"need c_0..c_{codim}, got {len(c)} entries")
        if c[0] != 1:
            raise ValueError("c_0 must be 1")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "abstract", abstract)

    @classmethod
    def make(cls, ambient_dim: int, c: Sequence[int], degree: int | None = None) -> "ChernVector":
        """Abstract data from the integers c_0..c_r; degree defaults to c_r.

        An explicit degree is kept as given, even when it differs from
        c_r; ``degree_consistent`` records which case holds.  Every value
        must be an integer: ``operator.index`` raises ``TypeError`` for a
        float or a ``Fraction`` rather than truncating it.
        """
        d = None if degree is None else operator.index(degree)
        return _chern_data(ambient_dim, tuple(map(operator.index, c)), True, d)

    @property
    def degree_consistent(self) -> bool:
        return self.degree == self.c[self.codim]

    @property
    def total_chern(self) -> TruncatedClassPoly:
        """c_0 + c_1 H + ... + c_r H^r in the ring of P^n."""
        from .classpoly import TruncatedClassPoly

        return TruncatedClassPoly.from_coeffs(self.ambient_dim, self.c)


def _chern_data(
    ambient_dim: int, c: Sequence[int], abstract: bool, degree: int | None = None
) -> ChernVector:
    """The one constructor of ``ChernVector``.

    Split data is a class in the ring of P^n: c_k = 0 for k > n, and the
    degree is the top class c_r.  Abstract data keeps c and the degree
    as given.
    """
    if not abstract:
        c = [x if k <= ambient_dim else 0 for k, x in enumerate(c)]
    c = tuple(c)
    return ChernVector(
        ambient_dim, len(c) - 1, c, c[-1] if degree is None else degree, abstract
    )


# -- constructors -------------------------------------------------------


def line_bundle(ambient_dim: int, a: int) -> ChernVector:
    """O(a) on P^n, total Chern class 1 + a*H."""
    return _chern_data(ambient_dim, (1, a), False)


def tangent_bundle(ambient_dim: int) -> ChernVector:
    """The tangent bundle of P^n: rank n, total Chern class (1+H)^(n+1)."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    n = ambient_dim
    return _chern_data(n, [math.comb(n + 1, k) for k in range(n + 1)], False)


def direct_sum(a: ChernVector, b: ChernVector) -> ChernVector:
    """Whitney sum of split bundles: ranks add, total Chern classes multiply."""
    if a.abstract or b.abstract:
        raise HypothesisError("abstract normal data cannot be summed")
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: P^{a.ambient_dim} vs P^{b.ambient_dim}"
        )
    c = [0] * (a.codim + b.codim + 1)
    for i, x in enumerate(a.c):
        for k, y in enumerate(b.c):
            c[i + k] += x * y
    return _chern_data(a.ambient_dim, c, False)


def complete_intersection_bundle(ambient_dim: int, degrees: Sequence[int]) -> ChernVector:
    """O(d_1) + ... + O(d_r), the bundle cutting out CI(d_1..d_r).

    The Whitney sum of the line bundles, one ``direct_sum`` at a time: c_k
    is the k-th elementary symmetric function of the degrees, with the
    classes of degree beyond the ambient dimension truncated away.
    """
    if not degrees:
        raise ValueError("need at least one degree")
    e = line_bundle(ambient_dim, degrees[0])
    for d in degrees[1:]:
        e = direct_sum(e, line_bundle(ambient_dim, d))
    return e


# -- twisting and top Chern values ----------------------------------------


def twist(e: ChernVector, t: int) -> ChernVector:
    """E(t) = E tensor O(t).

    Chern data transforms by c_k(E(t)) = sum_i binom(r-i, k-i) c_i t^(k-i)
    with r the rank.  A twisted split bundle stays split (and truncated);
    twisted abstract data re-derives its degree from the twisted top
    class, so the result is self-consistent.
    """
    r, cs = e.codim, e.c
    new_c = [
        sum(math.comb(r - i, k - i) * cs[i] * t ** (k - i) for i in range(k + 1))
        for k in range(r + 1)
    ]
    if e.abstract:
        return ChernVector.make(e.ambient_dim, new_c)
    return _chern_data(e.ambient_dim, new_c, False)


def top_chern_twisted(e: ChernVector, t: int) -> int:
    """The scalar c_r(E(t)) = sum_i c_i * t^(r-i).

    This is the H^r coefficient of the top Chern class of the twist,
    evaluated by Horner's rule.
    """
    acc = 0
    for c in e.c:
        acc = acc * t + c
    return acc


def as_chern_vector(e: ChernVector) -> ChernVector:
    """``e`` itself, once its top class is known to survive in the ring."""
    if not e.abstract and e.codim > e.ambient_dim:
        raise HypothesisError(
            f"rank {e.codim} exceeds ambient dimension {e.ambient_dim}: "
            "top Chern data is truncated away"
        )
    return e


# -- Segre classes --------------------------------------------------------


def segre_prefix(cv: ChernVector, top: int) -> list[int]:
    """sigma_0..sigma_top of (1+H)^(-(n+1)) * c(N), not truncated at n.

    sigma_k = sum_i a_(k-i) c_i, where a_k = (-1)^k binom(n+k, k) are the
    coefficients of (1+H)^(-(n+1)), from the exact recurrence
    a_(k+1) = -a_k (n+1+k) / (k+1).
    """
    n, c = cv.ambient_dim, cv.c
    a = [1]
    for k in range(top):
        a.append(-a[k] * (n + 1 + k) // (k + 1))
    # a[k::-1] pairs a_(k-i) with c_i; map stops at i = min(k, r)
    return [sum(map(operator.mul, a[k::-1], c)) for k in range(top + 1)]


def segre_coefficient(cv: ChernVector, k: int) -> int:
    """sigma_k with s_k(X) = sigma_k * H^k, from the expansion
    (1+H)^(-(n+1)) * c(N).

    The sign is (-1)^(k-i); this is the convention forced by sigma_0 = 1
    and verified against the polynomial route in the test suite.
    """
    if not 0 <= k <= cv.ambient_dim:
        raise IndexError(f"Segre index {k} out of range for P^{cv.ambient_dim}")
    return segre_prefix(cv, k)[k]


def segre_series(cv: ChernVector) -> TruncatedClassPoly:
    """sum_k sigma_k H^k as a truncated polynomial (the full Segre series).

    This is the inverse-series route, (1+H)^(-(n+1)) * c(N), with the
    binomials of (1+H)^(n+1) taken from ``math.comb`` so that it shares
    nothing with ``segre_coefficient``;
    tests/test_bundles.py::TestSegre::test_duality_with_polynomial_route
    compares the two.
    """
    from .classpoly import TruncatedClassPoly

    n = cv.ambient_dim
    euler = TruncatedClassPoly.from_coeffs(n, [math.comb(n + 1, k) for k in range(n + 1)])
    return euler.inverse() * TruncatedClassPoly.from_coeffs(n, cv.c)
