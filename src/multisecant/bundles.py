"""Bundles on P^n and their class calculus.

Two carriers of Chern data coexist:

* ``BundleSpec`` is a split-built bundle (line bundles, Whitney sums,
  twists, the tangent bundle) whose total Chern class lives in the
  truncated ring of P^n.

* ``ChernVector`` is abstract small-codimension normal-bundle data:
  integers c_0 = 1, c_1, ..., c_r with c_i(N) = c_i * H^i, plus the degree
  d of the subvariety.  In this range d equals the self-intersection
  number c_r, and the constructor enforces d = c_r unless the caller
  explicitly opts into inconsistent data for evaluating suspect printed
  formulas verbatim.

Both are immutable; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .classpoly import TruncatedClassPoly, binomial_power
from .combinat import binomial
from .errors import AmbientMismatchError, HypothesisError


@dataclass(frozen=True)
class BundleSpec:
    """A bundle on P^n presented by rank and total Chern class."""

    ambient_dim: int
    rank: int
    total_chern: TruncatedClassPoly

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.total_chern.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("total Chern class lives in the wrong ring")
        if self.total_chern.coeffs[0] != 1:
            raise ValueError("total Chern class must have constant term 1")
        for k in range(self.rank + 1, self.ambient_dim + 1):
            if self.total_chern.coeffs[k] != 0:
                raise ValueError(f"c_{k} must vanish for a rank-{self.rank} bundle")

    def __add__(self, other: "BundleSpec") -> "BundleSpec":
        return direct_sum(self, other)

    def twist(self, t: int) -> "BundleSpec":
        return twist(self, t)


@dataclass(frozen=True)
class ChernVector:
    """Barth-range Chern data of a codimension-r subvariety of P^n."""

    ambient_dim: int
    codim: int
    c: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if self.codim < 1:
            raise ValueError("codimension must be >= 1")
        if len(self.c) != self.codim + 1:
            raise ValueError(
                f"need c_0..c_{self.codim}, got {len(self.c)} entries"
            )
        if self.c[0] != 1:
            raise ValueError("c_0 must be 1")

    @classmethod
    def make(
        cls,
        ambient_dim: int,
        c: Sequence[int],
        degree: int | None = None,
        allow_inconsistent_degree: bool = False,
    ) -> "ChernVector":
        """Build from c_0..c_r; degree defaults to c_r.

        An explicit degree different from c_r is rejected unless
        ``allow_inconsistent_degree`` is set (used only to probe printed
        formulas with independent d).
        """
        cc = tuple(int(x) for x in c)
        r = len(cc) - 1
        d = cc[r] if degree is None else int(degree)
        if d != cc[r] and not allow_inconsistent_degree:
            raise HypothesisError(
                f"degree {d} contradicts the self-intersection value c_{r} = {cc[r]}"
            )
        return cls(ambient_dim, r, cc, d)

    @property
    def degree_consistent(self) -> bool:
        return self.degree == self.c[self.codim]


Bundlish = Union[BundleSpec, ChernVector]


# -- constructors -------------------------------------------------------


def line_bundle(ambient_dim: int, a: int) -> BundleSpec:
    """O(a) on P^n, total Chern class 1 + a*H."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return BundleSpec(
        ambient_dim, 1, TruncatedClassPoly.from_coeffs(ambient_dim, [1, a])
    )


def trivial_bundle(ambient_dim: int) -> BundleSpec:
    return line_bundle(ambient_dim, 0)


def tangent_bundle(ambient_dim: int) -> BundleSpec:
    """The tangent bundle of P^n: rank n, total Chern class (1+H)^(n+1)."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return BundleSpec(
        ambient_dim, ambient_dim, binomial_power(ambient_dim, 1, ambient_dim + 1)
    )


def direct_sum(a: BundleSpec, b: BundleSpec) -> BundleSpec:
    """Whitney sum: ranks add, total Chern classes multiply."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: P^{a.ambient_dim} vs P^{b.ambient_dim}"
        )
    return BundleSpec(a.ambient_dim, a.rank + b.rank, a.total_chern * b.total_chern)


def complete_intersection_bundle(ambient_dim: int, degrees: Sequence[int]) -> BundleSpec:
    """O(d_1) + ... + O(d_r), the bundle cutting out CI(d_1..d_r).

    c_k is the k-th elementary symmetric function of the degrees, built
    up one degree at a time in O(r^2) integer steps; classes of degree
    beyond the ambient dimension are truncated away, as in the Whitney
    product of the line bundles.
    """
    if not degrees:
        raise ValueError("need at least one degree")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    c = [1] + [0] * len(degrees)
    for m, d in enumerate(degrees, start=1):
        for k in range(m, 0, -1):
            c[k] += d * c[k - 1]
    return BundleSpec(
        ambient_dim, len(degrees), TruncatedClassPoly.from_coeffs(ambient_dim, c)
    )


# -- Chern data access ---------------------------------------------------


def chern_coefficients(e: Bundlish) -> list[int | Fraction]:
    """c_0..c_r as scalars (coefficient of H^i in c_i).

    For a BundleSpec the list is read off the truncated total Chern class;
    entries of degree beyond the ambient dimension are zero in the ring.
    """
    if isinstance(e, ChernVector):
        return list(e.c)
    n, r = e.ambient_dim, e.rank
    return [e.total_chern.coeffs[i] if i <= n else 0 for i in range(r + 1)]


def rank_of(e: Bundlish) -> int:
    return e.codim if isinstance(e, ChernVector) else e.rank


def twist(e: Bundlish, t: int):
    """E(t) = E tensor O(t).

    Chern data transforms by c_k(E(t)) = sum_i binom(r-i, k-i) c_i t^(k-i)
    with r the rank (the codimension, for abstract normal data).  Twisting
    a ChernVector re-derives the degree from the twisted top class so the
    result is self-consistent.
    """
    r = rank_of(e)
    cs = chern_coefficients(e)

    def twisted(k: int):
        return sum(
            binomial(r - i, k - i) * cs[i] * t ** (k - i) for i in range(k + 1)
        )

    if isinstance(e, ChernVector):
        new_c = [int(twisted(k)) for k in range(r + 1)]
        return ChernVector.make(e.ambient_dim, new_c)
    n = e.ambient_dim
    coeffs = [twisted(k) for k in range(min(r, n) + 1)]
    return BundleSpec(n, r, TruncatedClassPoly.from_coeffs(n, coeffs))


def top_chern_twisted(e: Bundlish, t: int) -> int | Fraction:
    """The scalar c_r(E(t)) = sum_i c_i * t^(r-i).

    This is the H^r coefficient of the top Chern class of the twist,
    evaluated by Horner's rule; integral Chern data gives an ``int``.
    """
    acc = 0
    for c in chern_coefficients(e):
        acc = acc * t + c
    return acc


def as_chern_vector(e: Bundlish) -> ChernVector:
    """Abstract Chern data of a bundle (degree = top Chern number)."""
    if isinstance(e, ChernVector):
        return e
    if e.rank > e.ambient_dim:
        raise HypothesisError(
            f"rank {e.rank} exceeds ambient dimension {e.ambient_dim}: "
            "top Chern data is truncated away"
        )
    cs = chern_coefficients(e)
    ints = []
    for x in cs:
        if Fraction(x).denominator != 1:
            raise HypothesisError("Chern coefficients are not integers")
        ints.append(int(x))
    return ChernVector.make(e.ambient_dim, ints)


# -- Segre classes --------------------------------------------------------


def _segre_unchecked(cv: ChernVector, k: int) -> int:
    n = cv.ambient_dim
    return sum(
        (-1) ** (k - i) * binomial(n + k - i, k - i) * cv.c[i]
        for i in range(min(k, cv.codim) + 1)
    )


def segre_coefficient(cv: ChernVector, k: int) -> int:
    """sigma_k with s_k(X) = sigma_k * H^k, from the expansion
    (1+H)^(-(n+1)) * c(N).

    The sign is (-1)^(k-i); this is the convention forced by sigma_0 = 1
    and verified against the polynomial route in the test suite.
    """
    if not 0 <= k <= cv.ambient_dim:
        raise IndexError(f"Segre index {k} out of range for P^{cv.ambient_dim}")
    return _segre_unchecked(cv, k)


def segre_series(cv: ChernVector) -> TruncatedClassPoly:
    """sum_k sigma_k H^k as a truncated polynomial (the full Segre series)."""
    n = cv.ambient_dim
    chern_poly = TruncatedClassPoly.from_coeffs(n, cv.c)
    return binomial_power(n, 1, n + 1).inverse() * chern_poly
