"""Symbolic cohomology of fiber powers of the blow-up of P^n at a point.

Let T be the blow-up of P^n at a point, a P^1-bundle over the space
Q = P^(n-1) of lines through that point, and let (T/Q)^f be the f-fold
fibered self-product.  Its cohomology ring is generated by

    L        the pullback of the hyperplane class of Q,
    D_1..D_f one tautological class per factor,

subject to the relations

    D_i^2 + L * D_i = 0        (the Wu-Chern quadratic relation)
    L^n = 0                    (truncation in H*(P^(n-1)))

so a normal-form monomial is L^e * prod_{i in S} D_i with e < n and
S a subset of {1..f}: after reduction every D-exponent is 0 or 1.  The
key consequence is that a product of two monomials is again a single
monomial up to sign,

    (e1, S1) * (e2, S2) = (-1)^(common) * (e1 + e2 + common, S1 | S2),

with common = |S1 & S2|, so ring multiplication never expands.  The
hyperplane class pulled back from P^n through factor i is H_i = D_i + L,
and the class of the diagonal where factors i and j agree is
Delta_(i,j) = D_i + D_j + L.

Elements are immutable maps from monomials (L-exponent, D-subset bitmask)
to exact coefficients; normal form is unique, so equality of elements is
equality of maps.

The ring exists to replay the secant-degree recursion

    c_((k+1)r)(E^(k+1)) =
        c_(kr)(E^(k)) * c_r(q*E tensor O(-Delta_(1,k+1) ... -Delta_(k,k+1)))

symbolically and compare it against the closed form
prod_i c_r(E(-i)) * prod_i H_i^r, giving an oracle for the multisecant
degree formula that shares no code with the scalar product route.

Stage t of the recursion multiplies by sum_i c_(r-i) H_t^(r-i) N^i with
N = -sum_(j<t) Delta_(j,t).  That sum is evaluated by Horner's rule in N,
so the accumulated class is multiplied by N (t+1 terms) and by H_t^m
(two terms) and never by the expanded factor or a power of N.  The
secant count needs only the top coefficient of the class times
L^(n+k-(k+1)r); it runs the stages on that power of L from the start,
so the L^n = 0 truncation drops every term that can no longer reach the
top monomial while the class is being built.

Integration sends the unique top monomial L^(n-1) * D_1...D_f to 1 and
every other monomial to 0; the normalization is pinned by the classical
chord count of the degree-4 space curve (see the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .bundles import ChernVector, top_chern_twisted
from .errors import AmbientMismatchError, HypothesisError

# Monomial key: (exponent of L, bitmask of D-generators present).
Monomial = tuple[int, int]


def _check_index(i: int, factors: int):
    if not 1 <= i <= factors:
        raise IndexError(f"factor index {i} out of range 1..{factors}")


@dataclass(frozen=True, eq=True)
class FiberRingElement:
    """Normal-form element of H*((T/Q)^factors) for P^ambient_dim.

    ``terms`` maps monomials to nonzero exact coefficients.  Instances are
    immutable (but unhashable: the term map is a dict).
    """

    ambient_dim: int
    factors: int
    terms: Mapping[Monomial, Fraction | int]

    def _check_compat(self, other: "FiberRingElement"):
        if (self.ambient_dim, self.factors) != (other.ambient_dim, other.factors):
            raise AmbientMismatchError(
                f"ring shapes differ: (n={self.ambient_dim}, f={self.factors}) vs "
                f"(n={other.ambient_dim}, f={other.factors})"
            )

    def __add__(self, other: "FiberRingElement") -> "FiberRingElement":
        self._check_compat(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return FiberRingElement(self.ambient_dim, self.factors, out)

    def __neg__(self) -> "FiberRingElement":
        return FiberRingElement(
            self.ambient_dim, self.factors, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "FiberRingElement") -> "FiberRingElement":
        return self + (-other)

    def __mul__(self, other: "FiberRingElement") -> "FiberRingElement":
        self._check_compat(other)
        n = self.ambient_dim
        out: dict[Monomial, Fraction | int] = {}
        for (e1, s1), c1 in self.terms.items():
            for (e2, s2), c2 in other.terms.items():
                common = (s1 & s2).bit_count()
                e = e1 + e2 + common
                if e >= n:
                    continue
                key = (e, s1 | s2)
                c = c1 * c2 if common % 2 == 0 else -c1 * c2
                acc = out.get(key, 0) + c
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return FiberRingElement(n, self.factors, out)

    def scale(self, factor) -> "FiberRingElement":
        if factor == 0:
            return FiberRingElement(self.ambient_dim, self.factors, {})
        return FiberRingElement(
            self.ambient_dim,
            self.factors,
            {m: c * factor for m, c in self.terms.items()},
        )

    def __pow__(self, exponent: int) -> "FiberRingElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = FiberRing(self.ambient_dim, self.factors).one()
        for _ in range(exponent):
            result = result * self
        return result

    def is_zero(self) -> bool:
        """Whether every coefficient vanishes.  Used by the ring-relation
        and recursion tests in tests/test_fiberring.py (``TestRelations``,
        ``TestRecursion::test_trivial_bundle_dies``)."""
        return not self.terms

    def coefficient(self, l_exponent: int, indices: tuple[int, ...]) -> Fraction:
        """Coefficient of the normal-form monomial L^l_exponent * prod_{i in indices} D_i.

        A repeated index or an L-exponent outside 0..n-1 names no
        normal-form monomial and raises ``IndexError``.
        """
        if not 0 <= l_exponent < self.ambient_dim:
            raise IndexError(
                f"L-exponent {l_exponent} out of range 0..{self.ambient_dim - 1}"
            )
        mask = 0
        for i in indices:
            _check_index(i, self.factors)
            if mask >> (i - 1) & 1:
                raise IndexError(f"factor index {i} repeated: D_{i}^2 is not in normal form")
            mask |= 1 << (i - 1)
        return Fraction(self.terms.get((l_exponent, mask), 0))


class FiberRing:
    """Factory for elements of H*((T/Q)^factors) over P^ambient_dim."""

    def __init__(self, ambient_dim: int, factors: int):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if factors < 1:
            raise ValueError("need at least one factor")
        self.ambient_dim = ambient_dim
        self.factors = factors

    def _element(self, terms: dict) -> FiberRingElement:
        return FiberRingElement(self.ambient_dim, self.factors, terms)

    def zero(self) -> FiberRingElement:
        return self._element({})

    def one(self) -> FiberRingElement:
        return self._element({(0, 0): 1})

    def scalar(self, c) -> FiberRingElement:
        return self._element({(0, 0): c} if c != 0 else {})

    def l_class(self) -> FiberRingElement:
        """L, the pullback of the hyperplane class of Q = P^(n-1)."""
        if self.ambient_dim == 1:
            return self.zero()
        return self._element({(1, 0): 1})

    def exceptional(self, i: int) -> FiberRingElement:
        """D_i, the tautological class on the i-th factor."""
        _check_index(i, self.factors)
        return self._element({(0, 1 << (i - 1)): 1})

    def hyperplane_class(self, i: int) -> FiberRingElement:
        """H_i = D_i + L, the hyperplane of P^n through the i-th projection.

        The recursion uses ``hyperplane_power``; this sum of generators is
        the independent oracle ``TestRelations::test_hyperplane_power_collapse``
        in tests/test_fiberring.py compares it with.
        """
        _check_index(i, self.factors)
        return self.exceptional(i) + self.l_class()

    def diagonal_class(self, i: int, j: int) -> FiberRingElement:
        """Delta_(i,j) = D_i + D_j + L, the locus where factors i and j agree."""
        if i == j:
            raise IndexError(f"diagonal needs two distinct factors, got {i} == {j}")
        _check_index(i, self.factors)
        _check_index(j, self.factors)
        return self.exceptional(i) + self.exceptional(j) + self.l_class()

    def hyperplane_power(self, i: int, exponent: int) -> FiberRingElement:
        """H_i^m in closed form: L^(m-1) * (D_i + L) for m >= 1."""
        _check_index(i, self.factors)
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        if exponent == 0:
            return self.one()
        n = self.ambient_dim
        terms: dict[Monomial, Fraction | int] = {}
        if exponent - 1 < n:
            terms[(exponent - 1, 1 << (i - 1))] = 1
        if exponent < n:
            terms[(exponent, 0)] = 1
        return self._element(terms)

    def top_monomial(self) -> FiberRingElement:
        """L^(n-1) * D_1 ... D_f, the fundamental-class monomial.

        ``integrate`` reads this monomial's coefficient directly; the
        normalization test ``TestRingAxioms::test_integrate_normalization``
        in tests/test_fiberring.py builds it here to check that reading.
        """
        return self._element({(self.ambient_dim - 1, (1 << self.factors) - 1): 1})


def integrate(x: FiberRingElement) -> Fraction:
    """Pairing with the fundamental class.

    Reads off the coefficient of the unique top monomial
    L^(n-1) * D_1...D_f; every other normal-form monomial integrates to 0.
    """
    n, f = x.ambient_dim, x.factors
    return Fraction(x.terms.get((n - 1, (1 << f) - 1), 0))


# -- the secant-degree computation ---------------------------------------


def _stages(e: ChernVector, k: int, start: FiberRingElement) -> FiberRingElement:
    """start * c_((k+1)r)(E^(k+1)): the stages of ``recursion_top_chern``
    run on ``start``.  Horner's rule in N: y = c_0 acc, then for
    i = r-1 down to 0, y = y * N + c_(r-i) (acc * H_t^(r-i)).
    """
    r, cs = e.codim, e.c
    ring = FiberRing(e.ambient_dim, k + 1)
    acc = start * ring.hyperplane_power(1, r).scale(cs[r])
    for t in range(2, k + 2):
        neg_delta_sum = ring.zero()
        for j in range(1, t):
            neg_delta_sum = neg_delta_sum - ring.diagonal_class(j, t)
        y = acc.scale(cs[0])
        for i in range(r - 1, -1, -1):
            y = y * neg_delta_sum
            if cs[r - i] != 0:
                y = y + acc * ring.hyperplane_power(t, r - i).scale(cs[r - i])
        acc = y
    return acc


def recursion_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """c_((k+1)r)(E^(k+1)) by iterating the exact-sequence recursion.

    The base case is c_r * H_1^r.  Stage t = 2..k+1 multiplies the
    accumulated class by

        c_r(q_t* E tensor O(-Delta_(1,t) - ... - Delta_(t-1,t)))
          = sum_{i=0}^{r} c_(r-i) H_t^(r-i) N^i,   N = -sum_(j<t) Delta_(j,t),

    with each c_i(E) pulled back through factor t as the scalar c_i times
    H_t^i.  The sum is evaluated by Horner's rule in N, so each stage costs
    r products with the (t+1)-term class N and at most r with the two-term
    H_t^m, never a product with the expanded factor.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _stages(e, k, FiberRing(e.ambient_dim, k + 1).one())


def closed_form_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """prod_{i=0..k} c_r(E(-i)) times H_1^r ... H_(k+1)^r, in normal form."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = e.ambient_dim
    r = e.codim
    ring = FiberRing(n, k + 1)
    scalar = 1
    for i in range(k + 1):
        scalar *= top_chern_twisted(e, -i)
    out = ring.scalar(scalar)
    for i in range(1, k + 2):
        out = out * ring.hyperplane_power(i, r)
    return out


def secant_count_via_ring(e: ChernVector, k: int) -> Fraction:
    """Degree of the (k+1)-secant locus computed inside the fiber ring:

        integrate(recursion class * L^(n+k-(k+1)r)) / (k+1)!

    Requires the dimension balance n + k >= (k+1)r, i.e. the class must
    fit inside the ring's top degree.

    The stages run on L^excess times the recursion's start instead of
    multiplying by L^excess at the end.  The ring is commutative and
    L^n = 0, so the product is the same, but every intermediate term
    already carries L^excess and the multiply drops each term whose
    L-exponent reaches n: those can never reach the top monomial.  The
    late stages shrink to a few terms instead of 2^(k+1) monomials.
    """
    n = e.ambient_dim
    r = e.codim
    excess = n + k - (k + 1) * r
    if excess < 0:
        raise HypothesisError(
            f"dimension balance violated: n+k = {n + k} < (k+1)r = {(k + 1) * r}"
        )
    l_power = FiberRing(n, k + 1).l_class() ** excess
    return integrate(_stages(e, k, l_power)) / factorial(k + 1)
