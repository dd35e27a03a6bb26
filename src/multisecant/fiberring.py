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
Delta_(i,j) = D_i + D_j + L.  This module builds no generator as an
element: the closed form is written in normal form directly, and the
recursion writes its factors as integers.  The generators L, D_i,
H_i and Delta_(i,j) are the test suite's oracle (``OracleRing`` in
tests/oracles.py).

Elements are immutable maps from monomials (L-exponent, D-subset bitmask)
to integer coefficients; normal form is unique, so equality of elements
is equality of maps.

The ring exists to replay the secant-degree recursion

    c_((k+1)r)(E^(k+1)) =
        c_(kr)(E^(k)) * c_r(q*E tensor O(-Delta_(1,k+1) ... -Delta_(k,k+1)))

symbolically and compare it against the closed form
prod_i c_r(E(-i)) * prod_i H_i^r, giving an oracle for the multisecant
degree formula that shares no code with the scalar product route.

Stage t of the recursion multiplies by sum_i c_(r-i) H_t^(r-i) N^i with
N = -sum_(j<t) Delta_(j,t).  That sum is evaluated by Horner's rule in N,
so the accumulated class is multiplied by N and by c H_t^m and never by
the expanded factor or a power of N.  Every class the recursion builds
is homogeneous, so the stages carry it as a map from D-mask to
coefficient plus one degree d: the term of mask S is L^(d-|S|) * D_S.
Both N and c H_t^m have the form L^(p-1) * (a_L L + sum_i a_i D_i):

    c H_t^m = L^(m-1) * (c L + c D_t),
    N       = (1-t) L + (1-t) D_t - sum_(j<t) D_j,

so the stages write down the integers a_L and a_i directly, and one
kernel multiplies a class by such a form: the term of S keeps its mask
with coefficient a_L - sum_(i in S) a_i (as D_i^2 = -L * D_i) and gains
D_i with coefficient a_i for each i not in S.  The secant count
needs only the top coefficient of the class times L^(n+k-(k+1)r); it
runs the stages on that power of L from the start, so the L^n = 0
truncation drops every term that can no longer reach the top monomial
while the class is being built.

The closed form needs no product at all.  Each H_i^r = L^(r-1) * (D_i + L),
and the k+1 factors carry distinct D_i, so no relation applies and the
product is scalar * sum_S L^((k+1)r-|S|) * D_S over the subsets S of the
factors, less the terms whose L-exponent reaches n.  ``__mul__`` and
``__add__`` stay the general arithmetic that the tests' ``OracleRing``
builds its elements with.

Integration sends the unique top monomial L^(n-1) * D_1...D_f to 1 and
every other monomial to 0; the normalization is pinned by the classical
chord count of the degree-4 space curve (see the test suite).
"""

from __future__ import annotations

from math import factorial, prod
from typing import TYPE_CHECKING

from .bundles import ChernVector, top_chern_twisted
from .errors import AmbientMismatchError, HypothesisError, Record

if TYPE_CHECKING:
    from fractions import Fraction

# Monomial key: (exponent of L, bitmask of D-generators present).
Monomial = tuple[int, int]


class FiberRingElement(Record):
    """Normal-form element of H*((T/Q)^factors) for P^ambient_dim.

    ``terms`` maps monomials to nonzero integer coefficients.  Instances
    are immutable (but unhashable: the term map is a dict).
    """

    __slots__ = ("ambient_dim", "factors", "terms")

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
        out: dict[Monomial, int] = {}
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

    def __pow__(self, exponent: int) -> "FiberRingElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = FiberRingElement(self.ambient_dim, self.factors, {(0, 0): 1})
        for _ in range(exponent):
            result = result * self
        return result


def integrate(x: FiberRingElement) -> int:
    """Pairing with the fundamental class.

    Reads off the coefficient of the unique top monomial
    L^(n-1) * D_1...D_f; every other normal-form monomial integrates to 0.
    """
    n, f = x.ambient_dim, x.factors
    return x.terms.get((n - 1, (1 << f) - 1), 0)


# -- the secant-degree computation ---------------------------------------


def _times_form(out: dict, x: dict, d: int, n: int, p: int, a_l: int, forms: list) -> None:
    """out += x * L^(p-1) * (a_l L + sum_i a_i D_i) on mask-keyed
    homogeneous classes in the ring over P^n.

    ``x`` maps D-masks S to the coefficients of a class of degree d, so
    the term of S is L^(d-|S|) * D_S; ``forms`` lists the pairs
    (bit of D_i, a_i).  ``out`` holds degree d + p.  The term of S keeps
    its mask with coefficient a_l - sum_(i in S) a_i, because
    D_i^2 = -L * D_i, and gains D_i with coefficient a_i for each i not
    in S.  A term whose L-exponent reaches n is dropped.
    """
    # A term of S lands at L^(d+p-|S|) if it keeps S and at one L fewer
    # if it gains a D_i: both are dropped when |S| < cut, the kept one
    # also when |S| == cut.  As |S| <= d, p >= n drops every kept term
    # and p > n every term, so the form needs no truncating where
    # L^(p-1) or L^p vanishes, nor a_l when n = 1 (L = 0).
    cut = d + p - n
    get = out.get
    for s, c in x.items():
        size = s.bit_count()
        if size < cut or not c:
            continue
        keep = a_l
        for bit, a in forms:
            if s & bit:
                keep -= a
            else:
                m = s | bit
                out[m] = get(m, 0) + c * a
        if keep and size > cut:
            out[s] = get(s, 0) + c * keep


def _stages(e: ChernVector, k: int, excess: int) -> FiberRingElement:
    """L^excess * c_((k+1)r)(E^(k+1)): the stages of ``recursion_top_chern``
    run on L^excess.

    The running class is homogeneous of degree d, so it is carried as a
    map from D-mask S to the coefficient of L^(d-|S|) * D_S.  Each factor
    is passed to ``_times_form`` as its integers: c H_t^m as a_L = c and
    [(D_t, c)], N as a_L = 1-t and [(D_j, -1) for j < t] + [(D_t, 1-t)].
    The class becomes a ``FiberRingElement`` once, at the end.  Horner's
    rule in N: y = c_0 acc, then for i = r-1 down to 0,
    y = y * N + acc * c_(r-i) H_t^(r-i), the second product accumulated
    into y in place.
    """
    r, cs, n = e.codim, e.c, e.ambient_dim
    start = {0: 1} if excess < n else {}  # L^excess
    acc: dict[int, int] = {}
    _times_form(acc, start, excess, n, r, cs[r], [(1, cs[r])])
    d = excess + r
    for t in range(2, k + 2):
        bit = 1 << (t - 1)
        neg_delta_sum = [(1 << j, -1) for j in range(t - 1)] + [(bit, 1 - t)]
        y = acc  # c_0 = 1; the first product below leaves acc as it is
        for i in range(r - 1, -1, -1):
            y_times_n: dict[int, int] = {}
            _times_form(y_times_n, y, d + r - i - 1, n, 1, 1 - t, neg_delta_sum)
            y = y_times_n
            c = cs[r - i]
            if c != 0:
                _times_form(y, acc, d, n, r - i, c, [(bit, c)])
        acc = y
        d += r
    return FiberRingElement(n, k + 1, {(d - s.bit_count(), s): c for s, c in acc.items() if c})


def recursion_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """c_((k+1)r)(E^(k+1)) by iterating the exact-sequence recursion.

    The base case is c_r * H_1^r.  Stage t = 2..k+1 multiplies the
    accumulated class by

        c_r(q_t* E tensor O(-Delta_(1,t) - ... - Delta_(t-1,t)))
          = sum_{i=0}^{r} c_(r-i) H_t^(r-i) N^i,   N = -sum_(j<t) Delta_(j,t),

    with each c_i(E) pulled back through factor t as the scalar c_i times
    H_t^i.  The sum is evaluated by Horner's rule in N, so each stage costs
    r products with the degree-1 class N and at most r with c_i H_t^i,
    never a product with the expanded factor; ``_times_form`` does each.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _stages(e, k, 0)


def closed_form_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """prod_{i=0..k} c_r(E(-i)) times H_1^r ... H_(k+1)^r, in normal form.

    The product of the H_i^r = L^(r-1) * (D_i + L) over distinct factors is
    sum_S L^((k+1)r-|S|) * D_S, so every subset S of the factors carries
    the scalar; a term whose L-exponent reaches n vanishes, and a zero
    scalar gives no terms.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, degree = e.ambient_dim, (k + 1) * e.codim
    scalar = prod(top_chern_twisted(e, -i) for i in range(k + 1))
    masks = range(1 << (k + 1)) if scalar else ()
    terms = {(degree - s.bit_count(), s): scalar for s in masks if s.bit_count() > degree - n}
    return FiberRingElement(n, k + 1, terms)


def secant_count_via_ring(e: ChernVector, k: int) -> Fraction:
    """Degree of the (k+1)-secant locus computed inside the fiber ring:

        integrate(recursion class * L^(n+k-(k+1)r)) / (k+1)!

    Requires the dimension balance n + k >= (k+1)r, i.e. the class must
    fit inside the ring's top degree.

    The stages start from the class L^excess (degree excess, the empty
    D-mask) instead of multiplying by L^excess at the end.  The ring is
    commutative and L^n = 0, so the product is the same, but every
    intermediate term already carries L^excess and the kernel drops each
    term whose L-exponent d - |S| reaches n: those can never reach the
    top monomial.  The late stages shrink to a few terms instead of
    2^(k+1) monomials.

    The class is integral; the 1/(k+1)! is the one division, and the only
    use of ``fractions`` in this module.
    """
    from fractions import Fraction

    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = e.ambient_dim
    r = e.codim
    excess = n + k - (k + 1) * r
    if excess < 0:
        raise HypothesisError(
            f"dimension balance violated: n+k = {n + k} < (k+1)r = {(k + 1) * r}"
        )
    return Fraction(integrate(_stages(e, k, excess)), factorial(k + 1))
