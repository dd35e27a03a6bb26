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

Every class here is homogeneous, so an element stores its degree d once
and maps each D-subset bitmask S to the integer coefficient of
L^(d-|S|) * D_S, leaving out zero terms and the dead ones with
d - |S| >= n.  A product has degree d1 + d2 and keys its monomial by
S1 | S2.  Normal form is unique, so equality of elements is equality of
degrees and maps.

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
is homogeneous, so the stages carry a class of degree d over D_1..D_t as
one integer X = sum_S x_S 2^(W S) of 2^t signed fields of W bits: the
field of S holds the coefficient of L^(d-|S|) * D_S.  Written in the
generators,

    c H_t^m = c L^(m-1) * (L + D_t),
    N       = (1-t) (L + D_t) - sum_(j<t) D_j,

and the relations become field rules.  Split the class into P, the masks
without D_t, and Q, those with it.  As (L + D_t) D_t = 0, multiplying by
(L + D_t) sends P + Q D_t to P + P D_t.  As D_j D_S = -L D_S for j in S,
multiplying by -sum_(j<t) D_j sends a half v to U(v), where
U(v)[S] = |S| v[S] - sum_(j in S) v[S - j].  So a Horner step writes
y * N + acc * c H_t^m as the halves (1-t) P + c acc + U(P) and
(1-t) P + c acc + U(Q), linear over the fields and so exact on the
packed integers.  Over b bits, with B = 2^(W-1) in every field and y_j
the fields of v + B whose index lacks bit j,

    U(v) = b (v + B) - sum_j (y_j + (y_j << W 2^j)),

as the bias terms sum to b B; the bias makes each field nonnegative, so
a mask reads it alone.  ``_width`` bounds every field the kernel holds,
so no field spills into the next.  L^n = 0 kills the fields with
d - |S| >= n, which the stages carry to the end: an L-exponent never
falls, so a dead field feeds only dead fields.  As the fields are indexed
by S, they are the term map as it stands: X + B is written out once as
bytes, cut into fields by ``struct.iter_unpack`` one at a time, and
each field is read back unsigned less 2^(W-1), all at C level; the map
keeps the nonzero fields, and only when d >= n drops the dead ones.

The secant count needs only the top coefficient of the class times
L^(n+k-(k+1)r).  It runs the stages on that power of L from the start,
on a second layout: one list per popcount level s, holding the slots of
the masks of popcount s in ascending order, from the floor d - n + 1
up.  Below the floor L^(d-s) = 0, and a slot's L-exponent never falls,
so a dead slot feeds only dead slots and each step drops its dead levels
at once; late in the count only a few levels are live.  U maps level
s - 1 into level s through one index table per set bit, each gathered
at C level.

The closed form needs no product at all.  Each H_i^r = L^(r-1) * (D_i + L),
and the k+1 factors carry distinct D_i, so no relation applies and the
product is scalar * sum_S L^((k+1)r-|S|) * D_S over the subsets S of the
factors, less the terms whose L-exponent reaches n.  ``__mul__`` and
``__add__`` stay the general arithmetic that the tests' ``OracleRing``
builds its elements with: a product adds the degrees, and a sum needs
equal ones.  Negation, powers and integration are the tests' own
(tests/oracles.py).

Integration sends the unique top monomial L^(n-1) * D_1...D_f to 1 and
every other monomial to 0, so the count's integral is the coefficient of
that monomial; the normalization is pinned by the classical chord count
of the degree-4 space curve (see the test suite).
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import comb, factorial, prod
from operator import add, itemgetter, mul, sub
from struct import iter_unpack
from typing import TYPE_CHECKING

from .bundles import ChernVector, top_chern_twisted
from .errors import AmbientMismatchError, HypothesisError, Record

if TYPE_CHECKING:
    from fractions import Fraction

class FiberRingElement(Record):
    """Homogeneous normal-form element of degree ``degree`` of
    H*((T/Q)^factors) for P^ambient_dim.

    ``terms`` maps a D-subset mask S to the nonzero integer coefficient of
    L^(degree-|S|) * D_S; a mask with degree - |S| >= n has no term.
    Instances are immutable (but unhashable: the term map is a dict).
    """

    __slots__ = ("ambient_dim", "factors", "degree", "terms")

    def _check_compat(self, other: "FiberRingElement"):
        if (self.ambient_dim, self.factors) != (other.ambient_dim, other.factors):
            raise AmbientMismatchError(
                f"ring shapes differ: (n={self.ambient_dim}, f={self.factors}) vs "
                f"(n={other.ambient_dim}, f={other.factors})"
            )

    def __add__(self, other: "FiberRingElement") -> "FiberRingElement":
        self._check_compat(other)
        if self.degree != other.degree:
            raise ValueError(f"degrees differ: {self.degree} vs {other.degree}")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return FiberRingElement(
            self.ambient_dim, self.factors, self.degree, {s: c for s, c in out.items() if c}
        )

    def __mul__(self, other: "FiberRingElement") -> "FiberRingElement":
        self._check_compat(other)
        degree = self.degree + other.degree
        floor = degree - self.ambient_dim  # L^(degree-|S|) = 0 when |S| <= floor
        out = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                c = -c1 * c2 if (s1 & s2).bit_count() % 2 else c1 * c2
                out[s1 | s2] = out.get(s1 | s2, 0) + c
        return FiberRingElement(
            self.ambient_dim, self.factors, degree,
            {s: c for s, c in out.items() if c and s.bit_count() > floor}
        )


# -- the secant-degree computation ---------------------------------------


def _width(cs: tuple[int, ...], k: int) -> int:
    """The field width W of ``recursion_top_chern`` on Chern data cs:
    every field the kernel holds, dead ones included, has |x| < 2^(W-2).

    Let A bound the fields of a stage's acc (|c_r| at the start) and V
    those of its halves P and Q, which start at A and 0.  In a step over
    t - 1 bits, |(1-t) P + c acc| <= (t-1) V + |c| A and |U(v)[S]| <=
    2 |S| |v| <= 2 (t-1) V, so the new halves are bounded by
    3 (t-1) V + |c| A >= V.  The join adds nothing and nothing is cut
    before the unpack, so the last stage's V bounds every field.  W is
    its bit length plus 2, rounded up to whole bytes.
    """
    top = abs(cs[-1])
    for t in range(2, k + 2):
        v = top
        for c in cs[1:]:
            v = 3 * (t - 1) * v + abs(c) * top
        top = v
    return (top.bit_length() + 9) // 8 * 8


def _masks(bits: int, width: int):
    """For j = bits-1 down to 0: j and the mask of the fields (2^bits, W
    bits each) whose index lacks bit j.  The first is the lower half, and
    each next one the last xor itself shifted by 2^(j-1) fields, as 0x0f0f
    gives 0x3333 and 0x5555; one mask is alive at a time."""
    keep = (1 << (width << bits >> 1)) - 1
    for j in range(bits - 1, -1, -1):
        yield j, keep
        if j:
            keep ^= keep << (width << j >> 1)


def _step(p: int, q: int, acc: int, c: int, bits: int, width: int, bias: int):
    """One Horner step of stage t = bits + 1: the halves of
    y * N_t + c * acc * H_t^m, each over 2^bits fields of W bits.

    y = P + Q D_t is a class of degree d over D_1..D_t, given as its
    halves P (masks without D_t) and Q (the masks with D_t, less D_t);
    acc is a class of degree d + 1 - m over D_1..D_(t-1).  U is one
    masked shift-add per bit on v + B, B = ``bias``.  A zero Q half, as
    at a stage's first step, has U(Q) = 0 and is not run.
    """
    base = c * acc - bits * p  # 1 - t = -bits
    p += bias
    q = q and q + bias
    up, uq = base + bits * p, base + bits * q
    for j, keep in _masks(bits, width):
        y = p & keep
        up -= y + (y << (width << j))
        if q:
            y = q & keep
            uq -= y + (y << (width << j))
    return up, uq


def _terms(raw, step, floor):
    """The term map of the fields of ``step`` bytes each in ``raw``, the
    little-endian bytes of X + B, less the dead masks S with
    |S| <= floor = d - n.  Each field is read unsigned less 2^(8 step - 1)
    and kept when nonzero, one field at a time and at C level unless some
    mask is dead."""
    chunks = map(itemgetter(0), iter_unpack(f"{step}s", raw))
    fields = map(sub, map(int.from_bytes, chunks, repeat("little")), repeat(1 << (8 * step - 1)))
    if floor < 0:
        return dict(filter(itemgetter(1), enumerate(fields)))
    return {s: c for s, c in enumerate(fields) if c and s.bit_count() > floor}


def recursion_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """c_((k+1)r)(E^(k+1)) by iterating the exact-sequence recursion.

    The base case is c_r * H_1^r = c_r L^r + c_r L^(r-1) D_1.  Stage
    t = 2..k+1 multiplies the accumulated class by

        c_r(q_t* E tensor O(-Delta_(1,t) - ... - Delta_(t-1,t)))
          = sum_{i=0}^{r} c_(r-i) H_t^(r-i) N^i,   N = -sum_(j<t) Delta_(j,t),

    with each c_i(E) pulled back through factor t as the scalar c_i times
    H_t^i.  The sum is evaluated by Horner's rule in N, so each stage costs
    r products with the degree-1 class N and at most r with c_i H_t^i,
    never a product with the expanded factor: y = c_0 acc, then for
    i = r-1 down to 0, y = y * N + acc * c_(r-i) H_t^(r-i), each pair a
    ``_step``.

    Each class is packed as in the module docstring.  Nearly every field
    of the recursion's classes is live, so a packed half costs a few
    whole-integer operations where a list costs a Python step per slot.
    The class is unpacked once, at the end, straight into its term map
    (``_terms``): field S is the coefficient of L^(d-|S|) D_S, so no key
    is built per term.  The count stays on ``_live_stages``'s levels:
    packed, it would carry every dead field, nearly all of them late in
    the count.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    r, cs, n = e.codim, e.c, e.ambient_dim
    width = _width(cs, k)
    bias = (1 << (width - 1)) * (1 + (1 << width))  # B over acc's fields
    acc = cs[r] * (1 + (1 << width))
    for t in range(2, k + 2):
        p, q = acc, 0  # c_0 = 1
        for c in cs[1:]:
            p, q = _step(p, q, acc, c, t - 1, width, bias)
        bias |= bias << (width << (t - 1))
        acc = p + (q << (width << (t - 1)))
    step, size, d = width // 8, 2 << k, (k + 1) * r
    raw = (acc + bias).to_bytes(step * size, "little")
    p = q = acc = bias = None  # freed: the unpack's peak holds raw and the terms alone
    return FiberRingElement(n, k + 1, d, _terms(raw, step, d - n))


def closed_form_top_chern(e: ChernVector, k: int) -> FiberRingElement:
    """prod_{i=0..k} c_r(E(-i)) times H_1^r ... H_(k+1)^r, in normal form.

    The product of the H_i^r = L^(r-1) * (D_i + L) over distinct factors is
    sum_S L^((k+1)r-|S|) * D_S, so every subset S of the factors carries
    the scalar: the term map is one ``dict.fromkeys`` over the masks.  A
    term whose L-exponent reaches n vanishes, and a zero scalar gives no
    terms.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, degree = e.ambient_dim, (k + 1) * e.codim
    scalar = prod(top_chern_twisted(e, -i) for i in range(k + 1))
    masks = range(1 << (k + 1)) if scalar else ()
    if degree >= n:  # L^n = 0 kills the masks with |S| <= degree - n
        masks = [s for s in masks if s.bit_count() > degree - n]
    return FiberRingElement(n, k + 1, degree, dict.fromkeys(masks, scalar))


@cache
def _ranks(bits: int, s: int) -> tuple[tuple[int, ...], ...]:
    """For each mask of popcount s below 2^bits, in ascending order, the
    rank in level s - 1 of the mask less its k-th set bit, for k = 0..s-1
    from the lowest bit up.  Level s over ``bits`` bits is level s over
    bits - 1 followed by level s - 1 over bits - 1 with the top bit added,
    so the table is built from the two tables one bit down: a mask with
    the top bit keeps it when a lower bit goes, and loses it to land on
    its own rank one bit down."""
    if s == 0:
        return ((),)
    if s > bits:
        return ()
    shift = comb(bits - 1, s - 1)  # the masks of level s - 1 without the top bit
    return _ranks(bits - 1, s) + tuple(
        tuple(shift + x for x in lower) + (i,) for i, lower in enumerate(_ranks(bits - 1, s - 1))
    )


@cache
def _gathers(bits: int, s: int) -> tuple[itemgetter, ...]:
    """For k = 0..s-1, a getter that reads from level s - 1 over ``bits``
    bits, for each mask of level s, the slot of the mask less its k-th set
    bit.  A one-mask level reads through a slice, as ``itemgetter`` with
    one index returns the item itself rather than a tuple."""
    ranks = _ranks(bits, s)
    if len(ranks) == 1:
        return tuple(itemgetter(slice(i, i + 1)) for i in ranks[0])
    return tuple(itemgetter(*column) for column in zip(*ranks))


def _level_plus_u(base: list, v: list, floor: int) -> list:
    """base + U(v) on the levels from ``floor`` up, None below it.

    U(v)_s = s v_s - sum_k v_(s-1)[S less its k-th set bit] maps level
    s - 1 into level s; each gather is one C-level ``itemgetter`` call.
    """
    out = [None] * len(v)
    bits = len(v) - 1
    for s in range(floor, bits + 1):
        w = map(add, base[s], map(mul, repeat(s), v[s]))
        for gather in _gathers(bits, s):
            w = map(sub, w, gather(v[s - 1]))
        out[s] = list(w)
    return out


def _level_step(p: list, q: list | None, acc: list, a: int, c: int, floor: int):
    """``_step`` on live levels: the halves of y * N_t + c * acc * H_t^m,
    each a list of levels over D_1..D_(t-1).  ``floor``, the result's
    degree less n, is the lowest live level of the Q half, whose masks
    carry D_t besides; the P half's is one more.  A Q half of None, as at
    the first step of a stage, has U(Q) = 0."""
    base = [None] * len(p)
    for s in range(max(floor, 0), len(p)):
        base[s] = [a * x + c * y for x, y in zip(p[s], acc[s])]
    p = _level_plus_u(base, p, max(floor + 1, 0))
    return p, base if q is None else _level_plus_u(base, q, max(floor, 0))


def _live_stages(e: ChernVector, k: int, excess: int) -> list:
    """L^excess * c_((k+1)r)(E^(k+1)) on its live popcount levels, the
    count's layout in the module docstring; a level below the floor
    d - n + 1 is None.  At a stage's end the halves join level by level:
    level s over t bits is P's level s followed by Q's level s - 1.
    """
    r, cs, n = e.codim, e.c, e.ambient_dim
    d = excess + r
    acc = [[cs[r]] if s > d - n else None for s in range(2)]
    for t in range(2, k + 2):
        p, q = acc, None  # c_0 = 1
        for i in range(r - 1, -1, -1):
            d += 1
            p, q = _level_step(p, q, acc, 1 - t, cs[r - i], d - n)
        acc = [
            (p[s] if s < t else []) + (q[s - 1] if s else []) if s > d - n else None
            for s in range(t + 1)
        ]
    return acc


def secant_count_via_ring(e: ChernVector, k: int) -> Fraction:
    """Degree of the (k+1)-secant locus computed inside the fiber ring:

        integrate(recursion class * L^(n+k-(k+1)r)) / (k+1)!

    Requires the dimension balance n + k >= (k+1)r, i.e. the class must
    fit inside the ring's top degree.

    The stages start from the class L^excess (the empty D-mask) instead
    of multiplying by it at the end.  The ring is commutative, so the
    product is the same, but every term then carries L^excess, so the
    floor d - n + 1 below which a level is dead rises with the degree d,
    and ``_live_stages`` runs each step over the live levels only.  The
    last stage ends at degree n + k with one live slot, the top monomial
    L^(n-1) D_1...D_(k+1), whose coefficient is the integral.

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
    return Fraction(_live_stages(e, k, excess)[k + 1][0], factorial(k + 1))
