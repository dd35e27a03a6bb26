"""Independent oracles the tests check the package against.

Nothing in ``src/`` can import this module, so the code under test never
calls the oracle that checks it.  The name has no ``test_`` prefix, so
pytest does not collect it.

* ``print_bundle``: the canonical text of a parsed tree, for the parser
  round trip.
* ``double_point_expansion``: d - c_(r-1) + c_(r-2) - ..., a second route
  to c_r(N(-1)).
* ``OracleRing``: a factory for fiber-ring elements: scalars, the
  generators L, D_i, H_i and Delta_(i,j), and H_i^m, which the package
  writes only as integers or, in the closed form, as its normal form.
  Each is homogeneous: scalars have degree 0, the generators degree 1
  and H_i^m degree m.  It builds ``OracleElement``s, which add negation,
  subtraction and powers to the package's sums and products.
* ``integrate``: the pairing with the fundamental class.
* ``coefficient``: one coefficient of a fiber-ring element, with the
  normal-form checks on its monomial.

An element maps each D-subset mask S to the coefficient of
L^(degree-|S|) * D_S, so both read the mask map and check the degree.
"""

from multisecant.exprs import (
    AbstractNormalExpr,
    BundleExpr,
    LineBundleExpr,
    SumExpr,
    TangentExpr,
    TwistExpr,
)
from multisecant.fiberring import FiberRingElement


def print_bundle(tree: BundleExpr) -> str:
    """The canonical text of ``tree``: twist targets are parenthesized,
    and so is a sum nested in a sum, so that parsing the text back gives
    ``tree`` again."""
    if isinstance(tree, LineBundleExpr):
        return f"O({tree.a})"
    if isinstance(tree, TangentExpr):
        return "T"
    if isinstance(tree, SumExpr):
        return "+".join(
            f"({print_bundle(t)})" if isinstance(t, SumExpr) else print_bundle(t)
            for t in tree.terms
        )
    if isinstance(tree, TwistExpr):
        return f"({print_bundle(tree.sub)})@({tree.t})"
    if isinstance(tree, AbstractNormalExpr):
        c_list = ",".join(str(x) for x in tree.c)
        d_part = f",d={tree.degree}" if tree.degree is not None else ""
        return f"N{{r={tree.codim},c=[{c_list}]{d_part}}}"
    raise TypeError(f"not a bundle expression: {tree!r}")


def double_point_expansion(cv) -> int:
    """The alternating sum d - c_(r-1) + c_(r-2) - ... from the
    double-point formula for a generic projection.

    Equals c_r(N(-1)) whenever the degree is self-consistent.
    """
    r = cv.codim
    total = cv.degree  # i = r term, with c_r read as d
    for i in range(r):
        total += (-1) ** (r - i) * cv.c[i]
    return total


class OracleElement(FiberRingElement):
    """A fiber-ring element with the operations only the tests use.

    Sums and products are the package's ``__add__`` and ``__mul__``, kept
    in this class; an element equals a package element with the same
    fields, so the tests compare the two directly.
    """

    def __eq__(self, other):
        if not isinstance(other, FiberRingElement):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = FiberRingElement.__hash__

    def __add__(self, other: FiberRingElement) -> "OracleElement":
        return OracleElement(*super().__add__(other)._fields())

    def __mul__(self, other: FiberRingElement) -> "OracleElement":
        return OracleElement(*super().__mul__(other)._fields())

    def __neg__(self) -> "OracleElement":
        terms = {s: -c for s, c in self.terms.items()}
        return OracleElement(self.ambient_dim, self.factors, self.degree, terms)

    def __sub__(self, other: FiberRingElement) -> "OracleElement":
        return self + (-other)

    def __pow__(self, exponent: int) -> "OracleElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = OracleElement(self.ambient_dim, self.factors, 0, {0: 1})
        for _ in range(exponent):
            result = result * self
        return result


def integrate(x: FiberRingElement) -> int:
    """Pairing with the fundamental class.

    Reads off the coefficient of the unique top monomial
    L^(n-1) * D_1...D_f, of degree n - 1 + f; every other normal-form
    monomial integrates to 0, and so does a class of any other degree.
    """
    n, f = x.ambient_dim, x.factors
    return x.terms.get((1 << f) - 1, 0) if x.degree == n - 1 + f else 0


def _check_index(i: int, factors: int):
    if not 1 <= i <= factors:
        raise IndexError(f"factor index {i} out of range 1..{factors}")


class OracleRing:
    """Elements of H*((T/Q)^factors) over P^ambient_dim, built from the
    generators with the package's general ``__mul__`` and ``__add__``, as
    ``OracleElement``s."""

    def __init__(self, ambient_dim: int, factors: int):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if factors < 1:
            raise ValueError("need at least one factor")
        self.ambient_dim = ambient_dim
        self.factors = factors

    def _element(self, degree: int, terms: dict) -> OracleElement:
        return OracleElement(self.ambient_dim, self.factors, degree, terms)

    def scalar(self, c) -> FiberRingElement:
        return self._element(0, {0: c} if c != 0 else {})

    def zero(self, degree: int) -> FiberRingElement:
        return self._element(degree, {})

    def one(self) -> FiberRingElement:
        return self._element(0, {0: 1})

    def l_class(self) -> FiberRingElement:
        """L, the pullback of the hyperplane class of Q = P^(n-1)."""
        if self.ambient_dim == 1:
            return self.zero(1)
        return self._element(1, {0: 1})

    def exceptional(self, i: int) -> FiberRingElement:
        """D_i, the tautological class on the i-th factor."""
        _check_index(i, self.factors)
        return self._element(1, {1 << (i - 1): 1})

    def hyperplane_class(self, i: int) -> FiberRingElement:
        """H_i = D_i + L, the hyperplane of P^n through the i-th
        projection, as a sum of generators (``hyperplane_power`` writes
        its powers in closed form)."""
        return self.exceptional(i) + self.l_class()

    def hyperplane_power(self, i: int, exponent: int) -> FiberRingElement:
        """H_i^m in closed form: L^(m-1) * (D_i + L) for m >= 1."""
        _check_index(i, self.factors)
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        if exponent == 0:
            return self.one()
        n = self.ambient_dim
        terms = {}
        if exponent - 1 < n:
            terms[1 << (i - 1)] = 1
        if exponent < n:
            terms[0] = 1
        return self._element(exponent, terms)

    def diagonal_class(self, i: int, j: int) -> FiberRingElement:
        """Delta_(i,j) = D_i + D_j + L, the locus where factors i and j agree."""
        if i == j:
            raise IndexError(f"diagonal needs two distinct factors, got {i} == {j}")
        _check_index(i, self.factors)
        _check_index(j, self.factors)
        terms = {1 << (i - 1): 1, 1 << (j - 1): 1}
        if self.ambient_dim > 1:  # L = 0 on P^1
            terms[0] = 1
        return self._element(1, terms)

    def top_monomial(self) -> FiberRingElement:
        """L^(n-1) * D_1 ... D_f, the monomial ``integrate`` sends to 1."""
        return self._element(self.ambient_dim - 1 + self.factors, {(1 << self.factors) - 1: 1})


def coefficient(x: FiberRingElement, l_exponent: int, indices: tuple[int, ...]) -> int:
    """Coefficient in ``x`` of the normal-form monomial
    L^l_exponent * prod_{i in indices} D_i.

    A repeated index or an L-exponent outside 0..n-1 names no normal-form
    monomial and raises ``IndexError``.  The monomial has degree
    l_exponent + len(indices); in a class of any other degree its
    coefficient is 0.
    """
    if not 0 <= l_exponent < x.ambient_dim:
        raise IndexError(f"L-exponent {l_exponent} out of range 0..{x.ambient_dim - 1}")
    mask = 0
    for i in indices:
        _check_index(i, x.factors)
        if mask >> (i - 1) & 1:
            raise IndexError(f"factor index {i} repeated: D_{i}^2 is not in normal form")
        mask |= 1 << (i - 1)
    return x.terms.get(mask, 0) if x.degree == l_exponent + len(indices) else 0
