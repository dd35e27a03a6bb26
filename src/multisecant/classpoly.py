"""Exact truncated polynomials in the hyperplane class H.

A class on projective space P^n is written as a polynomial
a_0 + a_1*H + ... + a_n*H^n with exact rational coefficients; everything
of degree > n is zero in the cohomology ring, so arithmetic truncates at
degree n.  The representation is a dense tuple of n+1 coefficients
(coefficient of H^k at index k):

    1 + 4H + 4H^2 on P^4  ->  (1, 4, 4, 0, 0)

The package needs this ring for two things only: ``chern`` prints a
bundle's total Chern class as one of these polynomials, and
``segre_series`` inverts (1+H)^(n+1) in it, an inverse-series route to
the Segre classes that cross-checks the sign convention of
``segre_coefficient``.  So the class offers construction, the truncated
product, the inverse, coefficient access and printing, and nothing else.

Coefficients are exact ``int``s, or ``Fraction``s only where a division
forces them (a ``Fraction`` input, or inverting a unit whose constant
term is not +-1); the two mix exactly, so integral Chern data stays
integral.  Values are immutable; all operations are pure and return new
values.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import AmbientMismatchError, NonUnitError
from .rationals import format_rational


@dataclass(frozen=True)
class TruncatedClassPoly:
    """A polynomial in H over Q, truncated to the ambient dimension.

    ``coeffs`` always has length ``ambient_dim + 1``; no coefficient beyond
    degree ``ambient_dim`` is ever stored.
    """

    ambient_dim: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ValueError(f"ambient dimension must be >= 0, got {self.ambient_dim}")
        if len(self.coeffs) != self.ambient_dim + 1:
            raise ValueError(
                f"need exactly {self.ambient_dim + 1} coefficients, got {len(self.coeffs)}"
            )

    # -- construction -------------------------------------------------

    @classmethod
    def from_coeffs(cls, ambient_dim: int, coeffs: Iterable[int | Fraction]) -> "TruncatedClassPoly":
        """Build from low-degree-first coefficients.

        Shorter sequences are zero-padded; coefficients beyond degree
        ``ambient_dim`` are dropped (ring truncation).
        """
        cs = list(coeffs)[: ambient_dim + 1]
        cs += [0] * (ambient_dim + 1 - len(cs))
        return cls(ambient_dim, tuple(cs))

    # -- ring operations ----------------------------------------------

    def __mul__(self, other: "TruncatedClassPoly") -> "TruncatedClassPoly":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError(
                f"ambient dimensions differ: P^{self.ambient_dim} vs P^{other.ambient_dim}"
            )
        n = self.ambient_dim
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            # convolution truncated at degree n
            for j in range(0, n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncatedClassPoly(n, tuple(out))

    def inverse(self) -> "TruncatedClassPoly":
        """Multiplicative inverse in the truncated ring.

        Requires a unit, i.e. nonzero constant term; computed by the usual
        power-series recursion b_k = -(1/a_0) * sum_{i>=1} a_i b_{k-i}.
        The inverse stays integral when a_0 = +-1.
        """
        a = self.coeffs
        if a[0] == 0:
            raise NonUnitError("cannot invert: constant term is zero")
        n = self.ambient_dim
        inv0 = a[0] if a[0] in (1, -1) else Fraction(1, a[0])
        b = [0] * (n + 1)
        b[0] = inv0
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                if a[i] != 0:
                    acc += a[i] * b[k - i]
            b[k] = -inv0 * acc
        return TruncatedClassPoly(n, tuple(b))

    # -- queries --------------------------------------------------------

    def coefficient(self, k: int) -> int | Fraction:
        """The coefficient of H^k.

        The tests read classes through it: tests/test_bundles.py
        (``test_tangent_top_coefficient``,
        ``test_duality_with_polynomial_route``) and tests/test_classpoly.py.
        """
        if not 0 <= k <= self.ambient_dim:
            raise IndexError(
                f"degree {k} out of range for P^{self.ambient_dim}"
            )
        return self.coeffs[k]

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append((format_rational(c), c < 0))
            else:
                mono = "H" if k == 1 else f"H^{k}"
                mag = abs(c)
                body = mono if mag == 1 else f"{format_rational(mag)}*{mono}"
                terms.append((body, c < 0))
        if not terms:
            return "0"
        first_body, first_neg = terms[0]
        out = ("-" if first_neg and not first_body.startswith("-") else "") + first_body
        for body, neg in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

