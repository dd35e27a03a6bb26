"""Exact truncated polynomials in the hyperplane class H.

A class on projective space P^n is written as a polynomial
a_0 + a_1*H + ... + a_n*H^n with exact coefficients; everything of
degree > n is zero in the cohomology ring, so arithmetic truncates at
degree n.  The representation is a dense tuple of n+1 coefficients
(coefficient of H^k at index k):

    1 + 4H + 4H^2 on P^4  ->  (1, 4, 4, 0, 0)

The package needs this ring for two things only: ``chern`` prints a
bundle's total Chern class as one of these polynomials, and
``segre_series`` inverts (1+H)^(n+1) in it, an inverse-series route to
the Segre classes that cross-checks the sign convention of
``segre_coefficient``.  So the class offers construction, the truncated
product, the inverse and printing, and nothing else; callers read
``coeffs`` directly.

Chern data is integral, and the inverse exists only for a constant term
of +-1 (the units of Z[H]/H^(n+1)), so integral input stays integral and
nothing here divides.  Values are immutable; all operations are pure and
return new values.  No floating point is used anywhere.
"""

from __future__ import annotations

from typing import Iterable

from .errors import AmbientMismatchError, NonUnitError, Record


class TruncatedClassPoly(Record):
    """A polynomial in H, truncated to the ambient dimension.

    ``coeffs`` always has length ``ambient_dim + 1``; no coefficient beyond
    degree ``ambient_dim`` is ever stored.
    """

    __slots__ = ("ambient_dim", "coeffs")

    def __init__(self, ambient_dim: int, coeffs: tuple[int, ...]):
        if ambient_dim < 0:
            raise ValueError(f"ambient dimension must be >= 0, got {ambient_dim}")
        if len(coeffs) != ambient_dim + 1:
            raise ValueError(f"need exactly {ambient_dim + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction -------------------------------------------------

    @classmethod
    def from_coeffs(cls, ambient_dim: int, coeffs: Iterable[int]) -> "TruncatedClassPoly":
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

        Requires a unit of Z[H]/H^(n+1), i.e. constant term a_0 = +-1;
        computed by the power-series recursion
        b_k = -a_0 * sum_{i>=1} a_i b_{k-i}, as 1/a_0 = a_0.
        """
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise NonUnitError(f"cannot invert: constant term {a0} is not +-1")
        n = self.ambient_dim
        b = [a0] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                if a[i] != 0:
                    acc += a[i] * b[k - i]
            b[k] = -a0 * acc
        return TruncatedClassPoly(n, tuple(b))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append((str(c), c < 0))
            else:
                mono = "H" if k == 1 else f"H^{k}"
                mag = abs(c)
                body = mono if mag == 1 else f"{mag}*{mono}"
                terms.append((body, c < 0))
        if not terms:
            return "0"
        first_body, first_neg = terms[0]
        out = ("-" if first_neg and not first_body.startswith("-") else "") + first_body
        for body, neg in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

