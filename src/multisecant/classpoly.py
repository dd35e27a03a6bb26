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
        super().__init__(ambient_dim, coeffs)

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
        n = self.ambient_dim
        if n != other.ambient_dim:
            raise AmbientMismatchError(f"ambient dimensions differ: P^{n} vs P^{other.ambient_dim}")
        out = [0] * (n + 1)
        # convolution truncated at degree n
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return TruncatedClassPoly(n, tuple(out))

    def inverse(self) -> "TruncatedClassPoly":
        """Multiplicative inverse in the truncated ring.

        Requires a unit of Z[H]/H^(n+1), i.e. constant term a_0 = +-1;
        computed by the power-series recursion
        b_k = -a_0 * sum_{i=1..k} a_i b_{k-i}, as 1/a_0 = a_0.
        """
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise NonUnitError(f"cannot invert: constant term {a0} is not +-1")
        b = [a0]
        for k in range(1, self.ambient_dim + 1):
            b.append(-a0 * sum(a[i] * b[k - i] for i in range(1, k + 1)))
        return TruncatedClassPoly(self.ambient_dim, tuple(b))

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        # each nonzero term as its sign's separator and then |c|; of the
        # first separator only a minus sign is kept
        out = ""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                mono = "H" if k == 1 else f"H^{k}"
                body = str(abs(c)) if k == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
                out += (" - " if c < 0 else " + ") + body
        return ("-" if out[1] == "-" else "") + out[3:] if out else "0"
