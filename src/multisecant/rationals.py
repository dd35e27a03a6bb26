"""Serialization of exact rationals.

Every number that leaves the library (CLI output, CSV, JSON) goes through
``format_rational``: integers print bare ("4", "-3") and proper fractions
print as "p/q" with q > 0.  No value is ever rendered through floating
point.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: int | Fraction) -> str:
    if type(value) is int:
        return str(value)
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
