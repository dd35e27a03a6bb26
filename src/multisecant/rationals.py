"""Serialization of exact rationals.

Every number that leaves the library (CLI output, CSV, JSON) goes through
``format_rational``: integers print bare ("4", "-3") and proper fractions
print as "p/q" with q > 0.  No value is ever rendered through floating
point.  A ``Fraction`` is read through its ``numerator`` and
``denominator``, so this module never imports ``fractions``: only the
layers that divide do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def format_rational(value: int | Fraction) -> str:
    if type(value) is int:
        return str(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
