"""Serialization of exact rationals, kept only for the benchmark tracer.

``format_rational`` prints an integer bare ("4", "-3") and a fraction as
"p/q" with q > 0, which is exactly what ``str`` does for an ``int`` or a
``Fraction``, so every command prints its values with ``str`` and nothing
in the package calls this function or imports this module.  It stays
only because ``perfbench/tracing.py`` imports it and wraps
``format_rational`` by name; it goes with ROADMAP items 8a and 13.
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
