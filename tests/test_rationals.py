"""``rationals.format_rational`` prints exactly what ``str`` prints."""

from fractions import Fraction

import pytest

from multisecant.rationals import format_rational


@pytest.mark.parametrize(
    "value, text", [(4, "4"), (-3, "-3"), (Fraction(8, 2), "4"), (Fraction(-3, 2), "-3/2")], ids=repr
)
def test_format_rational_is_str(value, text):
    assert format_rational(value) == str(value) == text
