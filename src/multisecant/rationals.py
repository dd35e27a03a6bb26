"""Serialization of exact rationals, kept only for the benchmark tracer.

``format_rational`` is ``str``, which prints an ``int`` bare ("4", "-3")
and a ``Fraction`` as "p/q" with q > 0 ("-3/2", and "4" for 8/2).  Every
command prints its values with ``str``, and nothing in the package calls
this function or imports this module.  It stays only because
``perfbench/tracing.py`` imports it and wraps ``format_rational`` by
name; it goes with ROADMAP items 8a and 13.
"""


def format_rational(value) -> str:
    return str(value)
