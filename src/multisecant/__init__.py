"""Exact-arithmetic intersection theory on projective space.

Secant-locus degrees, Chern/Segre class expansions and
projective-normality criteria for small-codimension subvarieties, with an
independent symbolic oracle in the cohomology ring of fiber powers of the
blow-up of P^n at a point.  All arithmetic is exact rational; no floats.

``import multisecant`` loads no submodule: each exported name imports its
submodule the first time it is read (PEP 562).
"""

import importlib

_EXPORTS = {
    "bundles": (
        "ChernVector",
        "as_chern_vector",
        "complete_intersection_bundle",
        "direct_sum",
        "line_bundle",
        "segre_coefficient",
        "segre_series",
        "tangent_bundle",
        "top_chern_twisted",
        "twist",
    ),
    "classpoly": ("TruncatedClassPoly",),
    "combinat": (
        "binomial",
        "koszul_rank_identity",
        "wedge_resolution_sum_shifted",
        "wedge_resolution_sum_unit",
    ),
    "errors": (
        "AmbientMismatchError",
        "HypothesisError",
        "MultisecantError",
        "NonUnitError",
        "ParseError",
    ),
    "exprs": ("BundleExpr", "elaborate", "parse_bundle", "print_bundle"),
    "fiberring": (
        "FiberRing",
        "FiberRingElement",
        "closed_form_top_chern",
        "integrate",
        "recursion_top_chern",
        "secant_count_via_ring",
    ),
    "normality": (
        "Verdict",
        "check_2normal",
        "check_jnormal_bundle",
        "check_jnormal_general",
        "check_linear_normality_zak",
        "jnormal_min_ambient_dim",
        "ran_min_ambient_dim",
    ),
    "rationals": ("format_rational",),
    "secants": (
        "SecantDegree",
        "double_point_expansion",
        "goettsche_a_derived",
        "goettsche_b_full",
        "goettsche_b_reduced",
        "goettsche_c_full",
        "goettsche_c_reduced",
        "multisecant_report",
        "trisecant_closed",
        "trisecant_double_sum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached in globals(): every read goes to the submodule, so a
    # function replaced there (and later put back) is never seen stale.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted([*globals(), *__all__])
