"""Exact-arithmetic intersection theory on projective space.

Secant-locus degrees, Chern/Segre class expansions and
projective-normality criteria for small-codimension subvarieties, with an
independent symbolic oracle in the cohomology ring of fiber powers of the
blow-up of P^n at a point.  All arithmetic is exact rational; no floats.
"""

from .bundles import (
    ChernVector,
    as_chern_vector,
    complete_intersection_bundle,
    direct_sum,
    line_bundle,
    segre_coefficient,
    segre_series,
    tangent_bundle,
    top_chern_twisted,
    twist,
)
from .classpoly import TruncatedClassPoly
from .combinat import (
    binomial,
    koszul_rank_identity,
    wedge_resolution_sum_shifted,
    wedge_resolution_sum_unit,
)
from .errors import (
    AmbientMismatchError,
    HypothesisError,
    MultisecantError,
    NonUnitError,
    ParseError,
)
from .exprs import BundleExpr, elaborate, parse_bundle, print_bundle
from .fiberring import (
    FiberRing,
    FiberRingElement,
    closed_form_top_chern,
    integrate,
    recursion_top_chern,
    secant_count_via_ring,
)
from .normality import (
    Verdict,
    check_2normal,
    check_jnormal_bundle,
    check_jnormal_general,
    check_linear_normality_zak,
    jnormal_min_ambient_dim,
    ran_min_ambient_dim,
)
from .rationals import format_rational
from .secants import (
    SecantDegree,
    double_point_expansion,
    goettsche_a_derived,
    goettsche_b_full,
    goettsche_b_reduced,
    goettsche_c_full,
    goettsche_c_reduced,
    multisecant_report,
    trisecant_closed,
    trisecant_double_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "BundleExpr",
    "ChernVector",
    "FiberRing",
    "FiberRingElement",
    "HypothesisError",
    "MultisecantError",
    "NonUnitError",
    "ParseError",
    "SecantDegree",
    "TruncatedClassPoly",
    "Verdict",
    "as_chern_vector",
    "binomial",
    "check_2normal",
    "check_jnormal_bundle",
    "check_jnormal_general",
    "check_linear_normality_zak",
    "closed_form_top_chern",
    "complete_intersection_bundle",
    "direct_sum",
    "double_point_expansion",
    "elaborate",
    "format_rational",
    "goettsche_a_derived",
    "goettsche_b_full",
    "goettsche_b_reduced",
    "goettsche_c_full",
    "goettsche_c_reduced",
    "integrate",
    "jnormal_min_ambient_dim",
    "koszul_rank_identity",
    "line_bundle",
    "multisecant_report",
    "parse_bundle",
    "print_bundle",
    "ran_min_ambient_dim",
    "recursion_top_chern",
    "secant_count_via_ring",
    "segre_coefficient",
    "segre_series",
    "tangent_bundle",
    "top_chern_twisted",
    "trisecant_closed",
    "trisecant_double_sum",
    "twist",
    "wedge_resolution_sum_shifted",
    "wedge_resolution_sum_unit",
]
