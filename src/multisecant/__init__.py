"""Exact-arithmetic intersection theory on projective space.

Secant-locus degrees, Chern/Segre class expansions and
projective-normality criteria for small-codimension subvarieties, with an
independent symbolic oracle in the cohomology ring of fiber powers of the
blow-up of P^n at a point.  All arithmetic is exact rational; no floats.

Every name lives in its submodule (``from multisecant.bundles import
twist``); ``import multisecant`` loads none of them.
"""

__version__ = "0.1.0"
