"""Decision procedures for projective-normality criteria.

Every check returns a ``Verdict`` listing the hypotheses of the cited
criterion with both evaluated sides.  These criteria are sufficient, not
necessary, so an unmet hypothesis never asserts non-normality: the
outcome "fails" means the numeric bounds of the criterion are violated,
while "inapplicable" means a gating hypothesis (e.g. nonemptiness of the
secant locus) is not established and the criterion is silent.
"""

from __future__ import annotations

from typing import Sequence

from .bundles import ChernVector, top_chern_twisted
from .errors import HypothesisError, Record

HOLDS = "holds"
FAILS = "fails"
INAPPLICABLE = "inapplicable"


class Hypothesis(Record):
    __slots__ = ("name", "condition", "left", "right", "satisfied")

    def render_sides(self) -> tuple[str, str]:
        def side(v) -> str:
            if isinstance(v, bool):
                return "yes" if v else "no"
            return str(v)

        return side(self.left), side(self.right)


class Verdict(Record):
    __slots__ = ("outcome", "hypotheses", "citation", "notes")


def _ineq(name: str, condition: str, left, right) -> Hypothesis:
    return Hypothesis(name, condition, left, right, left <= right)


def _nonzero(name: str, condition: str, value) -> Hypothesis:
    # the criterion is c != 0, so the value is shown against 0
    return Hypothesis(name, condition, value, 0, value != 0)


def _secant_bounds(m: int, r: int, j: int) -> tuple[Hypothesis, Hypothesis]:
    """The paper's two numeric j-normality bounds for X^m in P^(m+r)."""
    return (
        _ineq("codim_bound", "2(r+1)j <= m-r", 2 * (r + 1) * j, m - r),
        _ineq(
            "intersection_bound", "(j+1)((r+1)j-1) <= m-1", (j + 1) * ((r + 1) * j - 1), m - 1
        ),
    )


def _dimensions(n: int, r: int) -> tuple[int, int]:
    """(m, r) for X^m in P^n cut out with normal data of rank r:
    m = n - r, which must be positive."""
    if n - r < 1:
        raise HypothesisError(
            f"ambient dimension {n} leaves no positive-dimensional X for rank {r}"
        )
    return n - r, r


def check_jnormal_general(
    m: int, r: int, j: int, secants_nonempty: bool
) -> Verdict:
    """j-normality via the secant construction for X^m in P^(m+r).

    Hypotheses: the (j+1)-secant locus through a generic external point is
    nonempty, 2(r+1)j <= m-r, and (j+1)((r+1)j-1) <= m-1.  If the secant
    hypothesis is not established the criterion is silent (inapplicable);
    if it is but a bound fails, the verdict is "fails".
    """
    if m < 1 or r < 1 or j < 1:
        raise HypothesisError(
            f"parameters must be positive: m={m}, r={r}, j={j}"
        )
    gate = Hypothesis(
        "secants_nonempty",
        "(j+1)-secant locus through a generic external point is nonempty",
        secants_nonempty,
        True,
        secants_nonempty,
    )
    first, second = _secant_bounds(m, r, j)
    hyps = (gate, first, second)
    if not secants_nonempty:
        outcome = INAPPLICABLE
    elif first.satisfied and second.satisfied:
        outcome = HOLDS
    else:
        outcome = FAILS
    return Verdict(outcome, hyps, "jnormal-secant-criterion", ())


def check_jnormal_bundle(
    e: ChernVector, j: int, factors: Sequence[int] | None = None
) -> Verdict:
    """j-normality for the zero locus of a section of a rank-r bundle.

    The secant hypothesis is replaced by nonvanishing of the twisted top
    Chern classes c_r(E(-i)) for i = 1..j, combined with the two numeric
    bounds at m = n - r.  The untwisted value c_r(E) also enters the
    product formula for the secant degree; it is reported as a note since
    the criterion's displayed range starts at i = 1.  A caller that
    already holds c_r(E(-i)) for i = 0..j (the ``factors`` of
    ``multisecant_report(e, j)``) passes them so they are not evaluated
    again.
    """
    if j < 1:
        raise HypothesisError(f"j must be >= 1, got {j}")
    m, r = _dimensions(e.ambient_dim, e.codim)
    if factors is None:
        factors = [top_chern_twisted(e, -i) for i in range(j + 1)]
    hyps = [
        _nonzero(f"top_chern_nonzero_twist_{i}", f"c_r(E(-{i})) != 0", factors[i])
        for i in range(1, j + 1)
    ]
    hyps += _secant_bounds(m, r, j)
    untwisted = factors[0]
    note = (
        f"c_r(E) = {untwisted} "
        + (
            "(nonzero; the untwisted factor of the secant product)"
            if untwisted != 0
            else "(zero; the untwisted factor of the secant product vanishes)"
        )
    )
    outcome = HOLDS if all(h.satisfied for h in hyps) else FAILS
    return Verdict(outcome, tuple(hyps), "jnormal-bundle-criterion", (note,))


def check_2normal(cv: ChernVector) -> Verdict:
    """Quadratic normality of X^m in P^n with normal data ``cv``:
    c_r(N(-2)) != 0 and 6r <= m-4, where r = ``cv.codim`` and m = n - r."""
    m, r = _dimensions(cv.ambient_dim, cv.codim)
    value = top_chern_twisted(cv, -2)
    hyps = (
        _nonzero("twisted_top_chern_nonzero", "c_r(N(-2)) != 0", value),
        _ineq("codim_bound", "6r <= m-4", 6 * r, m - 4),
    )
    outcome = HOLDS if all(h.satisfied for h in hyps) else FAILS
    return Verdict(outcome, hyps, "quadratic-normality-criterion", ())


def check_linear_normality_zak(n: int, r: int) -> Verdict:
    """Zak's linear-normality bound: holds when n >= 4r.

    Below the bound the criterion says nothing, so the verdict is
    "inapplicable" rather than "fails".
    """
    if r < 1:
        raise HypothesisError(f"rank must be >= 1, got {r}")
    _dimensions(n, r)
    hyp = _ineq("barth_range", "4r <= n", 4 * r, n)
    return Verdict(
        HOLDS if hyp.satisfied else INAPPLICABLE,
        (hyp,),
        "zak-linear-normality",
        (),
    )


def ran_min_ambient_dim(j: int) -> int:
    """Smallest n for which the codimension-2 j-normality bound holds:
    n = 3j^2 + 2j + 2.

    Only tests/test_normality.py::TestNumerology and acceptance criterion
    07 call it for now; ROADMAP item 3 gives it a caller in the identity
    registry.
    """
    if j < 1:
        raise HypothesisError(f"j must be >= 1, got {j}")
    return 3 * j * j + 2 * j + 2


def jnormal_min_ambient_dim(r: int, j: int) -> int:
    """Smallest n = m + r satisfying both j-normality bounds:
    n = r + max(2(r+1)j + r, (j+1)((r+1)j-1) + 1).

    Both bounds grow with n, so they hold exactly from this n on; a census
    sweep reads a row's j-normality outcome from it (``census._Sweep``).
    """
    if r < 1 or j < 1:
        raise HypothesisError(f"parameters must be positive: r={r}, j={j}")
    return r + max(2 * (r + 1) * j + r, (j + 1) * ((r + 1) * j - 1) + 1)
