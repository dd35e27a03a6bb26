"""The package's value classes are records: ``__slots__`` classes with the
semantics the frozen dataclasses they replace had (``errors.Record``)."""

import copy
import pickle
from fractions import Fraction

import pytest

from multisecant.bundles import ChernVector
from multisecant.classpoly import TruncatedClassPoly
from multisecant.exprs import (
    AbstractNormalExpr,
    LineBundleExpr,
    SumExpr,
    TangentExpr,
    TwistExpr,
)
from multisecant.fiberring import FiberRingElement
from multisecant.normality import Hypothesis, Verdict
from multisecant.secants import SecantDegree

# (a factory of equal records, the repr the dataclass printed)
RECORDS = [
    (lambda: LineBundleExpr(2), "LineBundleExpr(a=2)"),
    (lambda: TangentExpr(), "TangentExpr()"),
    (
        lambda: SumExpr((LineBundleExpr(1), TangentExpr())),
        "SumExpr(terms=(LineBundleExpr(a=1), TangentExpr()))",
    ),
    (lambda: TwistExpr(LineBundleExpr(1), -2), "TwistExpr(sub=LineBundleExpr(a=1), t=-2)"),
    (
        lambda: AbstractNormalExpr(2, (1, 4, 4), None),
        "AbstractNormalExpr(codim=2, c=(1, 4, 4), degree=None)",
    ),
    (
        lambda: ChernVector(4, 2, (1, 4, 4), 4, False),
        "ChernVector(ambient_dim=4, codim=2, c=(1, 4, 4), degree=4, abstract=False)",
    ),
    (
        lambda: TruncatedClassPoly(2, (1, Fraction(1, 2), 0)),
        "TruncatedClassPoly(ambient_dim=2, coeffs=(1, Fraction(1, 2), 0))",
    ),
    (
        lambda: SecantDegree(Fraction(8), (4, 4), False, True),
        "SecantDegree(value=Fraction(8, 1), factors=(4, 4), possibly_degenerate=False, "
        "integral=True)",
    ),
    (
        lambda: Hypothesis("codim_bound", "6r <= m-4", 12, 2, False),
        "Hypothesis(name='codim_bound', condition='6r <= m-4', left=12, right=2, "
        "satisfied=False)",
    ),
    (
        lambda: Verdict("holds", (), "zak-linear-normality", ()),
        "Verdict(outcome='holds', hypotheses=(), citation='zak-linear-normality', notes=())",
    ),
    (
        lambda: FiberRingElement(3, 2, 2, {1: 1, 3: Fraction(-1, 2)}),  # L D_1 - D_1 D_2 / 2
        "FiberRingElement(ambient_dim=3, factors=2, degree=2, terms={1: 1, 3: Fraction(-1, 2)})",
    ),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_record_semantics(make, text):
    a, b = make(), make()
    assert a == b and a is not b
    if isinstance(a, FiberRingElement):
        with pytest.raises(TypeError):  # the term map is a dict
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == text
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in (*type(a).__slots__, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_equality_needs_the_same_class():
    x = LineBundleExpr(1)
    assert SumExpr((x,)) != TwistExpr(x, 0)
    assert TangentExpr() == TangentExpr()
    assert LineBundleExpr(1) != (1,)
    assert LineBundleExpr(1) != LineBundleExpr(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LineBundleExpr(a=2),
        lambda: TwistExpr(LineBundleExpr(1), t=-2),
        lambda: SecantDegree(Fraction(8), (4, 4), False, integral=True),
        lambda: LineBundleExpr(),
        lambda: LineBundleExpr(1, 2),
        lambda: TangentExpr(0),
        lambda: SecantDegree(Fraction(8), (4, 4), False),
    ],
    ids=["keyword", "mixed", "keyword-last", "too-few", "too-many", "fieldless", "one-short"],
)
def test_records_take_their_fields_positionally_and_all_of_them(build):
    with pytest.raises(TypeError):
        build()
