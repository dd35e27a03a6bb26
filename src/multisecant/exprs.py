"""Bundle-expression AST, parser and printer.

Grammar (whitespace-insensitive):

    expr    := term { "+" term }
    term    := atom | group
    group   := "(" expr ")" [ "@(" int ")" ]     twist postfix
    atom    := "O" "(" int ")"                   line bundle O(a)
             | "T"                               tangent bundle
             | "N" "{" "r=" int "," "c=[" int {"," int} "]"
                       [ "," "d=" int ] "}"      abstract normal data
    int     := [ "-" ] digits

Sums elaborate by Whitney sum; a twist suffix applies only to a
parenthesized expression.  ``parse_bundle(print_bundle(tree)) == tree``
holds for every tree the printer emits (the printer parenthesizes twist
targets and nothing else).  Abstract normal data cannot appear inside a
sum: its ``ChernVector`` has ``abstract`` set, and only split bundles
have a Whitney sum.

An explicit ``d=`` different from the top coefficient opts into
degree-inconsistent data, which downstream code flags; omitting it
defaults d to c_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .bundles import (
    ChernVector,
    direct_sum,
    line_bundle,
    tangent_bundle,
    twist,
)
from .errors import ParseError

BundleExpr = Union["LineBundleExpr", "TangentExpr", "SumExpr", "TwistExpr", "AbstractNormalExpr"]


@dataclass(frozen=True)
class LineBundleExpr:
    a: int


@dataclass(frozen=True)
class TangentExpr:
    pass


@dataclass(frozen=True)
class SumExpr:
    terms: tuple[BundleExpr, ...]


@dataclass(frozen=True)
class TwistExpr:
    sub: BundleExpr
    t: int


@dataclass(frozen=True)
class AbstractNormalExpr:
    codim: int
    c: tuple[int, ...]
    degree: int | None  # None means "default to c_r"


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, text: str):
        self.skip_ws()
        if not self.src.startswith(text, self.pos):
            raise ParseError(f"expected {text!r}", self.pos)
        self.pos += len(text)

    def try_take(self, text: str) -> bool:
        self.skip_ws()
        if self.src.startswith(text, self.pos):
            self.pos += len(text)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] == "-":
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise ParseError("expected an integer", start)
        return int(self.src[start : self.pos])


def parse_bundle(src: str) -> BundleExpr:
    scanner = _Scanner(src)
    tree = _parse_expr(scanner)
    scanner.skip_ws()
    if scanner.pos != len(scanner.src):
        raise ParseError("trailing input after expression", scanner.pos)
    return tree


def _parse_expr(s: _Scanner) -> BundleExpr:
    terms = [_parse_term(s)]
    while s.try_take("+"):
        terms.append(_parse_term(s))
    return terms[0] if len(terms) == 1 else SumExpr(tuple(terms))


def _parse_term(s: _Scanner) -> BundleExpr:
    ch = s.peek()
    if ch == "(":
        s.expect("(")
        inner = _parse_expr(s)
        s.expect(")")
        if s.try_take("@("):
            t = s.integer()
            s.expect(")")
            return TwistExpr(inner, t)
        return inner
    if ch == "O":
        s.expect("O")
        s.expect("(")
        a = s.integer()
        s.expect(")")
        return LineBundleExpr(a)
    if ch == "T":
        s.expect("T")
        return TangentExpr()
    if ch == "N":
        return _parse_abstract_normal(s)
    raise ParseError("expected 'O(a)', 'T', 'N{...}' or '('", s.pos)


def _parse_abstract_normal(s: _Scanner) -> AbstractNormalExpr:
    start = s.pos
    s.expect("N")
    s.expect("{")
    s.expect("r")
    s.expect("=")
    r = s.integer()
    s.expect(",")
    s.expect("c")
    s.expect("=")
    s.expect("[")
    c = [s.integer()]
    while s.try_take(","):
        c.append(s.integer())
    s.expect("]")
    degree = None
    if s.try_take(","):
        s.expect("d")
        s.expect("=")
        degree = s.integer()
    s.expect("}")
    if r < 1:
        raise ParseError(f"codimension must be >= 1, got r={r}", start)
    if len(c) != r + 1:
        raise ParseError(
            f"c must list c_0..c_{r} ({r + 1} entries), got {len(c)}", start
        )
    if c[0] != 1:
        raise ParseError(f"c_0 must be 1, got {c[0]}", start)
    return AbstractNormalExpr(r, tuple(c), degree)


def print_bundle(tree: BundleExpr) -> str:
    """The canonical text of ``tree``.

    Nothing in the package calls it; it is the oracle of the parser round
    trip in tests/test_exprs.py::TestRoundTrip.
    """
    if isinstance(tree, LineBundleExpr):
        return f"O({tree.a})"
    if isinstance(tree, TangentExpr):
        return "T"
    if isinstance(tree, SumExpr):
        # nested sums keep their grouping parens so parsing them back
        # reproduces the tree
        return "+".join(
            f"({print_bundle(t)})" if isinstance(t, SumExpr) else print_bundle(t)
            for t in tree.terms
        )
    if isinstance(tree, TwistExpr):
        return f"({print_bundle(tree.sub)})@({tree.t})"
    if isinstance(tree, AbstractNormalExpr):
        c_list = ",".join(str(x) for x in tree.c)
        d_part = f",d={tree.degree}" if tree.degree is not None else ""
        return f"N{{r={tree.codim},c=[{c_list}]{d_part}}}"
    raise TypeError(f"not a bundle expression: {tree!r}")


def elaborate(tree: BundleExpr, ambient_dim: int) -> ChernVector:
    """Evaluate an expression over P^ambient_dim."""
    if isinstance(tree, LineBundleExpr):
        return line_bundle(ambient_dim, tree.a)
    if isinstance(tree, TangentExpr):
        return tangent_bundle(ambient_dim)
    if isinstance(tree, SumExpr):
        parts = [elaborate(t, ambient_dim) for t in tree.terms]
        out = parts[0]
        for p in parts[1:]:
            if out.abstract or p.abstract:
                raise ParseError("abstract normal data cannot be summed", 0)
            out = direct_sum(out, p)
        return out
    if isinstance(tree, TwistExpr):
        return twist(elaborate(tree.sub, ambient_dim), tree.t)
    if isinstance(tree, AbstractNormalExpr):
        return ChernVector.make(
            ambient_dim,
            tree.c,
            degree=tree.degree,
            allow_inconsistent_degree=tree.degree is not None,
        )
    raise TypeError(f"not a bundle expression: {tree!r}")
