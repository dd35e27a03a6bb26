"""Bundle-expression AST, parser and elaboration.

Grammar (whitespace-insensitive):

    expr    := term { "+" term }
    term    := atom | group
    group   := "(" expr ")" [ "@(" int ")" ]     twist postfix
    atom    := "O" "(" int ")"                   line bundle O(a)
             | "T"                               tangent bundle
             | "N" "{" "r=" int "," "c=[" int {"," int} "]"
                       [ "," "d=" int ] "}"      abstract normal data
    int     := [ "-" ] digits                    ASCII 0-9 only

Sums elaborate by Whitney sum; a twist suffix applies only to a
parenthesized expression.  Abstract normal data cannot be a summand,
twisted or not: its ``ChernVector`` has ``abstract`` set, and only split
bundles have a Whitney sum.  The parser rejects such a sum at the start
of the offending summand.  The test suite's printer (``print_bundle`` in
tests/oracles.py) checks that ``parse_bundle`` inverts it on every tree
the parser accepts.

An explicit ``d=`` is kept as the degree even when it differs from the
top coefficient; ``ChernVector.degree_consistent`` records whether it
does, and no output shows that yet.  Omitting it defaults d to c_r.
"""

from __future__ import annotations

from typing import Union

from .bundles import (
    ChernVector,
    direct_sum,
    line_bundle,
    tangent_bundle,
    twist,
)
from .errors import ParseError, Record

# Deepest "(" nesting the parser accepts.  The parser recurses once per
# level, so without a limit deep input would exhaust Python's stack.
MAX_NESTING = 100

BundleExpr = Union["LineBundleExpr", "TangentExpr", "SumExpr", "TwistExpr", "AbstractNormalExpr"]


class LineBundleExpr(Record):
    __slots__ = ("a",)


class TangentExpr(Record):
    __slots__ = ()


class SumExpr(Record):
    __slots__ = ("terms",)  # tuple[BundleExpr, ...]


class TwistExpr(Record):
    __slots__ = ("sub", "t")


class AbstractNormalExpr(Record):
    __slots__ = ("codim", "c", "degree")  # degree None means "default to c_r"


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
        # ASCII only: str.isdigit() also takes superscript and Arabic-Indic digits
        while self.pos < len(self.src) and "0" <= self.src[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits_start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.src[start : self.pos])
        except ValueError:  # longer than Python's integer string limit
            raise ParseError(
                f"integer literal too long ({self.pos - digits_start} digits)", start
            ) from None


def parse_bundle(src: str) -> BundleExpr:
    scanner = _Scanner(src)
    tree = _parse_expr(scanner, 0)
    scanner.skip_ws()
    if scanner.pos != len(scanner.src):
        raise ParseError("trailing input after expression", scanner.pos)
    return tree


def _parse_expr(s: _Scanner, depth: int) -> BundleExpr:
    starts, terms = [], []
    while not terms or s.try_take("+"):
        s.skip_ws()
        starts.append(s.pos)
        terms.append(_parse_term(s, depth))
    if len(terms) == 1:
        return terms[0]
    for start, term in zip(starts, terms):
        while isinstance(term, TwistExpr):
            term = term.sub
        if isinstance(term, AbstractNormalExpr):
            raise ParseError("abstract normal data cannot be summed", start)
    return SumExpr(tuple(terms))


def _parse_term(s: _Scanner, depth: int) -> BundleExpr:
    """One term; ``depth`` counts the groups it sits in."""
    ch = s.peek()
    if ch == "(":
        if depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", s.pos)
        s.expect("(")
        inner = _parse_expr(s, depth + 1)
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
            out = direct_sum(out, p)
        return out
    if isinstance(tree, TwistExpr):
        return twist(elaborate(tree.sub, ambient_dim), tree.t)
    if isinstance(tree, AbstractNormalExpr):
        return ChernVector.make(ambient_dim, tree.c, tree.degree)
    raise TypeError(f"not a bundle expression: {tree!r}")
