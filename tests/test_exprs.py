"""Bundle-expression parsing, printing, elaboration."""

import io

import pytest
from hypothesis import example, given, strategies as st

from multisecant.bundles import complete_intersection_bundle, tangent_bundle, twist
from multisecant.errors import ParseError
from multisecant.cli import run_command
from multisecant.exprs import (
    MAX_NESTING,
    AbstractNormalExpr,
    LineBundleExpr,
    SumExpr,
    TangentExpr,
    TwistExpr,
    elaborate,
    parse_bundle,
)
from oracles import print_bundle

# longer than Python's default 4,300-digit limit on int(str)
LONG_LITERAL = "O(" + "9" * 5000 + ")"

# non-ASCII digits (superscript two, Arabic-Indic three) and literals int()
# refuses, each with the offset of the literal's first character
BAD_LITERALS = {
    "superscript-two": ("O(\u00b2)", 2),
    "arabic-indic-three": ("N{r=1,c=[1,\u0663]}", 11),
    "5000-digits": (LONG_LITERAL, 2),
    "5000-digit-negative-twist": ("(T)@(-" + "1" * 5000 + ")", 5),
}

# abstract normal data in a sum, bare, twisted or in a nested sum, with the
# offset of the offending summand
ABSTRACT_SUMMANDS = {
    "O(1)+N{r=1,c=[1,2]}": 5,
    "O(1) + (N{r=1,c=[1,2]})@(1)": 7,
    "T+(O(1)+N{r=1,c=[1,2]})": 8,
    "N{r=1,c=[1,2]}+O(1)": 0,
    "T + ((N{r=1,c=[1,2]})@(1))@(2)": 4,
}

# far past any recursion limit if every "(" cost a stack frame
DEEP_NESTING = "(" * 3000


class TestParsing:
    def test_sum_of_line_bundles(self):
        assert parse_bundle("O(2)+O(2)") == SumExpr(
            (LineBundleExpr(2), LineBundleExpr(2))
        )

    def test_twisted_group(self):
        assert parse_bundle("(O(1)+O(3))@(-1)") == TwistExpr(
            SumExpr((LineBundleExpr(1), LineBundleExpr(3))), -1
        )

    def test_abstract_normal_without_degree(self):
        tree = parse_bundle("N{r=2, c=[1,4,4]}")
        assert tree == AbstractNormalExpr(2, (1, 4, 4), None)

    def test_abstract_normal_with_degree(self):
        tree = parse_bundle("N{r=2,c=[1,0,0],d=4}")
        assert tree == AbstractNormalExpr(2, (1, 0, 0), 4)

    def test_whitespace_insensitive(self):
        assert parse_bundle(" O( 2 ) +  T ") == SumExpr(
            (LineBundleExpr(2), TangentExpr())
        )

    def test_parens_group_transparently(self):
        assert parse_bundle("(O(5))") == LineBundleExpr(5)

    def test_nested_twists(self):
        tree = parse_bundle("((O(3))@(1))@(-2)")
        assert tree == TwistExpr(TwistExpr(LineBundleExpr(3), 1), -2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_bundle("O(2)+*")
        assert err.value.position == 5

    @pytest.mark.parametrize("src, position", ABSTRACT_SUMMANDS.items())
    def test_abstract_summand_is_a_parse_error_at_its_start(self, src, position):
        with pytest.raises(ParseError, match="abstract normal data cannot be summed") as err:
            parse_bundle(src)
        assert err.value.position == position

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_bundle("O(2) x")

    def test_shape_errors_on_normal_data(self):
        with pytest.raises(ParseError):
            parse_bundle("N{r=2, c=[1,4]}")  # arity
        with pytest.raises(ParseError):
            parse_bundle("N{r=2, c=[2,4,4]}")  # leading coefficient
        with pytest.raises(ParseError):
            parse_bundle("N{r=0, c=[1]}")

    @pytest.mark.parametrize("case", list(BAD_LITERALS))
    def test_bad_literal_is_a_parse_error_at_its_start(self, case):
        src, position = BAD_LITERALS[case]
        with pytest.raises(ParseError) as err:
            parse_bundle(src)
        assert err.value.position == position

    @given(st.text())
    @example("O(\u00b2)")
    @example("N{r=1,c=[1,\u0663]}")
    @example(LONG_LITERAL)
    @example(DEEP_NESTING)
    def test_any_text_parses_or_raises_parse_error(self, src):
        try:
            parse_bundle(src)
        except ParseError as err:
            assert 0 <= err.position <= len(src)

    def test_nesting_at_the_limit_parses(self):
        src = "(" * MAX_NESTING + "O(1)" + ")" * MAX_NESTING
        assert parse_bundle(src) == LineBundleExpr(1)
        twisted = "(" * MAX_NESTING + "T" + ")@(1)" * MAX_NESTING
        assert elaborate(parse_bundle(twisted), 4) == twist(tangent_bundle(4), MAX_NESTING)

    @pytest.mark.parametrize("pad", ["", " "])
    def test_nesting_past_the_limit_is_a_parse_error_at_its_paren(self, pad):
        src = (pad + "(") * (MAX_NESTING + 1) + "O(1)" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as err:
            parse_bundle(src)
        assert err.value.position == (len(pad) + 1) * (MAX_NESTING + 1) - 1
        assert src[err.value.position] == "("


@pytest.mark.parametrize(
    "src", [DEEP_NESTING, "(" * (MAX_NESTING + 1) + "T" + ")" * (MAX_NESTING + 1)]
)
def test_cli_exits_one_on_deep_nesting(src, capsys):
    code = run_command(["chern", "--n", "3", src], out=io.StringIO())
    assert code == 1
    assert capsys.readouterr().err.startswith("parse error: parentheses nested deeper than ")


@pytest.mark.parametrize("src, position", ABSTRACT_SUMMANDS.items())
def test_cli_exits_one_on_an_abstract_summand(src, position, capsys):
    code = run_command(["chern", "--n", "4", src], out=io.StringIO())
    assert code == 1
    assert capsys.readouterr().err == (
        f"parse error: abstract normal data cannot be summed (at position {position})\n"
    )


@pytest.mark.parametrize("case", list(BAD_LITERALS))
def test_cli_exits_one_on_a_bad_literal(case, capsys):
    code = run_command(["chern", "--n", "3", BAD_LITERALS[case][0]], out=io.StringIO())
    assert code == 1
    assert capsys.readouterr().err.startswith("parse error: ")


def expr_trees(max_depth=3):
    atoms = st.one_of(
        st.integers(-6, 6).map(LineBundleExpr),
        st.just(TangentExpr()),
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                st.lists(st.integers(-6, 6), min_size=r, max_size=r),
                st.one_of(st.none(), st.integers(-9, 9)),
            ).map(lambda t: AbstractNormalExpr(r, (1, *t[0]), t[1]))
        ),
    )

    def abstract(tree):
        while isinstance(tree, TwistExpr):
            tree = tree.sub
        return isinstance(tree, AbstractNormalExpr)

    def extend(children):
        # the grammar has no sum with an abstract summand, twisted or not
        return st.one_of(
            st.lists(children.filter(lambda t: not abstract(t)), min_size=2, max_size=3).map(
                lambda ts: SumExpr(tuple(ts))
            ),
            st.tuples(children, st.integers(-4, 4)).map(
                lambda t: TwistExpr(t[0], t[1])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=8)


class TestRoundTrip:
    @given(expr_trees())
    def test_parse_inverts_print(self, tree):
        assert parse_bundle(print_bundle(tree)) == tree

    def test_printed_forms(self):
        assert print_bundle(parse_bundle("O(2)+O(2)")) == "O(2)+O(2)"
        assert print_bundle(parse_bundle("( O(1) + O(3) ) @( -1 )")) == "(O(1)+O(3))@(-1)"
        assert print_bundle(parse_bundle("N{ r=1 , c=[1, 5] }")) == "N{r=1,c=[1,5]}"


class TestElaboration:
    def test_sum_elaborates_to_whitney_sum(self):
        value = elaborate(parse_bundle("O(2)+O(2)"), 4)
        assert value == complete_intersection_bundle(4, [2, 2])

    def test_tangent(self):
        assert elaborate(parse_bundle("T"), 5) == tangent_bundle(5)

    def test_twist_applies(self):
        value = elaborate(parse_bundle("(O(1)+O(3))@(-1)"), 4)
        assert value == twist(complete_intersection_bundle(4, [1, 3]), -1)
        assert value == complete_intersection_bundle(4, [0, 2])

    def test_abstract_normal_defaults_degree(self):
        value = elaborate(parse_bundle("N{r=2,c=[1,4,4]}"), 8)
        assert value.abstract
        assert value.degree == 4 and value.degree_consistent

    def test_abstract_normal_explicit_degree_is_forensic(self):
        value = elaborate(parse_bundle("N{r=2,c=[1,0,0],d=4}"), 8)
        assert value.degree == 4 and not value.degree_consistent

    def test_normal_data_cannot_be_summed(self):
        with pytest.raises(ParseError):
            elaborate(parse_bundle("O(2)+N{r=1,c=[1,2]}"), 4)

    def test_mixed_sum_is_bundle(self):
        value = elaborate(parse_bundle("T+O(2)"), 3)
        assert not value.abstract
        assert value.codim == 4
