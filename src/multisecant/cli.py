"""Command-line interface.

Subcommands:

    chern      total Chern class of a bundle expression
    secants    degree of the (j+1)-secant locus, with caveat flags
    trisecant  closed form and double sum of the trisecant count
    normality  normality-criterion verdict (text or JSON)
    segre      a single Segre coefficient
    verify     run a named verification suite
    census     enumerate complete intersections into CSV or JSON

Exit codes: 0 success, 1 usage or parse error, 2 computation hypothesis
error, 3 verification-suite failure.  All semantics are controlled by
flags; no environment variable is read.  Identical argv (and seed)
produce byte-identical output.  Exact values print with ``str``: an
integer bare, a ``Fraction`` as "p/q" with q > 0 (or bare when
integral).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import MultisecantError, ParseError

# Each subcommand imports the layers it runs, so that a one-shot call
# loads only those; building the parser imports none of them.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_SUITE_FAILURE = 3

# --n, --j and --trials above these exit 2 before any arithmetic: a class
# on P^n has n+1 coefficients, so --n 3000000000 would exhaust memory, and
# bterm-experiment holds its whole grid and report, about 0.3 KB a trial.
MAX_AMBIENT_DIM = 10_000
MAX_J = 1_000
MAX_TRIALS = 100_000

# census writes its file in slices of this many characters, so that the
# file object never holds a second, encoded copy of the whole document
WRITE_SLICE = 1 << 16

# verify.SUITE_NAMES, spelled out so that building the parser does not
# import the suites (tests/test_cli.py checks that the two agree)
SUITE_NAMES = ("recursion-oracle", "trisecant-identity", "lemma51", "cterm", "bterm-experiment")


class _CliExit(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


class _CliParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliExit(EXIT_USAGE, f"{self.prog}: error: {message}")


def _shown(text: str) -> str:
    # a refused value as argparse quotes it, cut to a short prefix
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def _int(text: str, refusal: str = "") -> int:
    """``int(text)``, the type of every integer flag and of both ends of a range.

    argparse would echo a refused value in full, so the refusal names the
    digit count of an ASCII literal past the interpreter's 4,300-digit
    limit, and quotes at most a prefix of any other value.
    """
    try:
        return int(text)
    except ValueError:
        literal = re.fullmatch(r"\s*[+-]?([0-9]+)\s*", text)
        if literal:
            refusal = f"integer too long ({len(literal[1])} digits)"
        raise argparse.ArgumentTypeError(refusal or f"invalid int value: {_shown(text)}") from None


def _parse_range(text: str) -> tuple[int, int]:
    # a text without ".." is refused as an end that is not an integer is
    lo, hi = text.split("..", 1) if ".." in text else ("", "")
    refusal = f"expected 'lo..hi', got {_shown(text)}"
    return _int(lo, refusal), _int(hi, refusal)


def _elaborated(args):
    from .exprs import elaborate, parse_bundle

    return elaborate(parse_bundle(args.expr), args.n)


def _verdict_lines(verdict) -> list[str]:
    lines = [f"verdict: {verdict.outcome}", f"criterion: {verdict.citation}"]
    for hyp in verdict.hypotheses:
        left, right = hyp.render_sides()
        mark = "ok" if hyp.satisfied else "unmet"
        lines.append(f"  [{mark}] {hyp.name}: {hyp.condition} ({left} vs {right})")
    for note in verdict.notes:
        lines.append(f"  note: {note}")
    return lines


def verdict_to_record(verdict) -> dict:
    record = {
        "outcome": verdict.outcome,
        "citation": verdict.citation,
        "hypotheses": [
            {
                "name": h.name,
                "condition": h.condition,
                "left": left,
                "right": right,
                "satisfied": h.satisfied,
            }
            for h in verdict.hypotheses
            for left, right in [h.render_sides()]
        ],
    }
    if verdict.notes:
        record["notes"] = list(verdict.notes)
    return record


def _check_limits(args) -> None:
    for flag, limit in (("n", MAX_AMBIENT_DIM), ("j", MAX_J), ("trials", MAX_TRIALS)):
        value = getattr(args, flag, None)
        for v in value if isinstance(value, tuple) else (value,):  # census --n is LO..HI
            if v is not None and v > limit:
                raise _CliExit(EXIT_HYPOTHESIS, f"error: --{flag} {v} exceeds the limit {limit}")


# -- subcommand implementations -------------------------------------------


def _cmd_chern(args, out) -> int:
    value = _elaborated(args)
    lines = [f"ambient: P^{value.ambient_dim}\n"]
    if value.abstract:
        lines.append(f"codim: {value.codim}\n")
        lines.append(f"degree: {value.degree}\n")
        lines.append(f"chern vector: {';'.join(str(c) for c in value.c)}\n")
    else:
        lines.append(f"rank: {value.codim}\n")
    lines.append(f"total chern: {value.total_chern}\n")
    # formatted in full first: a value too long for str exits 2 with stdout empty
    out.write("".join(lines))
    return EXIT_OK


def _cmd_secants(args, out) -> int:
    from .secants import multisecant_report

    value = _elaborated(args)
    report = multisecant_report(value, args.j)
    factors = ", ".join(map(str, report.factors))
    flags = []
    if report.value == 0:
        flags.append("zero class: locus may have smaller dimension than expected")
    if report.value.denominator != 1:
        flags.append("non-integral value: improper-dimension input")
    out.write(
        f"secant lines: {args.j + 1}-secants through a generic external point\n"
        f"twisted top chern factors c_r(E(0))..c_r(E(-{args.j})): {factors}\n"
        f"degree: {report.value}\n"
        f"flags: {'; '.join(flags) if flags else 'none'}\n"
    )
    return EXIT_OK


def _cmd_trisecant(args, out) -> int:
    from .bundles import as_chern_vector
    from .secants import trisecant_closed, trisecant_double_sum

    cv = as_chern_vector(_elaborated(args))
    closed = trisecant_closed(cv)
    double = trisecant_double_sum(cv)
    out.write(f"closed form (1/2)c_r(N(-1))c_r(N(-2)): {closed}\n")
    out.write(f"expanded double sum:                   {double}\n")
    if closed != double:
        out.write("equal: no\n")
        raise _CliExit(EXIT_HYPOTHESIS, "trisecant forms disagree")
    out.write("equal: yes\n")
    return EXIT_OK


def _cmd_normality(args, out) -> int:
    from .normality import check_2normal, check_jnormal_bundle, check_linear_normality_zak

    value = _elaborated(args)
    if not value.abstract:
        verdict = check_jnormal_bundle(value, args.j)
    elif args.j == 2:
        verdict = check_2normal(value)
    elif args.j == 1:
        verdict = check_linear_normality_zak(value.ambient_dim, value.codim)
    else:
        raise _CliExit(
            EXIT_USAGE,
            "abstract normal data supports only --j 1 (linear) or --j 2 (quadratic)",
        )
    if args.format == "json":
        import json

        out.write(json.dumps(verdict_to_record(verdict), indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(_verdict_lines(verdict)) + "\n")
    return EXIT_OK


def _cmd_segre(args, out) -> int:
    from .bundles import as_chern_vector, segre_coefficient

    cv = as_chern_vector(_elaborated(args))
    out.write(f"sigma_{args.k} = {segre_coefficient(cv, args.k)}\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .verify import run_suite

    try:
        passed, lines = run_suite(args.suite, args.trials, args.seed)
    except ValueError as exc:
        raise _CliExit(EXIT_USAGE, f"error: {exc}")
    out.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_SUITE_FAILURE


def _cmd_census(args, out) -> int:
    from .census import enumerate_rows, render_csv, render_json

    rows = enumerate_rows(args.r, args.degrees, args.n, args.j)
    text = render_csv(rows) if args.format == "csv" else render_json(rows)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            for start in range(0, len(text), WRITE_SLICE):
                fh.write(text[start : start + WRITE_SLICE])
    except OSError as exc:
        raise _CliExit(EXIT_USAGE, f"error: cannot write {args.out}: {exc.strerror or exc}")
    out.write(f"wrote {len(rows)} rows to {args.out}\n")
    return EXIT_OK


# -- argument wiring -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="multisecant",
        description="Exact secant degrees, Chern/Segre calculus and "
        "normality criteria on projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr_command(name: str, run, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--n", type=_int, required=True, help="ambient dimension")
        p.add_argument("expr", help="bundle expression, e.g. 'O(2)+O(2)' or 'N{r=2,c=[1,4,4]}'")
        return p

    add_expr_command("chern", _cmd_chern, "print the total Chern class")

    p = add_expr_command("secants", _cmd_secants, "degree of the (j+1)-secant locus")
    p.add_argument("--j", type=_int, required=True, help="count (j+1)-secant lines")

    add_expr_command("trisecant", _cmd_trisecant, "trisecant count, closed form and double sum")

    p = add_expr_command("normality", _cmd_normality, "normality-criterion verdict")
    p.add_argument("--j", type=_int, required=True, help="normality degree j")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add_expr_command("segre", _cmd_segre, "a single Segre coefficient")
    p.add_argument("--k", type=_int, required=True, help="Segre index k")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", type=_int, default=None)
    p.add_argument("--seed", type=_int, default=0)

    p = sub.add_parser("census", help="enumerate complete intersections to a file")
    p.set_defaults(run=_cmd_census)
    p.add_argument("--r", type=_int, required=True, help="codimension")
    p.add_argument("--degrees", type=_parse_range, required=True, metavar="LO..HI")
    p.add_argument("--n", type=_parse_range, required=True, metavar="LO..HI")
    p.add_argument("--j", type=_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def run_command(argv, out=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        _check_limits(args)
        return args.run(args, out)
    except _CliExit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MultisecantError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def main(argv=None) -> int:
    try:
        code = run_command(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at devnull so that
        # the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
