"""Independent output checks.

Every expected value here comes from a few-line formula written for the
benchmark; nothing is imported from the package under test.  A check
returns a list of problems, empty when the output is correct.

Bundle data is modelled as (rank, total Chern polynomial truncated at
degree n) for split-built bundles and as (codim, c, d) for abstract
normal data ``N{...}``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path


def fmt(q) -> str:
    """Exact rational as the CLI prints it: bare integer or p/q."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- bundle model -------------------------------------------------------------


class Expected(Exception):
    """The op is expected to exit with this code and print nothing on stdout."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def twisted_coeffs(r, c, t, top):
    """c_k(E(t)) = sum_i C(r-i, k-i) c_i t^(k-i) for k = 0..top."""
    return [sum(comb(r - i, k - i) * c[i] * t ** (k - i) for i in range(k + 1)) for k in range(top + 1)]


def model(expr, n):
    """Chern data of a generated expression over P^n.

    Returns ("bundle", rank, poly) or ("normal", codim, c, d); raises
    Expected(1) where elaboration is a parse error.
    """
    kind = expr[0]
    if kind == "O":
        return ("bundle", 1, ([1, expr[1]] + [0] * n)[: n + 1])
    if kind == "T":
        return ("bundle", n, [comb(n + 1, k) for k in range(n + 1)])
    if kind == "sum":
        parts = [model(e, n) for e in expr[1]]
        if any(p[0] == "normal" for p in parts):
            raise Expected(1)
        rank, poly = parts[0][1], parts[0][2]
        for p in parts[1:]:
            rank, poly = rank + p[1], poly_mul(poly, p[2], n)
        return ("bundle", rank, poly)
    if kind == "twist":
        sub, t = model(expr[1], n), expr[2]
        if sub[0] == "normal":
            new = twisted_coeffs(sub[1], sub[2], t, sub[1])
            return ("normal", sub[1], new, new[-1])
        r, c = sub[1], chern_list(sub, n)
        coeffs = twisted_coeffs(r, c, t, min(r, n))
        return ("bundle", r, coeffs + [0] * (n + 1 - len(coeffs)))
    if kind == "N":
        _, r, c, d = expr
        return ("normal", r, list(c), c[-1] if d is None else d)
    raise ValueError(f"unknown expression {expr!r}")


def chern_list(m, n):
    """c_0..c_r as scalars; classes above degree n vanish in the ring."""
    if m[0] == "normal":
        return list(m[2])
    r, poly = m[1], m[2]
    return [poly[i] if i <= n else 0 for i in range(r + 1)]


def top_twisted(r, c, t):
    """c_r(E(t)) = sum_m c_m t^(r-m)."""
    return sum(c[m] * t ** (r - m) for m in range(r + 1))


def segre(n, r, c, k):
    return sum((-1) ** (k - i) * comb(n + k - i, k - i) * c[i] for i in range(min(k, r) + 1))


def poly_str(coeffs) -> str:
    terms = []
    for k, x in enumerate(coeffs):
        if x == 0:
            continue
        mono = "H" if k == 1 else f"H^{k}"
        body = str(abs(x)) if k == 0 else (mono if abs(x) == 1 else f"{abs(x)}*{mono}")
        terms.append((body, x < 0))
    if not terms:
        return "0"
    out = ("-" if terms[0][1] else "") + terms[0][0]
    for body, neg in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


def render(expr) -> str:
    kind = expr[0]
    if kind == "O":
        return f"O({expr[1]})"
    if kind == "T":
        return "T"
    if kind == "sum":
        return "+".join(render(e) for e in expr[1])
    if kind == "twist":
        return f"({render(expr[1])})@({expr[2]})"
    if kind == "N":
        d = "" if expr[3] is None else f",d={expr[3]}"
        return f"N{{r={expr[1]},c=[{','.join(map(str, expr[2]))}]{d}}}"
    return expr[1]  # ("raw", text): a deliberately malformed expression


# -- expected outputs of the expression subcommands ---------------------------


def _chern_vector(m, n):
    """as_chern_vector: split data needs its top class inside the ring."""
    if m[0] == "bundle" and m[1] > n:
        raise Expected(2)
    return m[1], chern_list(m, n)


def _jnormal(m_dim, r, j, twisted_nonzero):
    ok = all(twisted_nonzero) and 2 * (r + 1) * j <= m_dim - r and (j + 1) * ((r + 1) * j - 1) <= m_dim - 1
    return "holds" if ok else "fails"


def expected_values(cmd, n, expr, opts):
    """The values an expression subcommand must print, or raise Expected."""
    if expr[0] == "raw":
        raise Expected(1)
    m = model(expr, n)
    if cmd == "chern":
        if m[0] == "normal":
            return [f"ambient: P^{n}", f"codim: {m[1]}", f"degree: {m[3]}",
                    f"chern vector: {';'.join(map(str, m[2]))}",
                    f"total chern: {poly_str((m[2] + [0] * n)[: n + 1])}"]
        return [f"ambient: P^{n}", f"rank: {m[1]}", f"total chern: {poly_str(m[2])}"]
    if cmd == "secants":
        j, r, c = opts["j"], m[1], chern_list(m, n)
        factors = [top_twisted(r, c, -i) for i in range(j + 1)]
        return {"factors": [fmt(f) for f in factors],
                "degree": Fraction(prod(factors), factorial(j + 1))}
    if cmd == "trisecant":
        r, c = _chern_vector(m, n)
        return Fraction(top_twisted(r, c, -1) * top_twisted(r, c, -2), 2)
    if cmd == "segre":
        r, c = _chern_vector(m, n)
        k = opts["k"]
        if not 0 <= k <= n:
            raise Expected(2)
        return segre(n, r, c, k)
    if cmd == "normality":
        j, r, c = opts["j"], m[1], chern_list(m, n)
        if m[0] == "bundle":
            if n - r < 1:
                raise Expected(2)
            nonzero = [top_twisted(r, c, -i) for i in range(1, j + 1)]
            return ("jnormal-bundle-criterion", _jnormal(n - r, r, j, nonzero), [fmt(v) for v in nonzero])
        if j == 2:
            if n - r < 1:
                raise Expected(2)
            v = top_twisted(r, c, -2)
            ok = v != 0 and 6 * r <= n - r - 4
            return ("quadratic-normality-criterion", "holds" if ok else "fails", [fmt(v)])
        if j == 1:
            if not n > r >= 1:
                raise Expected(2)
            return ("zak-linear-normality", "holds" if 4 * r <= n else "inapplicable", [])
        raise Expected(1)
    raise ValueError(f"unknown subcommand {cmd}")


def check_expr_op(spec, code, out):
    """Check one expression subcommand against the model."""
    cmd, n, expr, opts = spec["cmd"], spec["n"], spec["expr"], spec["opts"]
    try:
        want = expected_values(cmd, n, expr, opts)
    except Expected as exc:
        problems = [] if code == exc.code else [f"exit {code}, expected {exc.code}"]
        return problems + ([f"unexpected stdout {out[:80]!r}"] if out else [])
    if code != 0:
        return [f"exit {code}, expected 0"]
    lines = out.splitlines()
    if cmd == "chern":
        return [] if lines == want else [f"chern output {lines} != {want}"]
    if cmd == "secants":
        got = dict(line.split(": ", 1) for line in lines[1:])
        factors = next((v for k, v in got.items() if k.startswith("twisted top chern")), "")
        problems = []
        if factors.split(", ") != want["factors"]:
            problems.append(f"factors {factors!r} != {want['factors']}")
        if got.get("degree") != fmt(want["degree"]):
            problems.append(f"degree {got.get('degree')!r} != {fmt(want['degree'])}")
        clean = want["degree"] != 0 and want["degree"].denominator == 1
        if (got.get("flags") == "none") != clean:
            problems.append(f"flags {got.get('flags')!r} for degree {fmt(want['degree'])}")
        return problems
    if cmd == "trisecant":
        values = [line.rsplit(": ", 1)[1].strip() for line in lines]
        return [] if values == [fmt(want), fmt(want), "yes"] else [f"trisecant {values} != {fmt(want)}"]
    if cmd == "segre":
        return [] if lines == [f"sigma_{opts['k']} = {want}"] else [f"segre {lines} != {want}"]
    citation, outcome, twisted = want
    if opts.get("format") == "json":
        doc = json.loads(out)
        got = (doc["citation"], doc["outcome"],
               [h["left"] for h in doc["hypotheses"] if "nonzero" in h["name"]])
    else:
        lefts = re.findall(r"nonzero(?:_twist_\d+)?: .* \((\S+) vs 0\)$", out, re.M)
        got = (lines[1].removeprefix("criterion: "), lines[0].removeprefix("verdict: "), lefts)
    return [] if got == (citation, outcome, twisted) else [f"normality {got} != {want}"]


# -- verify suites --------------------------------------------------------------

LEMMA51_CHECKS = sum(m + 1 for m in range(41)) * 41 + 2 * 31 * 31


def suite_checks(suite: str, trials: int) -> int:
    """Identity checks one suite run performs, counted from its trials or grid."""
    return {"lemma51": LEMMA51_CHECKS, "cterm": trials + 1}.get(suite, trials)


def suite_calls(suite: str, trials: int) -> dict:
    """Traced calls a suite run must make, per span name: verify prints its
    trial count from its argument, so only these show that every trial ran."""
    return {
        "recursion-oracle": {"fiberring.recursion": trials, "fiberring.closed_form": trials},
        "trisecant-identity": {"secants.trisecant": 2 * trials},
        "lemma51": {"combinat.identity": LEMMA51_CHECKS + 1},  # + the misprint witness
        "cterm": {"secants.goettsche": 2 * (trials + 1)},  # + the worked instance
        "bterm-experiment": {"secants.goettsche": 2 * trials},
    }[suite]


def check_suite_calls(spec, calls) -> list[str]:
    return [f"{span}: {calls.get(span, 0)} traced calls, expected {want}"
            for span, want in suite_calls(spec["suite"], spec["trials"]).items() if calls.get(span, 0) != want]


def b_reduced(r, c):
    return sum((-1) ** (m + i) * 2 ** (r - 1 - m) * c[m] * c[i]
               for m in range(r) for i in range(min(2 * r - 2 - m, r) + 1))


def check_verify_op(spec, code, out, golden_dir: Path):
    suite, trials, seed = spec["suite"], spec["trials"], spec["seed"]
    lines = out.splitlines()
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    if not lines or lines[-1] != f"suite {suite}: PASS":
        problems.append(f"last line {lines[-1:]!r}")
    if suite == "lemma51":
        if out != (golden_dir / "verify_lemma51.txt").read_text():
            problems.append("lemma51 output differs from tests/golden/verify_lemma51.txt")
        return problems
    if suite == "bterm-experiment":
        cases = re.findall(r"^\[case (\d+)\] n=(\d+) r=(\d+) c=\(([-\d, ]+)\): full=(\S+) reduced=(\S+) (\w+)$", out, re.M)
        matches = 0
        for idx, n, r, c, full, reduced, verdict in cases:
            idx, n, r, c = int(idx), int(n), int(r), [int(x) for x in c.split(",")]
            if (r, n) != (idx % 5 + 1, max(1, 2 * r - 2) + idx % 4 + 1) or len(c) != r + 1 or c[0] != 1:
                problems.append(f"case {idx}: off the documented grid")
            if reduced != str(b_reduced(r, c)):
                problems.append(f"case {idx}: reduced b {reduced} != {b_reduced(r, c)}")
            if verdict != ("match" if full == reduced else "mismatch"):
                problems.append(f"case {idx}: verdict {verdict}")
            matches += verdict == "match"
        if len(cases) != trials or f"summary: {matches}/{trials} match, {trials - matches}/{trials} mismatch" not in lines:
            problems.append(f"bterm cases {len(cases)} / summary inconsistent with {trials} trials")
        return problems
    for want in (f"trials: {trials}, seed: {seed}", f"exact matches: {trials}/{trials}"):
        if want not in lines:
            problems.append(f"missing line {want!r}")
    return problems


# -- census -----------------------------------------------------------------------


def census_inputs(r, degrees, ns):
    """Rows a sweep must emit, in order: ascending n, then degree tuples
    d_1 <= ... <= d_r in lexicographic order."""
    tuples = list(itertools.combinations_with_replacement(range(degrees[0], degrees[1] + 1), r))
    return [(n, t) for n in range(ns[0], ns[1] + 1) for t in tuples]


def census_expected(n, degrees, j):
    r = len(degrees)
    elem = [1]
    for d in degrees:  # elementary symmetric functions of the degrees
        elem = [a + d * b for a, b in zip(elem + [0], [0] + elem)]
    m = n - r
    twisted = [prod(d - i for d in degrees) for i in range(j + 1)]
    secant = Fraction(prod(twisted), factorial(j + 1))
    return {
        "degree": str(prod(degrees)),
        "chern": ";".join(str(x) for x in elem[: min(r, n) + 1]),
        "twisted_top_cherns": ";".join(map(str, twisted)),
        "secant_degree": fmt(secant),
        "jnormal": _jnormal(m, r, j, twisted[1:]),
        "zak": "holds" if 4 * r <= n else "inapplicable",
        "integrality_warning": "false" if secant.denominator == 1 else "true",
        "d_consistent": "true",
    }


def census_records(text: str, fmt_name: str):
    """Rows of a written census file as flat dicts keyed by column name."""
    if fmt_name == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    rows = []
    for rec in json.loads(text)["rows"]:
        flat = dict(rec["inputs"])
        flat["degrees"] = ";".join(map(str, flat["degrees"]))
        for key, value in rec["values"].items():
            flat[key] = ";".join(value) if isinstance(value, list) else value
        flat.update(rec["verdicts"])
        flat.update({k: "true" if v else "false" for k, v in rec["flags"].items()})
        rows.append(flat)
    return rows


def check_census_file(spec, text):
    r, degrees, ns, j = spec["r"], spec["degrees"], spec["n"], spec["j"]
    want_inputs = census_inputs(r, degrees, ns)
    try:
        rows = census_records(text, spec["format"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable census file: {exc}"]
    if len(rows) != len(want_inputs):
        return [f"{len(rows)} rows, expected {len(want_inputs)}"]
    problems = []
    for idx, (row, (n, degs)) in enumerate(zip(rows, want_inputs)):
        got_inputs = (str(row.get("n")), str(row.get("r")), row.get("degrees"), str(row.get("j")))
        if got_inputs != (str(n), str(r), ";".join(map(str, degs)), str(j)):
            problems.append(f"row {idx}: inputs {got_inputs}")
        for key, value in census_expected(n, degs, j).items():
            if key in row and row[key] != value:  # columns are matched by name
                problems.append(f"row {idx}: {key} {row[key]!r} != {value!r}")
            elif key not in row and key != "d_consistent":
                problems.append(f"row {idx}: missing column {key}")
        if len(problems) > 5:
            break
    return problems


# -- oracle -------------------------------------------------------------------------


def oracle_monomials(n, r, k):
    """Terms of c_r(E(0))...c_r(E(-k)) * H_1^r...H_(k+1)^r when the scalar is
    nonzero: L^((k+1)(r-1)) * prod_i (D_i + L) keeps L^e D_S for e < n."""
    f = k + 1
    return sum(comb(f, s) for s in range(f + 1) if f * (r - 1) + f - s < n)


def oracle_count(r, c, k):
    """Ring count must equal (1/(k+1)!) prod_i c_r(E(-i))."""
    return Fraction(prod(top_twisted(r, c, -i) for i in range(k + 1)), factorial(k + 1))


def check_oracle_case(case, result):
    n, r, k, c = case["n"], case["r"], case["k"], case["c"]
    problems = []
    if not result["equal"]:
        problems.append("recursion class != closed-form class")
    if result["count"] != fmt(oracle_count(r, c, k)):
        problems.append(f"ring count {result['count']} != {fmt(oracle_count(r, c, k))}")
    if result["terms"] != oracle_monomials(n, r, k):
        problems.append(f"{result['terms']} monomials, expected {oracle_monomials(n, r, k)}")
    return problems


# -- traced runs -----------------------------------------------------------------

# A traced op's layer self times must add up to its traced wall time, as
# the launcher measures it from before the spawn to the reaped exit.  That
# wall time, span dump taken off, also holds the process exit after the
# last span (the traced driver skips interpreter teardown), so it may
# exceed the self times by at most this much; it may never be short of them.
# Exits measured 1 to 18 ms on a 2-core machine.
EXIT_SLACK_S = 0.02
EXIT_SLACK_SHARE = 0.05


def wall_problems(self_s, wall_s):
    """The layer self times of one traced op against its wall time measured
    outside the tracer: never more, and short of it by no more than the
    exit slack.  Double counting would exceed the wall time; a part of the
    op outside every span would fall short of it."""
    gap = wall_s - self_s
    if -1e-6 <= gap <= EXIT_SLACK_S + EXIT_SLACK_SHARE * wall_s:
        return []
    return [f"traced self times add up to {self_s:.4f} s, the op's traced wall time is {wall_s:.4f} s"]


# -- self-test ----------------------------------------------------------------------


def self_test(golden_dir: Path) -> list[str]:
    """Feed the checkers tampered outputs; each must be reported as failed."""
    missed = []
    spec = {"cmd": "secants", "n": 3, "expr": ("sum", [("O", 2), ("O", 2)]), "opts": {"j": 1}}
    good = (golden_dir / "secants_ci22_p3_j1.txt").read_text()
    if check_expr_op(spec, 0, good):
        missed.append("secants golden output rejected")
    if not check_expr_op(spec, 0, good.replace("degree: 2", "degree: 3")):
        missed.append("tampered secant degree accepted")
    census = {"r": 2, "degrees": (2, 3), "n": (3, 5), "j": 1, "format": "csv"}
    text = (golden_dir / "census_r2_d23_n35_j1.csv").read_text()
    if check_census_file(census, text):
        missed.append("census golden file rejected")
    if not check_census_file(census, text.replace("4;1,2,", "4;1,3,", 1)):
        missed.append("tampered census row accepted")
    case = {"n": 12, "r": 2, "k": 2, "c": [1, 5, 3]}  # factors 3, -1, -3: count 3/2, 8 monomials
    result = {"equal": True, "count": "3/2", "terms": 8}
    if check_oracle_case(case, result):
        missed.append("correct oracle case rejected")
    if not check_oracle_case(case, dict(result, count="1")):
        missed.append("tampered oracle count accepted")
    if wall_problems(1.0, 1.001):
        missed.append("traced op whose self times match its wall time rejected")
    if not wall_problems(1.0, 0.9) or not wall_problems(0.5, 1.0):
        missed.append("traced self times that double count or miss part of the op accepted")
    suite = {"suite": "recursion-oracle", "trials": 10}
    calls = {"fiberring.recursion": 10, "fiberring.closed_form": 10}
    if check_suite_calls(suite, calls):
        missed.append("complete suite run rejected")
    if not check_suite_calls(suite, dict(calls, **{"fiberring.recursion": 5})):
        missed.append("suite run that skipped trials accepted")
    return missed
