"""Acceptance suite: one test per criterion, one printed line each.

Run as
    pytest tests/test_acceptance.py -v -s
to see the PASS/FAIL line per criterion.  All checks are exact (integer
or Fraction equality); tolerances appear only as runtime ceilings.
Criteria 01, 03, 04 and 05 run the ``verify`` suites through
``run_suite``, so the CLI and these criteria check the same loops;
tests/test_verify.py pins what those suites print when an identity breaks.

Criterion 10 is a printed-vs-corrected check, like criterion 05: the
printed residual identity between the trisecant double sum and the
reduced (b) term drops the (m = r-1, i = r) cell, so the test asserts the
corrected residual exactly on every sampled vector and pins the printed
form's error at exactly -c_(r-1)*c_r, with the worked witness c = (1,4,4).
The corrected identity is also a property test in
tests/test_secants.py::TestGoettscheTerms::test_true_residual_identity.
The printed form must never be made to hold: that would require
misimplementing the double sum or the reduced (b) term, both of which are
pinned by independently computed values.
"""

import random
import time
from fractions import Fraction

from multisecant import (
    ChernVector,
    complete_intersection_bundle,
    double_point_expansion,
    goettsche_b_reduced,
    line_bundle,
    multisecant_report,
    ran_min_ambient_dim,
    secant_count_via_ring,
    jnormal_min_ambient_dim,
    top_chern_twisted,
    trisecant_closed,
    trisecant_double_sum,
    wedge_resolution_sum_shifted,
)
from multisecant.verify import oracle_grid, run_bterm_experiment, run_suite

SEED = 20240801


def report(num, ok, desc):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def random_vector(rng, n, r, bound):
    return ChernVector.make(n, [1] + [rng.randint(-bound, bound) for _ in range(r)])


def oracle_stream(per_cell=200, bound=5):
    rng = random.Random(SEED)
    for n, r, k in oracle_grid():
        for _ in range(per_cell):
            yield n, k, random_vector(rng, n, r, bound)


def run_timed(suite, trials):
    started = time.monotonic()
    result = run_suite(suite, trials, SEED)
    return result, time.monotonic() - started


def test_criterion_01_recursion_oracle():
    trials = 200 * len(oracle_grid())  # the suite cycles the grid: 200 per cell
    suite, elapsed = run_timed("recursion-oracle", trials)
    ok = (
        suite.passed
        and f"exact matches: {trials}/{trials}" in suite.lines
        and elapsed < 60.0
    )
    assert report(
        1,
        ok,
        f"recursion == closed form on {trials} cases "
        f"(200 per grid cell, {elapsed:.1f}s)",
    )


def test_criterion_02_secant_count_consistency():
    checked = mismatches = 0
    for n, k, cv in oracle_stream():
        if n + k < (k + 1) * cv.codim:
            continue
        checked += 1
        if secant_count_via_ring(cv, k) != multisecant_report(cv, k).value:
            mismatches += 1
    chords = secant_count_via_ring(complete_intersection_bundle(3, [2, 2]), 1)
    pairs = secant_count_via_ring(line_bundle(1, 3), 1)
    ok = mismatches == 0 and chords == 2 and pairs == 3
    assert report(
        2,
        ok,
        f"ring count == product formula on {checked} balanced cases; "
        f"chords of CI(2,2) in P^3 = {chords}, pairs on cubic divisor = {pairs}",
    )


def test_criterion_03_trisecant_identity():
    suite, elapsed = run_timed("trisecant-identity", 1000)
    ok = suite.passed and "exact matches: 1000/1000" in suite.lines and elapsed < 5.0
    assert report(
        3, ok, f"double sum == closed form on 1000 random vectors ({elapsed:.2f}s)"
    )


def test_criterion_04_c_term():
    suite, _ = run_timed("cterm", 200)
    ok = (
        suite.passed
        and "exact matches: 200/200" in suite.lines
        and "worked instance n=4 r=2 c=(1,4,4): both routes give 32" in suite.lines
    )
    assert report(
        4,
        ok,
        "(c) raw sum == closed form on 200 random vectors; worked instance both 32",
    )


def test_criterion_05_binomial_identities():
    # the suite's grids are exhaustive: l+p <= 40 and t <= 40 for the rank
    # identity, n, t <= 30 for the two alternating sums
    rank_cases = sum(m + 1 for m in range(41)) * 41
    suite, _ = run_timed("lemma51", 0)
    witness = wedge_resolution_sum_shifted(2, 1)
    witness_reported = any("(n=2, t=1)" in line and "-2" in line for line in suite.lines)
    ok = (
        suite.passed
        and f"rank identity: {rank_cases}/{rank_cases} exact" in suite.lines
        and "unit alternating sum == (-1)^t: 961/961" in suite.lines
        and "shifted alternating sum == (-1)^t*(t+1): 961/961" in suite.lines
        and witness == -2
        and witness_reported
    )
    assert report(
        5,
        ok,
        "rank identity exact for l+p <= 40, t <= 40; corrected sum == (-1)^t; "
        f"printed sum == (-1)^t(t+1) with witness (n=2,t=1) -> {witness}",
    )


def test_criterion_06_bisecant():
    rng = random.Random(SEED)
    quartic = multisecant_report(ChernVector.make(4, [1, 4, 4]), 1).value
    mismatches = 0
    for _ in range(500):
        r = rng.randint(1, 6)
        cv = random_vector(rng, rng.randint(max(1, r), 20), r, 9)
        if double_point_expansion(cv) != top_chern_twisted(cv, -1):
            mismatches += 1
    ok = quartic == 2 and mismatches == 0
    assert report(
        6,
        ok,
        f"bisecant degree of (1,4,4) = {quartic}; double-point expansion == "
        "twisted top Chern on 500 random vectors",
    )


def test_criterion_07_ran_bound_recovery():
    agree = all(
        jnormal_min_ambient_dim(2, j) == ran_min_ambient_dim(j) for j in range(2, 11)
    )
    j1 = (jnormal_min_ambient_dim(2, 1), ran_min_ambient_dim(1))
    ok = agree and j1 == (10, 7)
    assert report(
        7,
        ok,
        f"codim-2 bound recovered for 2 <= j <= 10; j=1 differs as recorded {j1[0]} vs {j1[1]}",
    )


def test_criterion_08_three_points_per_line():
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(500):
        r = rng.randint(1, 6)
        cv = random_vector(rng, rng.randint(max(1, r), 20), r, 9)
        if trisecant_closed(cv) * cv.degree != 3 * multisecant_report(cv, 2).value:
            mismatches += 1
    ok = mismatches == 0
    assert report(
        8, ok, "trisecant class * d == 3 * 3-secant degree on 500 random vectors"
    )


def test_criterion_09_b_term_experiment():
    started = time.monotonic()
    suite = run_bterm_experiment(50, 0)
    elapsed = time.monotonic() - started
    case_lines = [line for line in suite.lines if line.startswith("[case")]
    verdicts = [line.rsplit(" ", 1)[1] for line in case_lines]
    complete = len(case_lines) == 50 and all(
        v in ("match", "mismatch") for v in verdicts
    )
    # determinism: the report must reproduce byte for byte
    replay = run_bterm_experiment(50, 0)
    ok = complete and suite.passed and replay.lines == suite.lines and elapsed < 10.0
    assert report(
        9,
        ok,
        f"(b)-term comparison reported on all 50 grid cases "
        f"({verdicts.count('match')} match / {verdicts.count('mismatch')} mismatch, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_10_residual_identity_as_printed():
    # printed-vs-corrected, like criterion 05: the reduced (b) term's inner
    # limit 2r-2-m drops the (m = r-1, i = r) cell of the double sum's
    # rectangle, so the residual is the printed m-slice minus c_(r-1)*c_r
    def residual(cv):
        r = cv.codim
        printed = Fraction(cv.c[r], 2) * sum(
            (-1) ** (r + i) * cv.c[i] for i in range(r + 1)
        )
        actual = trisecant_double_sum(cv) - goettsche_b_reduced(cv)
        return actual, printed, printed - cv.c[r - 1] * cv.c[r]

    rng = random.Random(SEED)
    corrected_misses = printed_holds = 0
    for _ in range(500):
        r = rng.randint(1, 6)
        cv = random_vector(rng, rng.randint(max(1, 2 * r - 2), 20), r, 9)
        actual, printed, corrected = residual(cv)
        corrected_misses += actual != corrected
        printed_holds += actual == printed
    quartic = ChernVector.make(8, [1, 4, 4])
    _, printed, corrected = residual(quartic)
    witness = (
        trisecant_double_sum(quartic),
        goettsche_b_reduced(quartic),
        printed,
        corrected,
    )
    ok = (
        corrected_misses == 0
        and printed_holds < 500
        and witness == (0, 14, 2, -14)
    )
    assert report(
        10,
        ok,
        f"corrected residual (m-slice) - c_(r-1)c_r exact on "
        f"{500 - corrected_misses}/500 random vectors; printed form holds on "
        f"{printed_holds}, fails on {500 - printed_holds}; witness c=(1,4,4): "
        f"double sum {witness[0]}, reduced b {witness[1]}, "
        f"printed {witness[2]}, corrected {witness[3]}",
    )


def test_criterion_11_cli_determinism_and_census_roundtrip():
    import io

    from multisecant.census import parse_csv, parse_json, render_csv, render_json, verify_rows
    from multisecant.cli import run_command

    invocations = [
        ["chern", "--n", "4", "O(2)+O(2)"],
        ["secants", "--n", "3", "--j", "1", "O(2)+O(2)"],
        ["trisecant", "--n", "8", "N{r=2,c=[1,4,4]}"],
        ["normality", "--n", "18", "--j", "2", "O(3)+O(3)"],
        ["segre", "--n", "4", "--k", "2", "N{r=2,c=[1,4,4]}"],
        ["verify", "--suite", "bterm-experiment"],
    ]

    def run(argv):
        out = io.StringIO()
        code = run_command(argv, out=out)
        return code, out.getvalue()

    deterministic = all(run(argv) == run(argv) and run(argv)[0] == 0 for argv in invocations)

    from multisecant.census import enumerate_rows

    rows = enumerate_rows(2, (2, 4), (3, 8), 1)
    csv_ok = (
        render_csv(parse_csv(render_csv(rows))) == render_csv(rows)
        and verify_rows(parse_csv(render_csv(rows))) == []
    )
    json_ok = (
        render_json(parse_json(render_json(rows))) == render_json(rows)
        and verify_rows(parse_json(render_json(rows))) == []
    )
    ok = deterministic and csv_ok and json_ok
    assert report(
        11,
        ok,
        "byte-identical CLI replays on 6 subcommands; census CSV/JSON "
        f"re-ingestion reproduces all {len(rows)} rows",
    )
