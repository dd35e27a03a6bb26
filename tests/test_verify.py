"""Passing and failure output of every verify suite.

``PASSING`` pins each suite's full stdout at a small trial count, with exit
code 0, so a change to a header or ``sample:`` line shows.  Each failure
case breaks one side of a suite's identity in the module that owns it,
which the suite's runner imports from when it runs, and pins what
``verify`` prints through ``run_command``: the ``[FAIL]`` lines with their
replayable inputs, the failure count, the ``suite X: FAIL`` line and exit
code 3.  ``DIGESTS`` pins the sha256 of each suite's stdout
at its default trials on seeds 0 and 1.  The benchmark test keeps its
suite list in step with the suite table.
"""

import ast
import hashlib
import importlib
import io
import random
from pathlib import Path

import pytest

from multisecant import verify
from multisecant.cli import run_command
from oracles import OracleRing

LEMMA51_NOTE = (
    "note: misprint witness at (n=2, t=1): shifted form gives -2, not the unit "
    "value -1; the unit form requires the symmetric-power dimension binom(n+i, i)"
)


def _plus_one(real):
    return lambda cv: real(cv) + 1


def _plus_hyperplane_product(real):
    # adds H_1^r ... H_(k+1)^r, a class of the result's degree (k+1)r
    def broken(cv, k):
        ring = OracleRing(cv.ambient_dim, k + 1)
        extra = ring.one()
        for i in range(1, k + 2):
            extra = extra * ring.hyperplane_power(i, cv.codim)
        return real(cv, k) + extra

    return broken


def _worked_instance_off(real):
    # only the worked instance (n=4, c=(1,4,4)) is wrong
    return lambda cv: real(cv) + (cv.ambient_dim == 4 and cv.c == (1, 4, 4))


def _rank_identity_off(real):
    def broken(l, p, t):
        lhs, rhs = real(l, p, t)
        return lhs, rhs + ((l, p, t) == (1, 2, 3))

    return broken


def _off_at(cell):
    return lambda real: lambda n, t: real(n, t) + ((n, t) == cell)


CASES = {
    "recursion-oracle": (
        "fiberring.recursion_top_chern",
        _plus_hyperplane_product,
        ["--trials", "3", "--seed", "1"],
        [
            "suite: recursion-oracle",
            "trials: 3, seed: 1",
            "grid: n in 3..8, r in 1..3, k in 1..3, |c_i| <= 5",
            "[FAIL] trial 0: n=3 r=1 k=1 c=(1, -3) (recursion != closed form)",
            "[FAIL] trial 1: n=3 r=1 k=2 c=(1, 4) (recursion != closed form)",
            "[FAIL] trial 2: n=3 r=1 k=3 c=(1, -4) (recursion != closed form)",
            "failures: 3/3",
            "suite recursion-oracle: FAIL",
        ],
    ),
    "trisecant-identity": (
        "secants.trisecant_double_sum",
        _plus_one,
        ["--trials", "3", "--seed", "1"],
        [
            "suite: trisecant-identity",
            "trials: 3, seed: 1",
            "sample: r in 1..6, |c_i| <= 9",
            "[FAIL] trial 0: r=2 c=(1, 9, -7)",
            "[FAIL] trial 1: r=3 c=(1, -6, 6, 5)",
            "[FAIL] trial 2: r=4 c=(1, 3, -3, -6, 6)",
            "failures: 3/3",
            "suite trisecant-identity: FAIL",
        ],
    ),
    "cterm-worked-instance": (
        "secants.goettsche_c_full",
        _worked_instance_off,
        ["--trials", "3", "--seed", "1"],
        [
            "suite: cterm",
            "trials: 3, seed: 1",
            "sample: r in 1..6, n in max(1, 2r-2)..30, |c_i| <= 9, d = c_r",
            "[FAIL] worked instance: full=33 reduced=32, expected 32",
            "failures: 1",
            "suite cterm: FAIL",
        ],
    ),
    "cterm": (
        "secants.goettsche_c_reduced",
        _plus_one,
        ["--trials", "2", "--seed", "1"],
        [
            "suite: cterm",
            "trials: 2, seed: 1",
            "sample: r in 1..6, n in max(1, 2r-2)..30, |c_i| <= 9, d = c_r",
            "[FAIL] worked instance: full=32 reduced=33, expected 32",
            "[FAIL] trial 0: n=20 r=2 c=(1, -7, -1)",
            "[FAIL] trial 1: n=16 r=1 c=(1, 5)",
            "failures: 3",
            "suite cterm: FAIL",
        ],
    ),
    "lemma51-rank": (
        "combinat.koszul_rank_identity",
        _rank_identity_off,
        [],
        [
            "suite: lemma51",
            "grid: rank identity for l+p <= 40, t <= 40; alternating sums for n, t <= 30",
            "[FAIL] rank identity: l=1 p=2 t=3",
            "rank identity: 35300/35301 exact",
            "unit alternating sum == (-1)^t: 961/961",
            "shifted alternating sum == (-1)^t*(t+1): 961/961",
            LEMMA51_NOTE,
            "suite lemma51: FAIL",
        ],
    ),
    "lemma51-unit": (
        "combinat.wedge_resolution_sum_unit",
        _off_at((4, 5)),
        [],
        [
            "suite: lemma51",
            "grid: rank identity for l+p <= 40, t <= 40; alternating sums for n, t <= 30",
            "rank identity: 35301/35301 exact",
            "[FAIL] unit alternating sum: n=4 t=5",
            "unit alternating sum == (-1)^t: 960/961",
            "shifted alternating sum == (-1)^t*(t+1): 961/961",
            LEMMA51_NOTE,
            "suite lemma51: FAIL",
        ],
    ),
    "lemma51-shifted": (
        "combinat.wedge_resolution_sum_shifted",
        _off_at((30, 0)),
        [],
        [
            "suite: lemma51",
            "grid: rank identity for l+p <= 40, t <= 40; alternating sums for n, t <= 30",
            "rank identity: 35301/35301 exact",
            "[FAIL] shifted alternating sum: n=30 t=0",
            "unit alternating sum == (-1)^t: 961/961",
            "shifted alternating sum == (-1)^t*(t+1): 960/961",
            LEMMA51_NOTE,
            "suite lemma51: FAIL",
        ],
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_broken_identity_fails_the_suite(case, monkeypatch):
    target, breaker, options, expected = CASES[case]
    suite = expected[0].removeprefix("suite: ")
    module_name, name = target.split(".")
    module = importlib.import_module(f"multisecant.{module_name}")
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    out = io.StringIO()
    code = run_command(["verify", "--suite", suite, *options], out=out)
    assert out.getvalue() == "\n".join(expected) + "\n"
    assert code == 3


PASSING = {
    "recursion-oracle": (
        ["--trials", "3", "--seed", "1"],
        [
            "suite: recursion-oracle",
            "trials: 3, seed: 1",
            "grid: n in 3..8, r in 1..3, k in 1..3, |c_i| <= 5",
            "exact matches: 3/3",
            "suite recursion-oracle: PASS",
        ],
    ),
    "trisecant-identity": (
        ["--trials", "3", "--seed", "1"],
        [
            "suite: trisecant-identity",
            "trials: 3, seed: 1",
            "sample: r in 1..6, |c_i| <= 9",
            "exact matches: 3/3",
            "suite trisecant-identity: PASS",
        ],
    ),
    "lemma51": (
        ["--trials", "3", "--seed", "1"],
        [
            "suite: lemma51",
            "grid: rank identity for l+p <= 40, t <= 40; alternating sums for n, t <= 30",
            "rank identity: 35301/35301 exact",
            "unit alternating sum == (-1)^t: 961/961",
            "shifted alternating sum == (-1)^t*(t+1): 961/961",
            LEMMA51_NOTE,
            "suite lemma51: PASS",
        ],
    ),
    "cterm": (
        ["--trials", "3", "--seed", "1"],
        [
            "suite: cterm",
            "trials: 3, seed: 1",
            "sample: r in 1..6, n in max(1, 2r-2)..30, |c_i| <= 9, d = c_r",
            "worked instance n=4 r=2 c=(1,4,4): both routes give 32",
            "exact matches: 3/3",
            "suite cterm: PASS",
        ],
    ),
    "bterm-experiment": (
        ["--trials", "5", "--seed", "1"],
        [
            "suite: bterm-experiment",
            "cases: 5 (fixed grid, chern data seed 1)",
            "[case 00] n=2 r=1 c=(1, -3): full=1 reduced=1 match",
            "[case 01] n=4 r=2 c=(1, 4, -4): full=-2 reduced=-2 match",
            "[case 02] n=7 r=3 c=(1, -1, -4, 2): full=-16 reduced=-16 match",
            "[case 03] n=10 r=4 c=(1, 2, 2, 5, 1): full=8 reduced=8 match",
            "[case 04] n=9 r=5 c=(1, -2, -4, 2, -5, 1): full=-68 reduced=-68 match",
            "summary: 5/5 match, 0/5 mismatch",
            "report complete; the comparison is observational",
            "suite bterm-experiment: PASS",
        ],
    ),
}


@pytest.mark.parametrize("suite", list(PASSING))
def test_passing_output_is_pinned(suite):
    options, expected = PASSING[suite]
    out = io.StringIO()
    code = run_command(["verify", "--suite", suite, *options], out=out)
    assert out.getvalue() == "\n".join(expected) + "\n"
    assert code == 0


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_names_every_suite():
    # read from the syntax tree: the benchmark's modules are not imported
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    suites = next(
        ast.literal_eval(node.value)
        for node in workloads.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SUITES" for t in node.targets)
    )
    checks = ast.parse((PERFBENCH / "checks.py").read_text())
    suite_calls = next(
        node
        for node in checks.body
        if isinstance(node, ast.FunctionDef) and node.name == "suite_calls"
    )
    table = next(node for node in ast.walk(suite_calls) if isinstance(node, ast.Dict))
    counted = {ast.literal_eval(key) for key in table.keys}
    assert set(suites) == counted == set(verify._RUNNERS)


DIGESTS = {
    # sha256 of the full stdout of `verify --suite S --seed K` at the default trials
    ("recursion-oracle", 0): "dc7f09f9b43fab03f01aae5ec60073ba6f512c9eb77898cc6444078b8bdc965f",
    ("recursion-oracle", 1): "6547ef035aede637817ad85bdbcb72086b46b9b907f3e05d5f28f5d0b8c37d04",
    ("trisecant-identity", 0): "8481bbaefdcead63639425954a5928a76759623de510b8db8ad00754d3267077",
    ("trisecant-identity", 1): "3db78c645989110b5fc7e5ecf98109383df19805153b73059525f7e044bf0090",
    ("lemma51", 0): "677aad7247b6e939b08c6e5fc1a04a81861c37221e7ff0f321526727aee962cd",
    ("lemma51", 1): "677aad7247b6e939b08c6e5fc1a04a81861c37221e7ff0f321526727aee962cd",
    ("cterm", 0): "3ace3ee411415d02526b99f88ce737a6888aa0e3b183abbf081492a5e79117c8",
    ("cterm", 1): "163838832268ce15184826663e26b220398a35b1d0a496e9a51f14cd345602ce",
    ("bterm-experiment", 0): "31ece43a1c570b8936903946958e385bd97771c4e01c369c673e0ea401070011",
    ("bterm-experiment", 1): "a0f18c8c506af4dffd332bd8511436ff6c4078263b289e24d305afc937c31cc3",
}


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_run_suite_passes_the_table_default(suite, monkeypatch):
    # the suites have no defaults of their own: run_suite supplies the table's
    # and writes the header and the verdict around the runner's body lines
    runner, default = verify._RUNNERS[suite]
    calls = []

    def fake(lines, trials, seed):
        calls.append((trials, seed))
        lines.append("body")
        return 0 if seed == 0 else 2

    monkeypatch.setitem(verify._RUNNERS, suite, (fake, default))
    assert verify.run_suite(suite) == (True, [f"suite: {suite}", "body", f"suite {suite}: PASS"])
    assert calls == [(default, 0)]
    assert verify.run_suite(suite, 3, 7) == (
        False, [f"suite: {suite}", "body", f"suite {suite}: FAIL"]
    )
    assert calls[1] == (3, 7)


@pytest.mark.parametrize("suite, seed", list(DIGESTS), ids=lambda v: str(v))
def test_default_trials_output_digest(suite, seed):
    out = io.StringIO()
    code = run_command(["verify", "--suite", suite, "--seed", str(seed)], out=out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[suite, seed]
    assert code == 0


def test_digests_cover_every_suite():
    assert {suite for suite, _ in DIGESTS} == set(verify.SUITE_NAMES)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 5, 9, 2**31, 10**40])
def test_sampler_draws_what_randint_draws(bound):
    # the sampler inlines randint's rejection loop: its vectors and the state
    # it leaves must equal those of a twin generator that calls randint
    for seed in range(40):
        rng, twin = random.Random(seed), random.Random(seed)
        for r in range(1, 7):
            cv = verify._random_chern_vector(rng, 2 * r, r, bound)
            assert cv.c == tuple([1] + [twin.randint(-bound, bound) for _ in range(r)])
            assert (cv.ambient_dim, cv.codim, cv.degree, cv.abstract) == (2 * r, r, cv.c[r], True)
        assert rng.getstate() == twin.getstate()
