"""Named verification suites.

Each suite replays one of the package's exact identities over a grid or a
seeded random sample and reports pass/fail with replayable
counterexamples (the seed and the offending inputs are printed, never
summarized away).  Suites are deterministic functions of (trials, seed).

The exact suites check and tally in one place: ``_sampled`` runs every
seeded suite (header, trial loop, failure count), and ``SuiteReport.count``
writes the ``[FAIL]`` lines and counts them, for ``_sampled`` and for the
three exhaustive grids of ``lemma51``.  A suite supplies only its sample
line and how one case is drawn and checked.

``bterm-experiment`` is different in kind: it compares the raw and
reduced forms of the trisecant (b) term, which differ by the raw sum's
dropped t = n cell at n = 2r-2 (see ``secants.goettsche_b_full``), and
passes by producing a complete match/mismatch report rather than by
asserting equality.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from .bundles import ChernVector
from .combinat import (
    koszul_rank_identity,
    wedge_resolution_sum_shifted,
    wedge_resolution_sum_unit,
)
from .errors import Record
from .fiberring import closed_form_top_chern, recursion_top_chern
from .secants import (
    goettsche_b_full,
    goettsche_b_reduced,
    goettsche_c_full,
    goettsche_c_reduced,
    trisecant_closed,
    trisecant_double_sum,
)


class SuiteReport(Record):
    """A suite's verdict and output lines; the one record that a suite
    fills in as it runs, so it allows assignment and is unhashable."""

    __slots__ = ("name", "passed", "lines")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, passed: bool, lines: list[str] | None = None):
        self.name = name
        self.passed = passed
        self.lines = [] if lines is None else lines

    def add(self, line: str):
        self.lines.append(line)

    def count(self, broken: Iterable[tuple[str, str]]) -> int:
        """Add a ``[FAIL] <label>: <where>`` line per broken case; return
        how many there were."""
        failures = 0
        for label, where in broken:
            self.add(f"[FAIL] {label}: {where}")
            failures += 1
        return failures

    def finish(self) -> "SuiteReport":
        status = "PASS" if self.passed else "FAIL"
        self.add(f"suite {self.name}: {status}")
        return self


def _random_chern_vector(rng: random.Random, n: int, r: int, bound: int) -> ChernVector:
    c = [1] + [rng.randint(-bound, bound) for _ in range(r)]
    return ChernVector.make(n, c)


def _sampled(
    name: str,
    trials: int,
    seed: int,
    sample: str,
    case: Callable[[random.Random, int], str | None],
    worked: Callable[[SuiteReport], int] | None = None,
) -> SuiteReport:
    """Run one seeded exact suite: ``case(rng, trial)`` draws a case from
    the shared stream, checks its identity and returns where it broke, or
    None when it holds (so passing cases format nothing).

    ``worked`` checks a fixed instance before the trials and returns its
    failure count; with one, the failure line counts all failures, not
    failures per trial.
    """
    rng = random.Random(seed)
    report = SuiteReport(name, True, [f"suite: {name}", f"trials: {trials}, seed: {seed}", sample])
    failures = worked(report) if worked else 0
    failures += report.count(
        (f"trial {trial}", where)
        for trial in range(trials)
        if (where := case(rng, trial)) is not None
    )
    if failures:
        report.passed = False
        report.add(f"failures: {failures}" if worked else f"failures: {failures}/{trials}")
    else:
        report.add(f"exact matches: {trials}/{trials}")
    return report.finish()


def oracle_grid() -> list[tuple[int, int, int]]:
    """The criterion grid of the recursion oracle: n in 3..8, r and k in 1..3."""
    return [(n, r, k) for n in range(3, 9) for r in range(1, 4) for k in range(1, 4)]


def run_recursion_oracle(trials: int, seed: int) -> SuiteReport:
    """recursion class == closed-form class, exact normal-form equality.

    Trials cycle round-robin over the full (n, r, k) grid so every cell is
    exercised; Chern data is drawn fresh per trial with |c_i| <= 5.
    """
    grid = oracle_grid()

    def case(rng, trial):
        n, r, k = grid[trial % len(grid)]
        cv = _random_chern_vector(rng, n, r, 5)
        if recursion_top_chern(cv, k) != closed_form_top_chern(cv, k):
            return f"n={n} r={r} k={k} c={cv.c} (recursion != closed form)"

    grid_line = "grid: n in 3..8, r in 1..3, k in 1..3, |c_i| <= 5"
    return _sampled("recursion-oracle", trials, seed, grid_line, case)


def run_trisecant_identity(trials: int, seed: int) -> SuiteReport:
    """trisecant double sum == trisecant closed form, exact."""

    def case(rng, trial):
        r = rng.randint(1, 6)
        cv = _random_chern_vector(rng, max(2 * r - 1, 2), r, 9)
        if trisecant_double_sum(cv) != trisecant_closed(cv):
            return f"r={r} c={cv.c}"

    sample = "sample: r in 1..6, |c_i| <= 9"
    return _sampled("trisecant-identity", trials, seed, sample, case)


def run_lemma51(trials: int, seed: int) -> SuiteReport:
    """Both binomial identities on their full grids (exhaustive, so the
    trials/seed arguments are accepted for interface uniformity only).

    The telescoping sum is checked in its corrected form (== (-1)^t) and
    in the off-by-one printed form, which instead equals (-1)^t (t+1);
    the discrepancy witness at (n=2, t=1) is always reported.
    """
    del trials, seed  # exhaustive grids
    report = SuiteReport("lemma51", True, ["suite: lemma51"])
    report.add(
        "grid: rank identity for l+p <= 40, t <= 40; alternating sums for n, t <= 30"
    )
    # the rank grid is walked, not listed: 35,301 tuples would add 2 MB of peak RSS
    rank_cases = sum(m + 1 for m in range(41)) * 41
    rank_bad = report.count(
        ("rank identity", f"l={l} p={m - l} t={t}")
        for m in range(41)
        for l in range(m + 1)
        for t in range(41)
        for lhs, rhs in [koszul_rank_identity(l, m - l, t)]
        if lhs != rhs
    )
    report.add(f"rank identity: {rank_cases - rank_bad}/{rank_cases} exact")
    cells = [(n, t) for n in range(31) for t in range(31)]
    unit_bad = report.count(
        ("unit alternating sum", f"n={n} t={t}")
        for n, t in cells
        if wedge_resolution_sum_unit(n, t) != (-1) ** t
    )
    shifted_bad = report.count(
        ("shifted alternating sum", f"n={n} t={t}")
        for n, t in cells
        if wedge_resolution_sum_shifted(n, t) != (-1) ** t * (t + 1)
    )
    report.add(f"unit alternating sum == (-1)^t: {len(cells) - unit_bad}/{len(cells)}")
    report.add(
        f"shifted alternating sum == (-1)^t*(t+1): {len(cells) - shifted_bad}/{len(cells)}"
    )
    witness = wedge_resolution_sum_shifted(2, 1)
    report.add(
        f"note: misprint witness at (n=2, t=1): shifted form gives {witness}, "
        "not the unit value -1; the unit form requires the symmetric-power "
        "dimension binom(n+i, i)"
    )
    report.passed = not (rank_bad or unit_bad or shifted_bad)
    return report.finish()


def run_cterm(trials: int, seed: int) -> SuiteReport:
    """(c)-term raw sum == closed form d*c_(r-1) + d^2*(r-1), exact."""

    def worked(report):
        cv = ChernVector.make(4, [1, 4, 4])
        full, reduced = goettsche_c_full(cv), goettsche_c_reduced(cv)
        if full == reduced == 32:
            report.add("worked instance n=4 r=2 c=(1,4,4): both routes give 32")
            return 0
        return report.count([("worked instance", f"full={full} reduced={reduced}, expected 32")])

    def case(rng, trial):
        r = rng.randint(1, 6)
        n = rng.randint(max(1, 2 * r - 2), 30)
        cv = _random_chern_vector(rng, n, r, 9)
        if goettsche_c_full(cv) != goettsche_c_reduced(cv):
            return f"n={n} r={r} c={cv.c}"

    sample = "sample: r in 1..6, n in max(1, 2r-2)..30, |c_i| <= 9, d = c_r"
    return _sampled("cterm", trials, seed, sample, case, worked)


def bterm_grid(seed: int, cases: int) -> list[ChernVector]:
    """The fixed comparison grid: codimension cycles 1..5, the ambient
    dimension stays just above 2r-2, Chern data comes from one seeded
    stream."""
    rng = random.Random(seed)
    grid = []
    for case in range(cases):
        r = case % 5 + 1
        n = max(1, 2 * r - 2) + case % 4 + 1
        grid.append(_random_chern_vector(rng, n, r, 5))
    return grid


def run_bterm_experiment(trials: int, seed: int) -> SuiteReport:
    """Compare the raw triple-sum (b) term against its reduced double sum
    on the fixed grid.

    The suite passes by reporting every case; agreement is recorded, not
    required.
    """
    report = SuiteReport("bterm-experiment", True)
    report.add("suite: bterm-experiment")
    report.add(f"cases: {trials} (fixed grid, chern data seed {seed})")
    matches = 0
    for idx, cv in enumerate(bterm_grid(seed, trials)):
        full = goettsche_b_full(cv)
        reduced = goettsche_b_reduced(cv)
        verdict = "match" if full == reduced else "mismatch"
        matches += verdict == "match"
        report.add(
            f"[case {idx:02d}] n={cv.ambient_dim} r={cv.codim} c={cv.c}: "
            f"full={full} reduced={reduced} {verdict}"
        )
    report.add(f"summary: {matches}/{trials} match, {trials - matches}/{trials} mismatch")
    report.add("report complete; the comparison is observational")
    return report.finish()


# suite name: (runner, default trials); the defaults are written only here
_RUNNERS = {
    "recursion-oracle": (run_recursion_oracle, 200),
    "trisecant-identity": (run_trisecant_identity, 1000),
    "lemma51": (run_lemma51, 0),
    "cterm": (run_cterm, 200),
    "bterm-experiment": (run_bterm_experiment, 50),
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteReport:
    if name not in _RUNNERS:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    runner, default_trials = _RUNNERS[name]
    return runner(default_trials if trials is None else trials, seed)
