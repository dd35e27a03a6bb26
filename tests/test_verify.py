"""Failure paths of the asserting verify suites.

Each case breaks one side of a suite's identity inside ``multisecant.verify``
and pins what ``verify`` prints through ``run_command``: the ``[FAIL]``
lines with their replayable inputs, the failure count, the ``suite X: FAIL``
line and exit code 3.  The passing paths are pinned by the goldens and the
acceptance criteria, which call the same suites.
"""

import io

import pytest

from multisecant import verify
from multisecant.cli import run_command
from multisecant.fiberring import FiberRing

LEMMA51_NOTE = (
    "note: misprint witness at (n=2, t=1): shifted form gives -2, not the unit "
    "value -1; the unit form requires the symmetric-power dimension binom(n+i, i)"
)


def _plus_one(real):
    return lambda cv: real(cv) + 1


def _plus_ring_one(real):
    return lambda cv, k: real(cv, k) + FiberRing(cv.ambient_dim, k + 1).one()


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
        "recursion_top_chern",
        _plus_ring_one,
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
        "trisecant_double_sum",
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
        "goettsche_c_full",
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
        "goettsche_c_reduced",
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
        "koszul_rank_identity",
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
        "wedge_resolution_sum_unit",
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
        "wedge_resolution_sum_shifted",
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
    name, breaker, options, expected = CASES[case]
    suite = expected[0].removeprefix("suite: ")
    monkeypatch.setattr(verify, name, breaker(getattr(verify, name)))
    out = io.StringIO()
    code = run_command(["verify", "--suite", suite, *options], out=out)
    assert out.getvalue() == "\n".join(expected) + "\n"
    assert code == 3
