"""Batch census of complete intersections, written as flat CSV/JSON.

A census enumerates CI(d_1..d_r) in P^n over rectangular parameter
ranges and records, per row, the inputs, the twisted top Chern factors,
the (j+1)-secant degree and the normality verdicts.  Every computed field
is reproducible from the input fields alone, which is what
``verify_rows`` checks when a written file is read back.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bundles import complete_intersection_bundle
from .errors import HypothesisError
from .normality import check_jnormal_bundle, check_linear_normality_zak
from .rationals import format_rational
from .secants import multisecant_report

CSV_HEADER = (
    "n",
    "r",
    "degrees",
    "j",
    "degree",
    "chern",
    "twisted_top_cherns",
    "secant_degree",
    "jnormal",
    "zak",
    "integrality_warning",
    "d_consistent",
)

ROW_CITATIONS = ("secant-product-formula", "jnormal-bundle-criterion", "zak-linear-normality")


@dataclass(frozen=True)
class CensusRow:
    """One complete intersection with its computed invariants.

    All non-input fields are already serialized (exact rational strings,
    outcome words, "true"/"false" flags) so CSV and JSON emit identical
    values byte for byte.
    """

    n: int
    r: int
    degrees: tuple[int, ...]
    j: int
    degree: str
    chern: str
    twisted_top_cherns: str
    secant_degree: str
    jnormal: str
    zak: str
    integrality_warning: str
    d_consistent: str


def compute_row(n: int, degrees: Sequence[int], j: int) -> CensusRow:
    degrees = tuple(degrees)
    r = len(degrees)
    bundle = complete_intersection_bundle(n, degrees)
    report = multisecant_report(bundle, j)
    total_degree = 1
    for d in degrees:
        total_degree *= d
    chern = ";".join(format_rational(c) for c in bundle.c[: n + 1])
    # for a split bundle the top Chern number is the product of the degrees
    d_consistent = bundle.c[r] == total_degree if r <= n else False
    return CensusRow(
        n=n,
        r=r,
        degrees=degrees,
        j=j,
        degree=str(total_degree),
        chern=chern,
        twisted_top_cherns=";".join(format_rational(f) for f in report.factors),
        secant_degree=format_rational(report.value),
        jnormal=check_jnormal_bundle(bundle, j).outcome,
        zak=check_linear_normality_zak(n, r).outcome,
        integrality_warning="false" if report.integral else "true",
        d_consistent="true" if d_consistent else "false",
    )


def enumerate_rows(
    r: int,
    degree_range: tuple[int, int],
    ambient_range: tuple[int, int],
    j: int,
) -> list[CensusRow]:
    """All CI(d_1 <= ... <= d_r) with degrees and n in the given inclusive
    ranges, ascending n first, degree tuples lexicographic within."""
    lo_d, hi_d = degree_range
    lo_n, hi_n = ambient_range
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if lo_d > hi_d or lo_n > hi_n:
        raise ValueError("empty parameter range")
    if lo_n <= r:
        raise HypothesisError(
            f"ambient range must start above the codimension, got n={lo_n} <= r={r}"
        )
    rows = []
    for n in range(lo_n, hi_n + 1):
        for degrees in itertools.combinations_with_replacement(
            range(lo_d, hi_d + 1), r
        ):
            rows.append(compute_row(n, degrees, j))
    return rows


def _row_record(row: CensusRow) -> dict:
    return {
        "inputs": {
            "n": row.n,
            "r": row.r,
            "degrees": list(row.degrees),
            "j": row.j,
        },
        "values": {
            "degree": row.degree,
            "chern": row.chern.split(";"),
            "twisted_top_cherns": row.twisted_top_cherns.split(";"),
            "secant_degree": row.secant_degree,
        },
        "verdicts": {"jnormal": row.jnormal, "zak": row.zak},
        "flags": {
            "integrality_warning": row.integrality_warning == "true",
            "d_consistent": row.d_consistent == "true",
        },
        "citations": list(ROW_CITATIONS),
    }


def render_csv(rows: Iterable[CensusRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            (
                row.n,
                row.r,
                ";".join(str(d) for d in row.degrees),
                row.j,
                row.degree,
                row.chern,
                row.twisted_top_cherns,
                row.secant_degree,
                row.jnormal,
                row.zak,
                row.integrality_warning,
                row.d_consistent,
            )
        )
    return buf.getvalue()


def render_json(rows: Iterable[CensusRow]) -> str:
    doc = {
        "format": "multisecant-census/1",
        "rows": [_row_record(row) for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_csv(text: str) -> list[CensusRow]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected census header: {header!r}")
    rows = []
    for rec in reader:
        (n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warn, cons) = rec
        rows.append(
            CensusRow(
                n=int(n),
                r=int(r),
                degrees=tuple(int(d) for d in degrees.split(";")),
                j=int(j),
                degree=degree,
                chern=chern,
                twisted_top_cherns=twisted,
                secant_degree=secant,
                jnormal=jnormal,
                zak=zak,
                integrality_warning=warn,
                d_consistent=cons,
            )
        )
    return rows


def parse_json(text: str) -> list[CensusRow]:
    doc = json.loads(text)
    rows = []
    for rec in doc["rows"]:
        inputs, values = rec["inputs"], rec["values"]
        rows.append(
            CensusRow(
                n=inputs["n"],
                r=inputs["r"],
                degrees=tuple(inputs["degrees"]),
                j=inputs["j"],
                degree=values["degree"],
                chern=";".join(values["chern"]),
                twisted_top_cherns=";".join(values["twisted_top_cherns"]),
                secant_degree=values["secant_degree"],
                jnormal=rec["verdicts"]["jnormal"],
                zak=rec["verdicts"]["zak"],
                integrality_warning="true" if rec["flags"]["integrality_warning"] else "false",
                d_consistent="true" if rec["flags"]["d_consistent"] else "false",
            )
        )
    return rows


def verify_rows(rows: Iterable[CensusRow]) -> list[str]:
    """Recompute every row from its inputs; return mismatch descriptions
    (empty list when the file reproduces exactly)."""
    problems = []
    for idx, row in enumerate(rows):
        fresh = compute_row(row.n, row.degrees, row.j)
        if fresh != row:
            problems.append(f"row {idx}: stored {row} != recomputed {fresh}")
    return problems
