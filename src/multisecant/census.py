"""Batch census of complete intersections, written as flat CSV/JSON.

A census enumerates CI(d_1..d_r) in P^n over rectangular parameter
ranges and records, per row, the inputs, the twisted top Chern factors,
the (j+1)-secant degree and the normality verdicts.  Every computed field
is reproducible from the input fields alone, which is what
``verify_rows`` checks when a written file is read back.

Cost: for n > r nothing in the Chern data of E = O(d_1) + ... + O(d_r) is
truncated, so c_r(E(-i)) = prod_k (d_k - i) and every value column
depends only on the degree tuple and j.  A row depends on n only through
its two verdicts, which depend only on (n, r, j) and on which factors
c_r(E(-i)), i = 1..j, vanish.  A sweep computes each of the two parts
once and builds its rows from them.

Rows: a ``CensusRow`` is a named tuple of the CSV columns in column
order, so the CSV writer passes each row on with only ``degrees`` joined
and both readers build rows positionally.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.  The JSON writer fills a fixed template and emits
exactly the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .bundles import complete_intersection_bundle
from .errors import HypothesisError
from .normality import check_jnormal_bundle, check_linear_normality_zak
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


# Largest sweep enumerate_rows builds: 8x the 12,180-row benchmark grid.
# A JSON census of this many rows is a 67 MB document and peaks near
# 230 MB of resident memory; the whole document is held before writing.
MAX_ROWS = 100_000

# Largest codimension a sweep takes.  MAX_ROWS bounds the rows, not their
# size: a row holds r+1 Chern numbers of about r digits each.  Under the
# row cap, degrees 1..2 at r = 20 write 128 MB of JSON in 1.5 s with a
# 294 MB peak, no more than the largest r = 2 sweep measured the same way
# (307 MB); at r = 100 the CSV alone is 329 MB and takes 13 s (Python
# 3.11, one core, enumerate_rows and the render in one process).
MAX_CODIM = 20

CensusRow = namedtuple("CensusRow", CSV_HEADER)
CensusRow.__doc__ = """One complete intersection with its computed invariants.

    The fields are the CSV columns, in order: the inputs n, r, degrees (a
    tuple of ints) and j, then the computed fields.  All non-input fields
    are already serialized (exact rational strings, outcome words,
    "true"/"false" flags) so CSV and JSON emit identical values byte for
    byte.
    """


class _Sweep:
    """Rows built from two caches that live as long as one sweep.

    ``values`` maps (degrees, j) to the value columns, the two flags, the
    factors c_r(E(-i)) for i = 0..j and the indices i >= 1 at which they
    vanish; ``verdicts`` maps (n, r, j, vanishing indices) to the jnormal
    and zak outcomes.  The value part is exact only for n > r, so both
    parts are stored only after the verdicts are made: a row with n <= r
    or j < 1 raises there, as ``compute_row`` always has, and stores
    nothing.
    """

    def __init__(self):
        self.values = {}
        self.verdicts = {}

    def row(self, n: int, degrees: Sequence[int], j: int) -> CensusRow:
        degrees = tuple(degrees)
        r = len(degrees)
        values = self.values.get((degrees, j))
        miss = values is None
        bundle = None
        if miss:
            bundle = complete_intersection_bundle(n, degrees)
            report = multisecant_report(bundle, j)
            total_degree = math.prod(degrees)
            # for a split bundle the top Chern number is the product of the degrees
            d_consistent = bundle.c[r] == total_degree
            values = (
                str(total_degree),
                ";".join(map(str, bundle.c[: n + 1])),
                ";".join(map(str, report.factors)),
                str(report.value),
                "false" if report.integral else "true",
                "true" if d_consistent else "false",
                report.factors,
                tuple(i for i in range(1, j + 1) if report.factors[i] == 0),
            )
        degree, chern, twisted, secant, warning, consistent, factors, zeros = values
        verdicts = self.verdicts.get((n, r, j, zeros))
        if verdicts is None:
            if bundle is None:
                bundle = complete_intersection_bundle(n, degrees)
            verdicts = (
                check_jnormal_bundle(bundle, j, factors).outcome,
                check_linear_normality_zak(n, r).outcome,
            )
            self.verdicts[n, r, j, zeros] = verdicts
        if miss:
            self.values[degrees, j] = values
        jnormal, zak = verdicts
        return CensusRow._make(
            (n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warning, consistent)
        )


def compute_row(n: int, degrees: Sequence[int], j: int) -> CensusRow:
    """One census row, computed with a fresh sweep cache."""
    return _Sweep().row(n, degrees, j)


def enumerate_rows(
    r: int,
    degree_range: tuple[int, int],
    ambient_range: tuple[int, int],
    j: int,
) -> list[CensusRow]:
    """All CI(d_1 <= ... <= d_r) with degrees and n in the given inclusive
    ranges, ascending n first, degree tuples lexicographic within.

    A sweep of more than ``MAX_ROWS`` rows, or of codimension above
    ``MAX_CODIM``, raises ``HypothesisError`` before any row is built.
    """
    lo_d, hi_d = degree_range
    lo_n, hi_n = ambient_range
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if lo_d > hi_d or lo_n > hi_n:
        raise ValueError("empty parameter range")
    if lo_n <= r:
        raise HypothesisError(
            f"ambient range must start above the codimension, got n={lo_n} <= r={r}"
        )
    # #n * C(D+r-1, r) rows for D degrees; the binomial grows one exact
    # factor at a time, so a huge range stops as soon as it passes the cap
    rows = hi_n - lo_n + 1
    for k in range(1, r + 1):
        if rows > MAX_ROWS:
            break
        rows = rows * (hi_d - lo_d + k) // k
    if rows > MAX_ROWS:
        raise HypothesisError(f"census exceeds the limit of {MAX_ROWS} rows")
    if r > MAX_CODIM:
        raise HypothesisError(f"census codimension {r} exceeds the limit of {MAX_CODIM}")
    row = _Sweep().row
    tuples = list(itertools.combinations_with_replacement(range(lo_d, hi_d + 1), r))
    return [row(n, degrees, j) for n in range(lo_n, hi_n + 1) for degrees in tuples]


def render_csv(rows: Iterable[CensusRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(row[:2] + (";".join(map(str, row.degrees)),) + row[3:] for row in rows)
    return buf.getvalue()


# One row of the census document as json.dumps(indent=2, sort_keys=True)
# lays it out: keys sorted at every level, the row an item of "rows".
_JSON_ROW = """    {
      "citations": [
        "secant-product-formula",
        "jnormal-bundle-criterion",
        "zak-linear-normality"
      ],
      "flags": {
        "d_consistent": %s,
        "integrality_warning": %s
      },
      "inputs": {
        "degrees": %s,
        "j": %s,
        "n": %s,
        "r": %s
      },
      "values": {
        "chern": %s,
        "degree": %s,
        "secant_degree": %s,
        "twisted_top_cherns": %s
      },
      "verdicts": {
        "jnormal": %s,
        "zak": %s
      }
    }"""


def _json_scalar(value) -> str:
    # the encoder writes an int with int.__repr__; anything else goes to json itself
    return repr(value) if type(value) is int else json.dumps(value)


def _json_list(items: list[str]) -> str:
    """Encoded items as a list inside a row's section, where an item is
    indented ten spaces."""
    if not items:
        return "[]"
    return "[\n          " + ",\n          ".join(items) + "\n        ]"


def _json_split(text: str) -> str:
    """The ";"-separated string as a list of its parts, which is never empty.
    Escaping never produces ";", so the string is encoded in one call and
    each ";" becomes the seam between two encoded parts."""
    parts = encode_basestring_ascii(text).replace(";", '",\n          "')
    return "[\n          " + parts + "\n        ]"


def render_json(rows: Iterable[CensusRow]) -> str:
    """The census document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it."""
    encode = encode_basestring_ascii
    body = ",\n".join(
        _JSON_ROW
        % (
            "true" if row.d_consistent == "true" else "false",
            "true" if row.integrality_warning == "true" else "false",
            _json_list([_json_scalar(d) for d in row.degrees]),
            _json_scalar(row.j),
            _json_scalar(row.n),
            _json_scalar(row.r),
            _json_split(row.chern),
            encode(row.degree),
            encode(row.secant_degree),
            _json_split(row.twisted_top_cherns),
            encode(row.jnormal),
            encode(row.zak),
        )
        for row in rows
    )
    if not body:
        return '{\n  "format": "multisecant-census/1",\n  "rows": []\n}\n'
    # one copy of the body, not one per concatenation: the text is megabytes
    return '{\n  "format": "multisecant-census/1",\n  "rows": [\n%s\n  ]\n}\n' % body


def parse_csv(text: str) -> list[CensusRow]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected census header: {header!r}")
    make = CensusRow._make
    return [
        make((int(n), int(r), tuple(map(int, degrees.split(";"))), int(j),
              degree, chern, twisted, secant, jnormal, zak, warn, cons))
        for n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warn, cons in reader
    ]


def parse_json(text: str) -> list[CensusRow]:
    doc = json.loads(text)
    make = CensusRow._make
    rows = []
    for rec in doc["rows"]:
        inputs, values, verdicts, flags = rec["inputs"], rec["values"], rec["verdicts"], rec["flags"]
        rows.append(make((
            inputs["n"],
            inputs["r"],
            tuple(inputs["degrees"]),
            inputs["j"],
            values["degree"],
            ";".join(values["chern"]),
            ";".join(values["twisted_top_cherns"]),
            values["secant_degree"],
            verdicts["jnormal"],
            verdicts["zak"],
            "true" if flags["integrality_warning"] else "false",
            "true" if flags["d_consistent"] else "false",
        )))
    return rows


def verify_rows(rows: Iterable[CensusRow]) -> list[str]:
    """Recompute every row from its inputs; return mismatch descriptions
    (empty list when the file reproduces exactly)."""
    problems = []
    sweep = _Sweep()
    for idx, row in enumerate(rows):
        # a value that equals an int without being one (2.0, True) would share
        # its cache entries, so such a row gets a cache of its own
        exact = all(type(x) is int for x in (row.n, row.j, *row.degrees))
        fresh = (sweep if exact else _Sweep()).row(row.n, row.degrees, row.j)
        if fresh != row:
            problems.append(f"row {idx}: stored {row} != recomputed {fresh}")
    return problems
