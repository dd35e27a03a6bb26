"""Batch census of complete intersections, written as flat CSV/JSON.

A census enumerates CI(d_1..d_r) in P^n over rectangular parameter
ranges and records, per row, the inputs, the twisted top Chern factors,
the (j+1)-secant degree and the normality verdicts.  Every computed field
is reproducible from the input fields alone, which is what
``verify_rows`` checks when a written file is read back.

Cost: for n > r nothing in the Chern data of E = O(d_1) + ... + O(d_r) is
truncated, so c_r(E(-i)) = prod_k (d_k - i) and every value column
depends only on the degree tuple and j.  A row depends on n only through
its two verdicts, which depend only on (n, r, j) and on whether any factor
c_r(E(-i)), i = 1..j, vanishes.  A sweep computes each of the two parts
once and builds its rows from them.

Rows: a ``CensusRow`` is a named tuple of the CSV columns in column
order, so the CSV writer passes each row on with only ``degrees`` joined
and both readers build rows positionally.  Every row holds the types
census.schema.json gives its fields: n, r, j and each degree an ``int``
(never a ``bool`` or ``float``), every other field a ``str``.
``enumerate_rows`` and ``parse_csv`` build rows that way, and the JSON
reader refuses a row any other way with ``ValueError``, so the writers and
``verify_rows`` take the types as given.  The JSON reader builds each row
as the decoder completes it and never holds the decoded document.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.  The JSON writer emits exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, joined once from row
fragments: rows that differ only in n share all their text but n.
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
# A JSON census of this many rows at r = 1 or 2 is a 67-70 MB document and
# its process peaks at 112-114 MB of resident memory, the whole document
# held once before it is written (Python 3.11.7 on a 2-core x86_64 Xeon,
# max RSS of one `multisecant census` process).
MAX_ROWS = 100_000

# Largest codimension a sweep takes.  MAX_ROWS bounds the rows, not their
# size: a row holds r+1 Chern numbers of about r digits each.  Under the
# row cap, degrees 1..2 at r = 20 write 128 MB of JSON in 2.1 s with a
# 170 MB peak, no more than the r = 2 sweep --degrees 1..446 --n 3..3
# --j 6, whose 99,681 distinct rows write 82 MB with a 292 MB peak
# (measured as above); at r = 100 the CSV alone is 329 MB and takes 13 s
# (Python 3.11, one core, enumerate_rows and the render in one process).
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
    factors c_r(E(-i)) for i = 0..j and whether any of them with i >= 1
    vanishes; ``verdicts`` maps (n, r, j, that flag) to the jnormal and zak
    outcomes.  This is exact because the criterion holds only when every
    hypothesis does, so which factor vanishes never changes its outcome,
    and zak reads only (n, r).  The value part is exact only for n > r, so both
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
                0 in report.factors[1:],
            )
        degree, chern, twisted, secant, warning, consistent, factors, vanishes = values
        verdicts = self.verdicts.get((n, r, j, vanishes))
        if verdicts is None:
            if bundle is None:
                bundle = complete_intersection_bundle(n, degrees)
            verdicts = (
                check_jnormal_bundle(bundle, j, factors).outcome,
                check_linear_normality_zak(n, r).outcome,
            )
            self.verdicts[n, r, j, vanishes] = verdicts
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


_FORMAT = "multisecant-census/1"
_CITATIONS = ["secant-product-formula", "jnormal-bundle-criterion", "zak-linear-normality"]

# One row of the census document as json.dumps(indent=2, sort_keys=True)
# lays it out (keys sorted at every level, the row an item of "rows"), cut
# at its n, the one field that a sweep varies fastest.  Everything else in
# a row repeats across n, so render_json renders the two halves once per
# distinct rest of the row and the document shares them by reference until
# the final join.
_ROW_BEFORE_N = """,
    {
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
        "n": """
_ROW_AFTER_N = """,
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
_ITEM = ",\n          "
_SEAM = '"' + _ITEM + '"'


def _json_list(items: str) -> str:
    """Encoded items, joined by ``_ITEM``, as a list inside a row's section,
    where an item is indented ten spaces."""
    return "[\n          " + items + "\n        ]" if items else "[]"


def render_json(rows: Iterable[CensusRow]) -> str:
    """The census document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it.  The text is joined once from
    one list of fragments; of each row only its n is its own.

    A ";"-separated string is encoded in one call: escaping never produces
    ";", so each ";" becomes the seam between two encoded items."""
    encode = encode_basestring_ascii
    halves = {}
    parts = ['{\n  "format": "' + _FORMAT + '",\n  "rows": [']
    for row in rows:
        rest = row[1:]
        shared = halves.get(rest)
        if shared is None:
            r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warning, consistent = rest
            flags = ("true" if consistent == "true" else "false", "true" if warning == "true" else "false")
            shared = halves[rest] = (
                _ROW_BEFORE_N % (*flags, _json_list(_ITEM.join(map(repr, degrees))), j),
                _ROW_AFTER_N % (
                    r, _json_list(encode(chern).replace(";", _SEAM)), encode(degree), encode(secant),
                    _json_list(encode(twisted).replace(";", _SEAM)), encode(jnormal), encode(zak),
                ),
            )
        parts += (shared[0], repr(row[0]), shared[1])
    if len(parts) == 1:
        parts.append("]\n}\n")
    else:
        parts[1] = parts[1][1:]  # the first row follows the opening bracket, not a comma
        parts.append("\n  ]\n}\n")
    return "".join(parts)


def parse_csv(text: str) -> list[CensusRow]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected census header: {header!r}")
    make = CensusRow._make
    return [
        make((int(n), int(r), tuple(map(int, degrees.split(";"))), int(j),
              degree, chern, twisted, secant, jnormal, zak, warn, cons))
        for n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warn, cons in reader
    ]


def _json_row(obj: dict):
    """``object_hook`` of ``parse_json``: a row object becomes a
    ``CensusRow`` as soon as the decoder completes it.  Its sections and
    the top level have no ``"inputs"`` key and pass through unchanged.

    This is where a row is held to census.schema.json: every key present
    and no other, n, r, j and each degree an int, the value and verdict
    fields strings, the flags booleans and the citations the three the
    writer writes.  A row that passes holds the types ``enumerate_rows``
    gives, and ``render_json`` writes it back as it was read.  One that
    does not raises ``ValueError``, or, for a missing key or a wrong
    container, the ``KeyError`` or ``TypeError`` that ``parse_json``
    turns into one.
    """
    if "inputs" not in obj:
        return obj
    inputs, values, verdicts, flags = obj["inputs"], obj["values"], obj["verdicts"], obj["flags"]
    n, r, degrees, j, degree, cherns, twisteds, secant, jnormal, zak, warning, consistent = (
        inputs["n"], inputs["r"], inputs["degrees"], inputs["j"],
        values["degree"], values["chern"], values["twisted_top_cherns"], values["secant_degree"],
        verdicts["jnormal"], verdicts["zak"], flags["integrality_warning"], flags["d_consistent"],
    )
    chern, twisted = ";".join(cherns), ";".join(twisteds)  # TypeError on an item that is not a string
    if (
        (len(obj), len(inputs), len(values), len(verdicts), len(flags)) != (5, 4, 4, 2, 2)
        or not type(n) is type(r) is type(j) is int
        or not type(degree) is type(secant) is type(jnormal) is type(zak) is str
        or not type(degrees) is type(cherns) is type(twisteds) is list
        or not type(warning) is type(consistent) is bool
        or not {int}.issuperset(map(type, degrees))
        or obj.get("citations") != _CITATIONS
        # an item holding ";" would be written back as two, an empty list as [""]
        or chern.count(";") != len(cherns) - 1
        or twisted.count(";") != len(twisteds) - 1
    ):
        raise ValueError("census row does not match the schema")
    return CensusRow(
        n, r, tuple(degrees), j, degree, chern, twisted, secant, jnormal, zak,
        "true" if warning else "false", "true" if consistent else "false",
    )


def parse_json(text: str) -> list[CensusRow]:
    """The rows of a census document.  Each row is built while the text is
    decoded, so the decoded document is never held, only the rows.  A
    document that does not match census.schema.json raises ``ValueError``."""
    try:
        doc = json.loads(text, object_hook=_json_row)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"census document does not match the schema: {exc!r}") from exc
    found = doc.get("format") if type(doc) is dict else None
    if found != _FORMAT:
        raise ValueError(f"unexpected census format: {found!r}")
    rows = doc.get("rows")
    if len(doc) != 2 or type(rows) is not list or any(type(row) is not CensusRow for row in rows):
        raise ValueError("a census document holds its format and a list of row objects, no more")
    return rows


def verify_rows(rows: Iterable[CensusRow]) -> list[str]:
    """Recompute every row from its inputs; return mismatch descriptions
    (empty list when the file reproduces exactly)."""
    problems = []
    sweep = _Sweep()
    for idx, row in enumerate(rows):
        fresh = sweep.row(row.n, row.degrees, row.j)
        if fresh != row:
            problems.append(f"row {idx}: stored {row} != recomputed {fresh}")
    return problems
