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
and both readers build rows positionally.  The JSON reader builds each
row as the decoder completes it and never holds the decoded document.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.  The JSON writer emits exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, joined once from row
fragments that rows share wherever their text agrees.
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

# One row of the census document as json.dumps(indent=2, sort_keys=True)
# lays it out (keys sorted at every level, the row an item of "rows"), cut
# where what the text depends on changes: the head on the flags and the
# degrees, the inputs on the row itself, the values on the four value
# columns and the verdicts on the two verdicts.  A sweep repeats its heads,
# values and verdicts across n, so render_json renders each distinct one
# once and the document shares it by reference until the final join.
_ROW_HEAD = """    {
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
        "j": """
_ROW_INPUTS = """%s,
        "n": %s,
        "r": %s
      },
      "values": {
        "chern": """
_ROW_VALUES = """%s,
        "degree": %s,
        "secant_degree": %s,
        "twisted_top_cherns": %s
      },
      "verdicts": {
        "jnormal": """
_ROW_VERDICTS = """%s,
        "zak": %s
      }
    }"""


def _json_value(value, indent: str) -> str:
    """A decoded JSON value, or a tuple as a list, as the encoder writes it
    where its line is indented by ``indent``; an int takes the encoder's
    own int.__repr__."""
    if type(value) is int:
        return repr(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_ints(items: tuple) -> str:
    """Ints as a list inside a row's section, where an item is indented ten
    spaces; the same text as ``_json_value`` at a fraction of its cost."""
    if not items:
        return "[]"
    return "[\n          " + ",\n          ".join(map(repr, items)) + "\n        ]"


def _json_split(text: str) -> str:
    """The ";"-separated string as a list of its parts, which is never empty.
    Escaping never produces ";", so the string is encoded in one call and
    each ";" becomes the seam between two encoded parts."""
    parts = encode_basestring_ascii(text).replace(";", '",\n          "')
    return "[\n          " + parts + "\n        ]"


def render_json(rows: Iterable[CensusRow]) -> str:
    """The census document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it.  The text is joined once from
    one list of fragments; of each row only its n, r and j are its own."""
    encode = encode_basestring_ascii
    heads, values, verdicts = {}, {}, {}
    parts = ['{\n  "format": "' + _FORMAT + '",\n  "rows": [']
    for n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warning, consistent in rows:
        flags = ("true" if consistent == "true" else "false", "true" if warning == "true" else "false")
        # 1, True and 1.0 are equal keys that encode differently, and a list
        # is no key at all, so only all-int degrees share their head
        exact = {*map(type, degrees)} <= {int}
        head = heads.get((flags, degrees)) if exact else None
        if head is None:
            listed = _json_ints(degrees) if exact else _json_value(degrees, " " * 8)
            head = _ROW_HEAD % (*flags, listed)
            if exact:
                heads[flags, degrees] = head
        shown = values.get((chern, degree, secant, twisted))
        if shown is None:
            shown = values[chern, degree, secant, twisted] = _ROW_VALUES % (
                _json_split(chern), encode(degree), encode(secant), _json_split(twisted)
            )
        verdict = verdicts.get((jnormal, zak))
        if verdict is None:
            verdict = verdicts[jnormal, zak] = _ROW_VERDICTS % (encode(jnormal), encode(zak))
        inputs = _ROW_INPUTS % (_json_value(j, " " * 8), _json_value(n, " " * 8), _json_value(r, " " * 8))
        parts += (",\n", head, inputs, shown, verdict)
    if len(parts) == 1:
        parts.append("]\n}\n")
    else:
        parts[1] = "\n"  # the first row follows the opening bracket, not a comma
        parts.append("\n  ]\n}\n")
    return "".join(parts)


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


def _json_row(obj: dict):
    """``object_hook`` of ``parse_json``: a row object becomes a
    ``CensusRow`` as soon as the decoder completes it.  Its sections and
    the top level have no ``"inputs"`` key and pass through unchanged."""
    if "inputs" not in obj:
        return obj
    inputs, values, verdicts, flags = obj["inputs"], obj["values"], obj["verdicts"], obj["flags"]
    return CensusRow._make((
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
    ))


def parse_json(text: str) -> list[CensusRow]:
    """The rows of a census document.  Each row is built while the text is
    decoded, so the decoded document is never held, only the rows."""
    doc = json.loads(text, object_hook=_json_row)
    found = doc.get("format") if type(doc) is dict else None
    if found != _FORMAT:
        raise ValueError(f"unexpected census format: {found!r}")
    rows = doc.get("rows")
    if type(rows) is not list or any(type(row) is not CensusRow for row in rows):
        raise ValueError("census rows must be a list of row objects")
    return rows


def verify_rows(rows: Iterable[CensusRow]) -> list[str]:
    """Recompute every row from its inputs; return mismatch descriptions
    (empty list when the file reproduces exactly)."""
    problems = []
    sweep = _Sweep()
    for idx, row in enumerate(rows):
        # a value that equals an int without being one (2.0, True) would share
        # its cache entries, so such a row gets a cache of its own
        exact = {type(row.n), type(row.j), *map(type, row.degrees)} == {int}
        fresh = (sweep if exact else _Sweep()).row(row.n, row.degrees, row.j)
        if fresh != row:
            problems.append(f"row {idx}: stored {row} != recomputed {fresh}")
    return problems
