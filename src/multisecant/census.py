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
once and builds its rows from them.  Of the verdicts only zak reads n
itself; jnormal reads it only through whether n reaches the least n at
which both j-normality bounds hold.

Rows: a ``CensusRow`` is a named tuple of the CSV columns in column
order, and both readers build rows positionally.  Every row holds the
types census.schema.json gives its fields: n, r, j and each degree an
``int`` (never a ``bool`` or ``float``), every other field a ``str``.
``enumerate_rows`` and ``parse_csv`` build rows that way, and the JSON
reader refuses a row any other way with ``ValueError``, so the writers and
``verify_rows`` take the types as given.  The JSON reader also holds a
row to the schema's values (n and r at least 1, j at least 0, a degree,
rational strings, outcome words); the CSV reader does not, and
``verify_rows`` reports a row whose inputs a sweep refuses as a problem.

Per-row work is only n: n is the field a sweep varies fastest, and rows
that differ only in n share everything else.  Both writers format each
distinct rest of a row once and put n in front of it.  The JSON reader
reads a document only in the bytes the JSON writer writes: it cuts the
text at each row's n, decodes each distinct text around n once, and
requires that it render back to the same bytes and that n's digits be
those ``repr`` writes.  A reformatted document, or one with a duplicated
key, raises ``ValueError``.  The decoded document is never held, but the
text of each distinct row is, until the reader returns.  This pays where
rows repeat, as they do across n; where none do (a sweep of one n), the
JSON reader takes about 2.5x the time of one decode of the whole
document and peaks at about three times its memory, and the CSV writer
takes about 1.25x the time of one ``writerows``.  The CSV reader converts
every row: a cache of its rows minus n saved a fifth of its time on the
benchmark grid and cost 1.5x where no row repeats.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.  The CSV writer emits exactly the bytes of one
``csv.writer`` with ``lineterminator="\\n"``, and the JSON writer those of
``json.dumps(doc, indent=2, sort_keys=True)``, each joined once from row
fragments.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import types
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .bundles import complete_intersection_bundle
from .errors import HypothesisError, MultisecantError
from .normality import check_jnormal_bundle, check_linear_normality_zak, jnormal_min_ambient_dim
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
    """Rows built from three caches that live as long as one sweep.

    ``values`` maps (degrees, j) to the value columns, the two flags, the
    factors c_r(E(-i)) for i = 0..j and whether any of them with i >= 1
    vanishes; ``verdicts`` maps (n, r, j, that flag) to the jnormal and zak
    outcomes.  This is exact because the criterion holds only when every
    hypothesis does, so which factor vanishes never changes its outcome,
    and zak reads only (n, r).  Both j-normality bounds grow with n and
    hold from ``jnormal_min_ambient_dim(r, j)`` on, so ``jnormals`` maps
    (r, j, that flag, whether n reaches that least n) to the jnormal
    outcome, and a verdict miss costs one zak check.  The value part is
    exact only for n > r, so every part is stored only after the verdicts
    are made.  A row with n <= r or j < 1 never takes its jnormal outcome
    from the cache: it raises in the full check, as ``compute_row`` always
    has, and stores nothing.
    """

    def __init__(self):
        self.values = {}
        self.verdicts = {}
        self.jnormals = {}

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
            # a row outside the range has no key, so it takes the full check
            key = (r, j, vanishes, n >= jnormal_min_ambient_dim(r, j)) if n > r and j > 0 else None
            jnormal = self.jnormals.get(key)
            if jnormal is None:
                if bundle is None:
                    bundle = complete_intersection_bundle(n, degrees)
                jnormal = check_jnormal_bundle(bundle, j, factors).outcome
            verdicts = (jnormal, check_linear_normality_zak(n, r).outcome)
            self.jnormals[key] = jnormal
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


# writerow returns what its file's write returns, so a writer whose write
# is str hands back the line it formats
_csv_line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow


def render_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV census, byte for byte as one ``csv.writer`` with
    ``lineterminator="\\n"`` would write it.  Each distinct rest of a row
    is formatted once, behind an empty first field, and n is put in front."""
    tails = {}
    parts = [_csv_line(CSV_HEADER)]
    for row in rows:
        rest = row[1:]
        tail = tails.get(rest)
        if tail is None:
            tail = tails[rest] = _csv_line(("", rest[0], ";".join(map(str, rest[1])), *rest[2:]))
        parts += (str(row[0]), tail)
    return "".join(parts)


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


def _halves(rest: tuple) -> tuple[str, str]:
    """The text of a row around its n, from the comma before the row to the
    comma after n and from there to the row's closing brace, for the row
    minus n.

    A ";"-separated string is encoded in one call: escaping never produces
    ";", so each ";" becomes the seam between two encoded items."""
    r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warning, consistent = rest
    encode = encode_basestring_ascii
    flags = ("true" if consistent == "true" else "false", "true" if warning == "true" else "false")
    return (
        _ROW_BEFORE_N % (*flags, _json_list(_ITEM.join(map(repr, degrees))), j),
        _ROW_AFTER_N % (
            r, _json_list(encode(chern).replace(";", _SEAM)), encode(degree), encode(secant),
            _json_list(encode(twisted).replace(";", _SEAM)), encode(jnormal), encode(zak),
        ),
    )


_HEAD = '{\n  "format": "' + _FORMAT + '",\n  "rows": ['
_TAIL = "\n  ]\n}\n"
_EMPTY_TAIL = "]\n}\n"


def render_json(rows: Iterable[CensusRow]) -> str:
    """The census document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it.  The text is joined once from
    one list of fragments; of each row only its n is its own."""
    halves = {}
    parts = [_HEAD]
    for row in rows:
        rest = row[1:]
        shared = halves.get(rest)
        if shared is None:
            shared = halves[rest] = _halves(rest)
        parts += (shared[0], repr(row[0]), shared[1])
    if len(parts) == 1:
        parts.append(_EMPTY_TAIL)
    else:
        parts[1] = parts[1][1:]  # the first row follows the opening bracket, not a comma
        parts.append(_TAIL)
    return "".join(parts)


def parse_csv(text: str) -> list[CensusRow]:
    """The rows of a CSV census.  Text the csv module cannot split, such as
    a lone CR in an unquoted field, raises ``ValueError`` like any other
    malformed row."""
    reader = csv.reader(io.StringIO(text))
    make = CensusRow._make
    try:
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected census header: {header!r}")
        return [
            make((int(n), int(r), tuple(map(int, degrees.split(";"))), int(j),
                  degree, chern, twisted, secant, jnormal, zak, warn, cons))
            for n, r, degrees, j, degree, chern, twisted, secant, jnormal, zak, warn, cons in reader
        ]
    except csv.Error as exc:
        raise ValueError(f"census CSV cannot be read: {exc}") from exc


# census.schema.json's "rational" pattern, for one value or for a list
# joined by ";" (an item holding ";" is refused before this runs).
_RATIONAL = "-?[0-9]+(?:/[0-9]+)?"
_rationals = re.compile(f"{_RATIONAL}(?:;{_RATIONAL})*").fullmatch
_OUTCOMES = frozenset(("holds", "fails", "inapplicable"))


def _json_row(obj: dict):
    """``object_hook`` of the JSON reader's row decoder: a row object
    becomes a ``CensusRow`` as soon as the decoder completes it.  Its
    sections have no ``"inputs"`` key and pass through unchanged.

    This is where a row is held to census.schema.json: every key present
    and no other, n, r, j and each degree an int, r >= 1, j >= 0 and at
    least one degree, the value fields and every chern and twisted item
    rational strings (a ``re.fullmatch``, so no trailing newline), the
    verdicts outcome words, the flags booleans and the citations the three
    the writer writes.  n is decoded as 0 here; ``parse_json`` checks it.
    A row that passes holds the types ``enumerate_rows`` gives, so
    ``_halves`` can render it again.  One that does not raises
    ``ValueError``, or, for a missing key or a wrong container, the
    ``KeyError`` or ``TypeError`` that ``_json_rest`` turns into one.
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
        or r < 1
        or j < 0
        or not degrees
        or not (_rationals(degree) and _rationals(secant) and _rationals(chern) and _rationals(twisted))
        or jnormal not in _OUTCOMES
        or zak not in _OUTCOMES
    ):
        raise ValueError("census row does not match the schema")
    return CensusRow(
        n, r, tuple(degrees), j, degree, chern, twisted, secant, jnormal, zak,
        "true" if warning else "false", "true" if consistent else "false",
    )


_N = '"n": '
_ROW_END = "\n    }"
_decode_row = json.JSONDecoder(object_hook=_json_row).decode


def _json_rest(before: str, after: str) -> tuple:
    """The row minus n whose text around n is ``before`` and ``after``,
    the first character of ``before`` aside: the row is decoded with n = 0,
    held to the schema by ``_json_row``, and must render back to the same
    text."""
    try:
        row = _decode_row(before[1:] + "0" + after)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"census row does not match the schema: {exc!r}") from exc
    if type(row) is not CensusRow:
        raise ValueError("a census row is an object with an \"inputs\" key")
    rest = row[1:]
    shared = _halves(rest)
    if shared[0][1:] != before[1:] or shared[1] != after:
        raise ValueError("census row is not laid out as render_json writes it")
    return rest


def parse_json(text: str) -> list[CensusRow]:
    """The rows of a census document, read only in the bytes ``render_json``
    writes: anything else raises ``ValueError``, so a document that reads
    back is one the writer writes back unchanged.

    Each row's text is cut with ``str.find`` at its n, the comma after it
    and the row's closing brace.  The text before n and the text after it
    are decoded once for each distinct pair, and the rows share the decoded
    fields; the pairs are held until the reader returns.  Of each row only
    n is read on its own, and its digits must be those ``repr`` writes."""
    if not text.startswith(_HEAD):
        raise ValueError(f"not a {_FORMAT} document as render_json writes it: {text[:len(_HEAD)]!r}")
    if text == _HEAD + _EMPTY_TAIL:
        return []
    rows, rests = [], {}
    make = CensusRow._make
    pos = len(_HEAD) - 1  # each row's text starts one character early: at "[" or ","
    while True:
        seam = text.find(_N, pos)
        stop = text.find(",", seam)
        end = text.find(_ROW_END, stop)
        if seam < 0 or stop < 0 or end < 0:
            raise ValueError("census document ends inside a row")
        seam += len(_N)
        end += len(_ROW_END)
        halves = text[pos:seam], text[stop:end]
        rest = rests.get(halves)
        if rest is None:
            rest = rests[halves] = _json_rest(*halves)
        digits = text[seam:stop]
        n = int(digits)
        if repr(n) != digits:
            raise ValueError(f"census row's n is not written as render_json writes it: {digits!r}")
        if n < 1:
            raise ValueError(f"census row's n must be >= 1, got {n}")
        rows.append(make((n, *rest)))
        pos = end
        if not text.startswith(",", pos):
            break
    if text[pos:] != _TAIL:
        raise ValueError("census document does not end as render_json ends it")
    return rows


def verify_rows(rows: Iterable[CensusRow]) -> list[str]:
    """Recompute every row from its inputs; return mismatch descriptions
    (empty list when the file reproduces exactly).  A row whose inputs
    ``compute_row`` refuses is described with the reason, not raised."""
    problems = []
    sweep = _Sweep()
    for idx, row in enumerate(rows):
        try:
            fresh = sweep.row(row.n, row.degrees, row.j)
        except (ValueError, MultisecantError) as exc:
            problems.append(f"row {idx}: inputs rejected: {exc}")
            continue
        if fresh != row:
            problems.append(f"row {idx}: stored {row} != recomputed {fresh}")
    return problems
