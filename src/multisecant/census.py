"""Batch census of complete intersections, written as flat CSV/JSON.

A census enumerates CI(d_1..d_r) in P^n over rectangular parameter
ranges and records, per row, the inputs, the twisted top Chern factors,
the (j+1)-secant degree and the normality verdicts.  Every computed field
is reproducible from the input fields alone, which is what both readers
check when a written file is read back.

Cost: for n > r nothing in the Chern data of E = O(d_1) + ... + O(d_r) is
truncated, so c_r(E(-i)) = prod_k (d_k - i) and every value column
depends only on the degree tuple and j.  A row depends on n only through
its two verdicts, which depend only on (n, r, j) and on whether any factor
c_r(E(-i)), i = 1..j, vanishes.  A sweep computes each of the two parts
once and builds its rows from them.  Of the verdicts only zak reads n
itself; jnormal reads it only through whether n reaches the least n at
which both j-normality bounds hold.

Rows: a ``CensusRow`` is a named tuple of the CSV columns in column
order: n, r, j and each degree an ``int``, every other field a ``str``.
Every computed field is fixed by the inputs n, degrees and j, so both
readers hold a file to one rule: each row, rebuilt by one sweep from the
inputs it holds, renders to exactly the bytes it was read from, and the
rebuilt rows cover every byte between the exact header and the exact
tail.  A reader reads only a row's n, degrees and j (r is the number of
degrees), compares the rest of its bytes with the rendering, and returns
the rebuilt rows.  The first row that differs raises ``ValueError("row
<i>: ...")``, and a row whose inputs a sweep refuses ``row <i>: inputs
rejected: <reason>``.  As the writer refuses such sweeps, a text of more
than ``MAX_ROWS`` rows is refused before any arithmetic, a row of more
than ``MAX_CODIM`` degrees before its own, and a row of j above 1,000
before its own, as an input rejected.  ``verify_rows`` checks rows held
in memory against the same sweep and reports what differs instead of
raising.

Per-row work: rows that differ only in n share everything else.  Both
writers format each distinct rest of a row once and put n in front of
it, so their work per row is only n; the CSV writer takes about 1.25x
the time of one ``writerows`` where no row repeats.  A reader renders
every row it reads with the writers' fragments and holds no row's text;
its sweep shares the arithmetic wherever rows repeat, as they do across
n.

Determinism: rows are emitted in ascending n, then lexicographic degree
order; rationals serialize as "p/q" (bare integers when integral) and
never as floats.  The CSV writer emits exactly the bytes of one
``csv.writer`` with ``lineterminator="\\n"``, and the JSON writer those of
``json.dumps(doc, indent=2, sort_keys=True)``, each joined once from row
fragments.
"""

from __future__ import annotations

import csv
import itertools
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

# Largest j a sweep takes, the CLI's --j limit (tests/test_census.py checks
# that the two agree).  A row holds the j+1 factors c_r(E(-i)) and their
# product over (j+1)!, and both readers rebuild every row they read:
# compute_row(5, (2, 3), j) takes 4 ms at j = 10^3 and 0.47 s at 10^5
# (Python 3.11, one core), and its cost grows with j.
_MAX_J = 1_000

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
    has, and stores nothing.  A row of j above ``_MAX_J`` raises
    ``HypothesisError`` before any arithmetic, for the writer, the readers
    and ``verify_rows`` alike.
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
            if j > _MAX_J:
                raise HypothesisError(f"census j {j} exceeds the limit of {_MAX_J}")
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
    ``MAX_CODIM``, raises ``HypothesisError`` before any row is built, and
    one of j above 1,000 at its first row, before any arithmetic.
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


_CSV_HEAD = _csv_line(CSV_HEADER)


def _csv_tail(rest: tuple) -> str:
    """The CSV line of a row minus n, from the comma after n: the row
    formatted behind an empty first field."""
    return _csv_line(("", rest[0], ";".join(map(str, rest[1])), *rest[2:]))


def render_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV census, byte for byte as one ``csv.writer`` with
    ``lineterminator="\\n"`` would write it.  Each distinct rest of a row
    is formatted once and n is put in front."""
    tails = {}
    parts = [_CSV_HEAD]
    for row in rows:
        rest = row[1:]
        tail = tails.get(rest)
        if tail is None:
            tail = tails[rest] = _csv_tail(rest)
        parts += (str(row[0]), tail)
    return "".join(parts)


_FORMAT = "multisecant-census/1"

# One row of the census document as json.dumps(indent=2, sort_keys=True)
# lays it out (keys sorted at every level, the row an item of "rows"), cut
# at its n, the one field that a sweep varies fastest.  Everything else in
# a row repeats across n, so render_json renders the two halves once per
# distinct rest of the row and the document shares them by reference until
# the final join.
_ROW_BEFORE_N = """
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
    """The text of a row around its n, from the line break before the row
    to the comma after n and from there to the row's closing brace, for the
    row minus n.

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
        parts += (",", shared[0], repr(row[0]), shared[1])
    if len(parts) == 1:
        parts.append(_EMPTY_TAIL)
    else:
        parts[1] = ""  # the first row follows the opening bracket, not a comma
        parts.append(_TAIL)
    return "".join(parts)


# n, degrees and j of a row where each format writes them, matched from the
# row's first byte: the first, third and fourth CSV fields, and the items, j
# and n of a JSON row's "inputs", behind the writer's text with either flag
_csv_inputs = re.compile("(?P<n>[^,\n]*),[^,\n]*,(?P<degrees>[^,\n]*),(?P<j>[^,\n]*),").match
_json_inputs = re.compile(
    re.escape(_ROW_BEFORE_N) % ("(?:true|false)", "(?:true|false)", r"\[(?P<degrees>[^]]*)\]", "(?P<j>[^,]*)")
    + "(?P<n>[^,]*),"
).match


def _regenerate(text, pos, count, inputs, sep, halves, between, end) -> list[CensusRow]:
    """The rows of a census text from ``pos`` on, each rebuilt from its
    inputs and compared in place with its rendering.

    ``count``, the number of rows the text can hold, is checked against
    ``MAX_ROWS`` before any row is rebuilt, and a row's number of degrees
    against ``MAX_CODIM`` before its own arithmetic.  ``inputs(text, pos)``
    matches a row's n, degrees (joined by ``sep``) and j from the row's
    first byte; one sweep rebuilds the row, and ``halves`` renders its
    text around n.  Rows are joined by ``between`` and followed by
    ``end``, which closes the text, so the rebuilt rows cover every byte
    from ``pos`` on.  The first row that differs raises ``ValueError("row
    <i>: ...")``.
    """
    if count > MAX_ROWS:
        raise ValueError(f"census exceeds the limit of {MAX_ROWS} rows")
    sweep, rows = _Sweep(), []
    while True:
        found = inputs(text, pos)
        if found is None:
            raise ValueError(f"row {len(rows)}: no inputs where the writer writes them")
        n, degrees, j = found.group("n", "degrees", "j")
        r = degrees.count(sep) + 1
        if r > MAX_CODIM:
            raise ValueError(f"row {len(rows)}: census codimension {r} exceeds the limit of {MAX_CODIM}")
        try:
            row = sweep.row(int(n), tuple(map(int, degrees.split(sep))), int(j))
        except (ValueError, MultisecantError) as exc:
            raise ValueError(f"row {len(rows)}: inputs rejected: {exc}") from None
        before, after = halves(row[1:])
        digits = repr(row[0])
        at = pos + len(before)
        past = at + len(digits)
        if not (text.startswith(before, pos) and text.startswith(digits, at)
                and text.startswith(after, past)):
            raise ValueError(f"row {len(rows)}: differs from the row its inputs rebuild")
        rows.append(row)
        pos = past + len(after)
        if len(text) - pos == len(end) and text.endswith(end):
            return rows
        if not text.startswith(between, pos):
            raise ValueError(f"row {len(rows)}: neither a row nor the end where the writer writes one")
        pos += len(between)


def parse_csv(text: str) -> list[CensusRow]:
    """The rows of a CSV census, read only in the bytes ``render_csv``
    writes: each is rebuilt from its inputs (see ``_regenerate``)."""
    if not text.startswith(_CSV_HEAD):
        raise ValueError(f"unexpected census header: {text[:len(_CSV_HEAD)]!r}")
    if text == _CSV_HEAD:
        return []
    return _regenerate(text, len(_CSV_HEAD), text.count("\n") - 1, _csv_inputs, ";",
                       lambda rest: ("", _csv_tail(rest)), "", "")


def parse_json(text: str) -> list[CensusRow]:
    """The rows of a census document, read only in the bytes ``render_json``
    writes: each is rebuilt from its inputs (see ``_regenerate``)."""
    if not text.startswith(_HEAD):
        raise ValueError(f"not a {_FORMAT} document as render_json writes it: {text[:len(_HEAD)]!r}")
    if text == _HEAD + _EMPTY_TAIL:
        return []
    return _regenerate(text, len(_HEAD), text.count('"n": '), _json_inputs, ",", _halves, ",", _TAIL)


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
