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
Each format is one ``_Layout`` record: its head, the text after the head
when there are no rows, the separator between rows, the tail, a row's
text around its n, where a row's inputs sit, and a mark that each row
holds once.  One ``_render`` writes either format from its record, and
one ``_read`` reads either back.  Every computed field is fixed by the
inputs n, degrees and j, so the reader holds a file to one rule: each
row, rebuilt by one sweep from the inputs it holds, renders to exactly
the bytes it was read from, and the rebuilt rows cover every byte
between the exact head and the exact tail.  It reads only a row's n, degrees and j (r is
the number of degrees), compares the row's rendering with the text in
place, and returns the rebuilt rows.  The first row that differs raises
``ValueError("row <i>: ...")``, and a row whose inputs a sweep refuses
``row <i>: inputs rejected: <reason>``.  As the writer refuses such
sweeps, a text that holds the mark more than ``MAX_ROWS`` times is
refused before any arithmetic, a row of more than ``MAX_CODIM`` degrees
before its own, and a row of j above 1,000 before its own, as an input
rejected.  ``verify_rows`` checks rows held in memory against the same
sweep and reports what differs instead of raising.

Per-row work: rows that differ only in n share everything else.
``_render`` renders each distinct rest of a row once and puts n between
its two halves, so its work per row is only n; the CSV writer takes about
1.2-1.3x the time of one ``writerows`` where no row repeats.  ``_read``
renders every row it reads with the same halves, compares it with one
``str.startswith`` and keeps no row's text; its sweep shares the
arithmetic wherever rows repeat, as they do across n.

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

    ``values`` maps (degrees, j) to the value columns and whether any
    factor c_r(E(-i)) with i >= 1 vanishes; ``verdicts`` maps (n, r, j,
    that flag) to the jnormal and zak outcomes.  This is exact because the
    criterion holds only when every hypothesis does, so which factor
    vanishes never changes its outcome, and zak reads only (n, r).  Both
    j-normality bounds grow with n and hold from
    ``jnormal_min_ambient_dim(r, j)`` on, so ``jnormals`` maps (r, j, that
    flag, whether n reaches that least n) to the jnormal outcome, and a
    verdict miss costs one zak check.  A jnormal miss builds its own
    bundle and runs the full check, which evaluates its own factors; a
    benchmark sweep has a handful of them.  The value part is exact only
    for n > r, and a row with n > r and j > 0 cannot raise in its
    verdicts, so the value part is stored where it is built for those
    rows only.  A row with n <= r or j < 1 never takes its jnormal outcome
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
        if values is None:
            if j > _MAX_J:
                raise HypothesisError(f"census j {j} exceeds the limit of {_MAX_J}")
            e = complete_intersection_bundle(n, degrees)
            report = multisecant_report(e, j)
            total_degree = math.prod(degrees)
            # for a split bundle the top Chern number is the product of the degrees
            d_consistent = e.c[r] == total_degree
            values = (
                str(total_degree),
                ";".join(map(str, e.c[: n + 1])),
                ";".join(map(str, report.factors)),
                str(report.value),
                "false" if report.value.denominator == 1 else "true",
                "true" if d_consistent else "false",
                0 in report.factors[1:],
            )
            if n > r and j > 0:
                self.values[degrees, j] = values
        degree, chern, twisted, secant, warning, consistent, vanishes = values
        verdicts = self.verdicts.get((n, r, j, vanishes))
        if verdicts is None:
            # a row outside the range has no key, so it takes the full check
            key = (r, j, vanishes, n >= jnormal_min_ambient_dim(r, j)) if n > r and j > 0 else None
            jnormal = self.jnormals.get(key)
            if jnormal is None:
                jnormal = check_jnormal_bundle(complete_intersection_bundle(n, degrees), j).outcome
            verdicts = (jnormal, check_linear_normality_zak(n, r).outcome)
            self.jnormals[key] = jnormal
            self.verdicts[n, r, j, vanishes] = verdicts
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
    # #n * C(D+r-1, r) rows for D degrees, as C(D+r-1, m) with m = min(r, D-1):
    # the binomial grows one exact factor of at least 2 at a time, so a huge
    # range stops within 17 factors of passing the cap
    rows = hi_n - lo_n + 1
    m = min(r, hi_d - lo_d)
    for k in range(1, m + 1):
        if rows > MAX_ROWS:
            break
        rows = rows * (hi_d - lo_d + r - m + k) // k
    if rows > MAX_ROWS:
        raise HypothesisError(f"census exceeds the limit of {MAX_ROWS} rows")
    if r > MAX_CODIM:
        raise HypothesisError(f"census codimension {r} exceeds the limit of {MAX_CODIM}")
    row = _Sweep().row
    tuples = list(itertools.combinations_with_replacement(range(lo_d, hi_d + 1), r))
    return [row(n, degrees, j) for n in range(lo_n, hi_n + 1) for degrees in tuples]


# How one format lays out a census text, for _render and _read: ``head``
# opens the text, ``empty`` follows it when there are no rows, ``sep`` goes
# between two rows and ``tail`` after the last.  ``halves(rest)`` is a
# row's text before and after its n, for the row minus n.  ``inputs(text,
# pos)`` matches a row's n, degrees (joined by ``degree_sep``) and j from
# the row's first byte.  Each row holds ``mark`` once, so its count bounds
# the rows a text can hold.
_Layout = namedtuple("_Layout", "head empty sep tail halves inputs degree_sep mark")

# writerow returns what its file's write returns, so a writer whose write
# is str hands back the line it formats
_csv_line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_halves(rest: tuple) -> tuple[str, str]:
    """Nothing before n, and the CSV line of a row from the comma after n:
    the row minus n formatted behind an empty first field."""
    return "", _csv_line(("", rest[0], ";".join(map(str, rest[1])), *rest[2:]))


# One row of the census document as json.dumps(indent=2, sort_keys=True)
# lays it out (keys sorted at every level, the row an item of "rows"), cut
# at its n, the one field that a sweep varies fastest.  Everything else in
# a row repeats across n, so _render renders the two halves once per
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


def _json_halves(rest: tuple) -> tuple[str, str]:
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


_HEAD = '{\n  "format": "multisecant-census/1",\n  "rows": ['

# The CSV inputs are the first, third and fourth fields; the JSON inputs
# are the items, j and n of a row's "inputs", behind the writer's text
# with either flag.
_CSV = _Layout(
    _csv_line(CSV_HEADER), "", "", "", _csv_halves,
    re.compile("(?P<n>[^,\n]*),[^,\n]*,(?P<degrees>[^,\n]*),(?P<j>[^,\n]*),").match, ";", "\n",
)
_JSON = _Layout(
    _HEAD, "]\n}\n", ",", "\n  ]\n}\n", _json_halves,
    re.compile(
        re.escape(_ROW_BEFORE_N) % ("(?:true|false)", "(?:true|false)", r"\[(?P<degrees>[^]]*)\]", "(?P<j>[^,]*)")
        + "(?P<n>[^,]*),"
    ).match,
    ",", '"n": ',
)


def _render(layout: _Layout, rows: Iterable[CensusRow]) -> str:
    """The census text of ``rows`` in ``layout``, joined once from one list
    of fragments: each distinct rest of a row is rendered once, and of each
    row only its n is its own."""
    sep, halves, shared = layout.sep, layout.halves, {}
    parts = []
    for row in rows:
        rest = row[1:]
        pair = shared.get(rest)
        if pair is None:
            pair = shared[rest] = halves(rest)
        parts += (sep, pair[0], repr(row[0]), pair[1])
    if not parts:
        return layout.head + layout.empty
    parts[0] = layout.head  # the first row follows the head, not a separator
    parts.append(layout.tail)
    return "".join(parts)


def _read(layout: _Layout, text: str) -> list[CensusRow]:
    """The rows of a census text in ``layout``, each rebuilt from its inputs
    by one sweep and compared in place with its rendering.

    The exact head, the text of no rows, and ``MAX_ROWS`` against the count
    of ``layout.mark`` are checked before any row is rebuilt, and a row's
    number of degrees against ``MAX_CODIM`` before its own arithmetic.  The
    rebuilt rows, their separators and the tail must cover every byte after
    the head.  The first row that differs raises ``ValueError("row <i>:
    ...")``.
    """
    head = layout.head
    if not text.startswith(head):
        raise ValueError(f"unexpected census header: {text[:len(head)]!r}")
    if text == head + layout.empty:
        return []
    if text.count(layout.mark, len(head)) > MAX_ROWS:
        raise ValueError(f"census exceeds the limit of {MAX_ROWS} rows")
    sweep, rows, pos, end = _Sweep(), [], len(head), len(text) - len(layout.tail)
    while True:
        found = layout.inputs(text, pos)
        if found is None:
            raise ValueError(f"row {len(rows)}: no inputs where the writer writes them")
        n, degrees, j = found.group("n", "degrees", "j")
        r = degrees.count(layout.degree_sep) + 1
        if r > MAX_CODIM:
            raise ValueError(f"row {len(rows)}: census codimension {r} exceeds the limit of {MAX_CODIM}")
        try:
            row = sweep.row(int(n), tuple(map(int, degrees.split(layout.degree_sep))), int(j))
        except (ValueError, MultisecantError) as exc:
            raise ValueError(f"row {len(rows)}: inputs rejected: {exc}") from None
        rendered = repr(row[0]).join(layout.halves(row[1:]))  # before + n + after
        if not text.startswith(rendered, pos):
            raise ValueError(f"row {len(rows)}: differs from the row its inputs rebuild")
        rows.append(row)
        pos += len(rendered)
        if pos == end and text.endswith(layout.tail):
            return rows
        if not text.startswith(layout.sep, pos):
            raise ValueError(f"row {len(rows)}: neither a row nor the end where the writer writes one")
        pos += len(layout.sep)


def render_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV census, byte for byte as one ``csv.writer`` with
    ``lineterminator="\\n"`` would write it."""
    return _render(_CSV, rows)


def render_json(rows: Iterable[CensusRow]) -> str:
    """The census document, byte for byte as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it."""
    return _render(_JSON, rows)


def parse_csv(text: str) -> list[CensusRow]:
    """The rows of a CSV census, read only in the bytes ``render_csv``
    writes: each is rebuilt from its inputs (see ``_read``)."""
    return _read(_CSV, text)


def parse_json(text: str) -> list[CensusRow]:
    """The rows of a census document, read only in the bytes ``render_json``
    writes: each is rebuilt from its inputs (see ``_read``)."""
    return _read(_JSON, text)


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
