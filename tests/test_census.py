"""Census generation, serialization round-trips, schema validation."""

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from multisecant import census, cli
from multisecant.bundles import complete_intersection_bundle
from multisecant.census import (
    CSV_HEADER,
    CensusRow,
    _Sweep,
    compute_row,
    enumerate_rows,
    parse_csv,
    parse_json,
    render_csv,
    render_json,
    verify_rows,
)
from multisecant.errors import HypothesisError, MultisecantError
from multisecant.normality import check_jnormal_bundle, jnormal_min_ambient_dim


@pytest.fixture(scope="module")
def rows():
    return enumerate_rows(2, (2, 3), (3, 6), 1)


def test_enumeration_order_and_count(rows):
    assert len(rows) == 4 * 3  # 4 ambient dims x 3 degree multisets
    keys = [(row.n, row.degrees) for row in rows]
    assert keys == sorted(keys)
    assert keys[0] == (3, (2, 2)) and keys[-1] == (6, (3, 3))


def test_row_values_reproduce_known_case(rows):
    first = rows[0]
    assert (first.n, first.degrees, first.j) == (3, (2, 2), 1)
    assert first.secant_degree == "2"
    assert first.twisted_top_cherns == "4;1"
    assert first.chern == "1;4;4"
    assert first.d_consistent == "true"
    assert first.integrality_warning == "false"


def test_flag_columns(rows):
    # split bundles produce integral virtual counts and consistent degrees;
    # the columns must say so explicitly rather than being omitted
    assert {row.integrality_warning for row in rows} == {"false"}
    assert {row.d_consistent for row in rows} == {"true"}


def test_degenerate_zero_is_recorded_not_raised():
    row = compute_row(6, (1, 3), 1)
    # the O(1) factor kills c_r(E(-1)): virtual count 0 with flags intact
    assert row.secant_degree == "0"
    assert row.twisted_top_cherns == "3;0"


def test_csv_round_trip(rows):
    text = render_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert parse_csv(text) == rows
    assert render_csv(parse_csv(text)) == text


def test_json_round_trip(rows):
    text = render_json(rows)
    assert parse_json(text) == rows
    assert render_json(parse_json(text)) == text


def test_reingestion_recomputes_every_row(rows):
    assert verify_rows(parse_csv(render_csv(rows))) == []
    assert verify_rows(parse_json(render_json(rows))) == []


def test_tampered_row_is_detected(rows):
    text = render_csv(rows).replace(",2,fails", ",3,fails", 1)
    with pytest.raises(ValueError, match="^row 0: "):
        parse_csv(text)


def test_json_validates_against_published_schema(rows):
    schema = json.loads(
        resources.files("multisecant")
        .joinpath("schemas/census.schema.json")
        .read_text()
    )
    jsonschema.validate(json.loads(render_json(rows)), schema)


def test_verdict_schema_accepts_cli_records():
    from multisecant.cli import verdict_to_record
    from multisecant.normality import check_jnormal_general

    schema = json.loads(
        resources.files("multisecant")
        .joinpath("schemas/verdict.schema.json")
        .read_text()
    )
    record = verdict_to_record(check_jnormal_general(16, 2, 2, True))
    jsonschema.validate(record, schema)


def test_ambient_must_exceed_codim():
    with pytest.raises(HypothesisError):
        enumerate_rows(3, (2, 2), (3, 5), 1)


def test_bad_ranges():
    with pytest.raises(ValueError):
        enumerate_rows(2, (3, 2), (3, 5), 1)


@pytest.mark.parametrize("j", [0, -1])
def test_j_below_one_is_refused_up_front(j):
    # a census row needs j >= 1; the check comes before the row count, so
    # a sweep past the row cap is refused for its j
    with pytest.raises(ValueError, match=f"^j must be >= 1, got {j}$"):
        enumerate_rows(3, (1, 100_000), (4, 4), j)


@pytest.mark.parametrize("cap, allowed", [(9, True), (8, False)])
def test_row_cap_is_checked_at_the_boundary(cap, allowed, monkeypatch):
    # 3 values of n times C(2+2-1, 2) = 3 degree pairs: 9 rows
    monkeypatch.setattr(census, "MAX_ROWS", cap)
    if allowed:
        assert len(enumerate_rows(2, (2, 3), (3, 5), 1)) == 9
    else:
        with pytest.raises(HypothesisError, match="exceeds the limit of 8 rows"):
            enumerate_rows(2, (2, 3), (3, 5), 1)


@pytest.mark.parametrize("cap, allowed", [(2, True), (1, False)])
def test_codimension_cap_is_checked_at_the_boundary(cap, allowed, monkeypatch):
    monkeypatch.setattr(census, "MAX_CODIM", cap)
    if allowed:
        assert len(enumerate_rows(2, (2, 3), (3, 5), 1)) == 9
    else:
        with pytest.raises(HypothesisError, match="^census codimension 2 exceeds the limit of 1$"):
            enumerate_rows(2, (2, 3), (3, 5), 1)


_FORMATS = {"csv": (render_csv, parse_csv), "json": (render_json, parse_json)}
_READERS = pytest.mark.parametrize("render, parse", list(_FORMATS.values()), ids=list(_FORMATS))


def _no_arithmetic(*args):
    raise AssertionError("a refused census file reached the Chern arithmetic")


@_READERS
@pytest.mark.parametrize("cap, allowed", [(9, True), (8, False)])
def test_readers_check_the_row_cap_at_the_boundary(render, parse, cap, allowed, monkeypatch):
    rows = enumerate_rows(2, (2, 3), (3, 5), 1)
    text = render(rows)
    monkeypatch.setattr(census, "MAX_ROWS", cap)
    if allowed:
        assert parse(text) == rows
    else:
        monkeypatch.setattr(census, "complete_intersection_bundle", _no_arithmetic)
        with pytest.raises(ValueError, match="^census exceeds the limit of 8 rows$"):
            parse(text)


@_READERS
@pytest.mark.parametrize("cap, allowed", [(2, True), (1, False)])
def test_readers_check_the_codimension_cap_at_the_boundary(render, parse, cap, allowed, monkeypatch):
    rows = enumerate_rows(2, (2, 3), (3, 5), 1)
    text = render(rows)
    monkeypatch.setattr(census, "MAX_CODIM", cap)
    if allowed:
        assert parse(text) == rows
    else:
        monkeypatch.setattr(census, "complete_intersection_bundle", _no_arithmetic)
        with pytest.raises(ValueError, match="^row 0: census codimension 2 exceeds the limit of 1$"):
            parse(text)


@_READERS
def test_readers_refuse_a_file_past_either_cap_before_any_arithmetic(render, parse, monkeypatch):
    # files the writer never writes: one row more than MAX_ROWS, and a row
    # of codimension MAX_CODIM + 1 (rebuilding one costs O(r^2))
    many = render([compute_row(5, (2, 3), 1)] * (census.MAX_ROWS + 1))
    wide = render([compute_row(census.MAX_CODIM + 2, (1,) * (census.MAX_CODIM + 1), 1)])
    monkeypatch.setattr(census, "complete_intersection_bundle", _no_arithmetic)
    with pytest.raises(ValueError, match=f"^census exceeds the limit of {census.MAX_ROWS} rows$"):
        parse(many)
    cap = census.MAX_CODIM
    with pytest.raises(ValueError, match=f"^row 0: census codimension {cap + 1} exceeds the limit of {cap}$"):
        parse(wide)


def test_census_j_cap_is_the_cli_limit():
    assert census._MAX_J == cli.MAX_J


@pytest.mark.parametrize("j, allowed", [(1000, True), (1001, False)])
def test_j_cap_is_checked_at_the_boundary(j, allowed, monkeypatch):
    if allowed:
        assert [row.j for row in enumerate_rows(2, (2, 3), (3, 3), j)] == [j] * 3
    else:
        # verify_rows takes rows held in memory through the same sweep
        row = compute_row(5, (2, 3), 1)._replace(j=j)
        monkeypatch.setattr(census, "complete_intersection_bundle", _no_arithmetic)
        with pytest.raises(HypothesisError, match="^census j 1001 exceeds the limit of 1000$"):
            enumerate_rows(2, (2, 3), (3, 3), j)
        assert verify_rows([row]) == ["row 0: inputs rejected: census j 1001 exceeds the limit of 1000"]


@_READERS
@pytest.mark.parametrize("j, allowed", [(1000, True), (1001, False), (10**40, False)])
def test_readers_check_the_j_cap_before_any_arithmetic(render, parse, j, allowed, monkeypatch):
    # the rows past the cap are of the writer's layout but never rebuilt
    rows = [compute_row(5, (2, 3), 1000 if allowed else 1)._replace(j=j)]
    text = render(rows)
    if allowed:
        assert parse(text) == rows
    else:
        monkeypatch.setattr(census, "complete_intersection_bundle", _no_arithmetic)
        with pytest.raises(ValueError, match=f"^row 0: inputs rejected: census j {j} exceeds the limit of 1000$"):
            parse(text)


@pytest.mark.parametrize(
    "r, degree_range, ambient_range",
    [(3, (1, 100_000), (4, 4)), (1, (1, 10**4000), (2, 2)), (40, (0, 1), (41, 10**6))],
)
def test_huge_sweeps_are_refused_from_the_count(r, degree_range, ambient_range):
    with pytest.raises(HypothesisError, match="exceeds the limit of 100000 rows"):
        enumerate_rows(r, degree_range, ambient_range, 1)


# -- the JSON writer against json.dumps ---------------------------------------


def _record(row):
    """The row as the census schema nests it, built independently of the writer."""
    return {
        "inputs": {"n": row.n, "r": row.r, "degrees": list(row.degrees), "j": row.j},
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
        "citations": ["secant-product-formula", "jnormal-bundle-criterion", "zak-linear-normality"],
    }


def _reference_json(rows):
    doc = {"format": "multisecant-census/1", "rows": [_record(row) for row in rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_ints = st.one_of(
    st.integers(-3, 6),
    st.integers(-(10**40), 10**40),
    st.sampled_from([0, -(10**39) - 7, 10**40 - 1]),
)
# quotes, backslashes, control characters, non-ASCII and lone surrogates
_texts = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é;ü", "\U0001f600", ";", ""]),
)


def _rows_of(ints, degrees):
    return st.builds(
        CensusRow,
        n=ints,
        r=ints,
        degrees=degrees.map(tuple),
        j=ints,
        degree=_texts,
        chern=_texts,
        twisted_top_cherns=_texts,
        secant_degree=_texts,
        jnormal=_texts,
        zak=_texts,
        integrality_warning=st.sampled_from(["true", "false"]),
        d_consistent=st.sampled_from(["true", "false"]),
    )


# rows with census.schema.json's value fields: at least one degree, rational
# strings and outcome words (their ints may be below the schema's minimums)
_rationals = st.one_of(_ints.map(str), st.builds("{}/{}".format, _ints, st.integers(1, 10**30)))
_outcomes = st.sampled_from(["holds", "fails", "inapplicable"])
_schema_rows = st.builds(
    CensusRow,
    n=_ints,
    r=_ints,
    degrees=st.lists(_ints, min_size=1, max_size=4).map(tuple),
    j=_ints,
    degree=_rationals,
    chern=st.lists(_rationals, min_size=1, max_size=4).map(";".join),
    twisted_top_cherns=st.lists(_rationals, min_size=1, max_size=4).map(";".join),
    secant_degree=_rationals,
    jnormal=_outcomes,
    zak=_outcomes,
    integrality_warning=st.sampled_from(["true", "false"]),
    d_consistent=st.sampled_from(["true", "false"]),
)
# and rows the JSON reader takes back, whose n and r are at least 1 and j at least 0
_valid_rows = _schema_rows.map(lambda row: row._replace(n=abs(row.n) + 1, r=abs(row.r) + 1, j=abs(row.j)))


# rows whose fields have the types census.schema.json gives them
_census_rows = _rows_of(_ints, st.lists(_ints, max_size=4))
# and rows whose inputs a document may hold in their place: bools, floats,
# null and nested arrays
_scalars = st.one_of(_ints, st.booleans(), st.none(), st.floats(allow_nan=False))
_wide_degrees = st.lists(st.one_of(_scalars, st.lists(_scalars, max_size=2)), max_size=4)

# rows that compute_row builds, and such rows with one field taken from another row
_computed_rows = st.builds(
    compute_row, st.integers(3, 40), st.lists(st.integers(-3, 6), min_size=1, max_size=2), st.integers(1, 4)
)
_edited_rows = st.builds(
    lambda row, name, other: row._replace(**{name: getattr(other, name)}),
    _computed_rows, st.sampled_from(CSV_HEADER), st.one_of(_valid_rows, _computed_rows),
)


def _schema_typed(row):
    return all(type(value) is int for value in (row.n, row.r, row.j, *row.degrees))


def _rebuilt(rows):
    """Whether compute_row rebuilds every row, types included, from its inputs."""
    try:
        return all(_schema_typed(row) and compute_row(row.n, row.degrees, row.j) == row for row in rows)
    except (ValueError, MultisecantError):
        return False


def _reads_back_exactly_the_rebuilt_rows(parse, text, rows):
    if _rebuilt(rows):
        assert parse(text) == rows
    else:
        with pytest.raises(ValueError):
            parse(text)


# a reader rebuilds each row it reads: at j near the cap of 1,000 with
# 40-digit degrees one row's arithmetic takes up to 0.2 s, and _rebuilt
# repeats it, so these examples may pass hypothesis's 200 ms default
_REBUILDS = settings(deadline=None)


@_REBUILDS
@given(st.lists(st.one_of(_census_rows, _valid_rows, _computed_rows, _edited_rows), max_size=4))
def test_json_writer_matches_json_dumps(rows):
    text = render_json(rows)
    assert text == _reference_json(rows)
    _reads_back_exactly_the_rebuilt_rows(parse_json, text, rows)


_wide_rows = st.builds(
    lambda row, n, r, j, degrees: row._replace(n=n, r=r, j=j, degrees=tuple(degrees)),
    _valid_rows, _scalars, _scalars, _scalars, _wide_degrees,
)


@_REBUILDS
@given(st.lists(st.one_of(_valid_rows, _wide_rows, _computed_rows, _edited_rows), max_size=3))
def test_json_reader_takes_exactly_the_rows_of_schema_type(rows):
    # the rows compute_row rebuilds, in json.dumps's layout, and nothing else
    _reads_back_exactly_the_rebuilt_rows(parse_json, _reference_json(rows), rows)


def _reference_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row[:2] + (";".join(map(str, row.degrees)),) + row[3:])
    return buf.getvalue()


@_REBUILDS
@given(st.lists(_census_rows, max_size=4),
       st.lists(st.one_of(_schema_rows, _computed_rows, _edited_rows), max_size=4))
def test_csv_writer_matches_csv_module(rows, schema_rows):
    # texts with commas, quotes, CR and LF are quoted as the csv module
    # quotes them, one row at a time, also among rows that differ from the
    # first in one field each
    mixed = rows + [rows[0]._replace(**{name: getattr(row, name)}) for row in rows for name in CSV_HEADER]
    assert render_csv(rows) == _reference_csv(rows)
    assert render_csv(mixed) == _reference_csv(mixed)
    text = render_csv(schema_rows)
    assert text == _reference_csv(schema_rows)
    _reads_back_exactly_the_rebuilt_rows(parse_csv, render_csv(rows), rows)
    _reads_back_exactly_the_rebuilt_rows(parse_csv, text, schema_rows)


def test_json_writer_on_no_rows_and_on_the_grid():
    assert render_json([]) == _reference_json([])
    rows = enumerate_rows(3, (-3, 6), (4, 6), 2)
    assert render_json(rows) == _reference_json(rows)
    # one n, so no two rows share their text
    rows = enumerate_rows(2, (1, 60), (3, 3), 6)
    assert render_json(rows) == _reference_json(rows)


# -- the JSON writer's memory ---------------------------------------------------


@pytest.fixture(scope="module")
def long_rows():
    # the long-polynomial benchmark sweep: 1,980 rows in 1.43 MB of text
    return enumerate_rows(1, (1, 10), (4, 201), 6)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_json_writer_holds_little_beside_the_text(long_rows):
    # a writer that formats every row in full and then copies the joined
    # rows into the document peaks at about 2.25x the text
    text, peak = _traced_peak(lambda: render_json(long_rows))
    assert peak < 1.5 * len(text)


def test_json_census_command_holds_no_encoded_copy(long_rows, tmp_path):
    # encoding the whole document in one write adds a copy of the file
    out = tmp_path / "long.json"
    argv = ["census", "--r", "1", "--degrees", "1..10", "--n", "4..201", "--j", "6",
            "--out", str(out), "--format", "json"]
    code, peak = _traced_peak(lambda: cli.run_command(argv, out=io.StringIO()))
    assert code == 0
    size = out.stat().st_size
    assert size > cli.WRITE_SLICE and size % cli.WRITE_SLICE
    assert out.read_text() == render_json(long_rows)
    assert peak < 2 * size


# -- the streaming JSON reader ----------------------------------------------------


def test_json_reader_holds_only_the_rows_it_returns(long_rows):
    # a reader that decodes the whole document first peaks at about 3x the text
    text = render_json(long_rows)
    parsed, peak = _traced_peak(lambda: parse_json(text))
    assert parsed == long_rows
    assert peak < len(text)


def test_json_reader_holds_one_copy_of_distinct_rows():
    # one n, so no two rows share their text: the reader holds the rows
    # (about 0.7x the text) and the text of each row while it reads
    rows = enumerate_rows(2, (1, 60), (3, 3), 6)
    text = render_json(rows)
    parsed, peak = _traced_peak(lambda: parse_json(text))
    assert parsed == rows
    assert peak < 2.5 * len(text)


def test_json_reader_holds_no_row_text_where_no_row_repeats():
    # the rows are about 0.7x the text; a reader that kept the rendered text
    # of every distinct row peaks at about 2.2x
    rows = enumerate_rows(2, (1, 60), (3, 3), 6)
    text = render_json(rows)
    parsed, peak = _traced_peak(lambda: parse_json(text))
    assert parsed == rows
    assert peak < 1.25 * len(text)


def _one_row_text():
    return render_json([compute_row(5, (2, 3), 1)])


def _one_row_doc():
    return json.loads(_one_row_text())


def _without(section, key):
    doc = _one_row_doc()
    row = doc["rows"][0]
    del (row[section] if section else row)[key]
    return doc


def _with(section, key, value):
    doc = _one_row_doc()
    row = doc["rows"][0]
    (row[section] if section else row)[key] = value
    return doc


def _rows_doc(rows):
    return {"format": "multisecant-census/1", "rows": rows}


_MALFORMED = {
    "format-unknown": {**_one_row_doc(), "format": "multisecant-census/2"},
    "format-missing": {"rows": _one_row_doc()["rows"]},
    "row-is-a-list": _rows_doc([[5, 2, [2, 3], 1]]),
    "row-is-a-string": _rows_doc(["5,2,2;3,1"]),
    "row-is-a-number": _rows_doc([5]),
    "row-without-inputs": _without(None, "inputs"),
    "row-without-values": _without(None, "values"),
    "row-after-a-non-row": _rows_doc(_one_row_doc()["rows"] + [{}]),
    "top-level-is-a-list": _one_row_doc()["rows"],
    "top-level-is-a-row": _one_row_doc()["rows"][0],
    "top-level-is-a-string": "rows",
    "top-level-is-null": None,
    "rows-missing": {"format": "multisecant-census/1"},
    "rows-is-an-object": _rows_doc({}),
    "rows-is-a-string": _rows_doc("abc"),
    "extra-key-at-the-top-level": {**_one_row_doc(), "count": 1},
    "extra-key-in-a-row": _with(None, "notes", []),
    "extra-key-in-inputs": _with("inputs", "m", 3),
    "extra-key-in-values": _with("values", "segre", "1"),
    "extra-key-in-verdicts": _with("verdicts", "ran", "holds"),
    "extra-key-in-flags": _with("flags", "degenerate", False),
    "citations-a-number": _with(None, "citations", 5),
    "citations-missing": _without(None, "citations"),
    "citations-reordered": _with(None, "citations", _one_row_doc()["rows"][0]["citations"][::-1]),
    "citations-one-short": _with(None, "citations", _one_row_doc()["rows"][0]["citations"][:2]),
    "n-missing": _without("inputs", "n"),
    "zak-missing": _without("verdicts", "zak"),
    "inputs-is-a-list": _with(None, "inputs", [5, 2, [2, 3], 1]),
    "values-is-a-string": _with(None, "values", "6"),
    "n-is-a-float": _with("inputs", "n", 5.0),
    "n-is-a-bool": _with("inputs", "n", True),
    "r-is-a-string": _with("inputs", "r", "2"),
    "j-is-null": _with("inputs", "j", None),
    "degrees-is-a-string": _with("inputs", "degrees", "2;3"),
    "degree-item-is-a-float": _with("inputs", "degrees", [2.0, 3]),
    "degree-item-is-a-list": _with("inputs", "degrees", [[2], 3]),
    "degree-is-an-int": _with("values", "degree", 6),
    "secant-degree-is-null": _with("values", "secant_degree", None),
    "chern-is-a-string": _with("values", "chern", "1;5;6"),
    "chern-item-is-an-int": _with("values", "chern", ["1", 5, "6"]),
    "chern-item-holds-the-separator": _with("values", "chern", ["1;5", "6"]),
    "chern-is-empty": _with("values", "chern", []),
    "twisted-item-is-a-list": _with("values", "twisted_top_cherns", [["6"], "2"]),
    "jnormal-is-a-bool": _with("verdicts", "jnormal", False),
    "flag-is-a-string": _with("flags", "d_consistent", "true"),
    "flag-is-an-int": _with("flags", "integrality_warning", 0),
}


def _laid_out(doc):
    """The document in the writer's layout, so that a reader reaches its rows."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_json_raises(doc):
    # compact, the document fails the layout check; in the writer's layout
    # it reaches the row checks
    for dump in (json.dumps, _laid_out):
        with pytest.raises(ValueError):
            parse_json(dump(doc))


def test_json_nested_past_the_recursion_limit_raises():
    # the nesting sits inside one row of the writer's layout, so the reader
    # reaches the row's inputs
    deep = _one_row_text().replace('"degrees": [', '"degrees": ' + "[" * 100_000, 1)
    assert deep.count("[") > 100_000
    with pytest.raises(ValueError):
        parse_json(deep)


def test_json_reader_refuses_repeated_degree_keys_in_linear_time():
    # a reader that searched for a row's inputs past the row's first byte
    # would rescan the rest of this 240 KB text at each of its 20,000 keys
    # (27 s where a 60 KB text takes 2.1 s)
    text = census._HEAD + '"degrees": [' * 20_000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^row 0: "):
        parse_json(text)
    assert time.perf_counter() - start < 1.0


# -- the reader takes only the writer's bytes ------------------------------------

_FOOTER = "\n  ]\n}\n"


def _rows_text():
    return render_json(enumerate_rows(2, (2, 3), (3, 6), 1))


def _inputs_reordered():
    doc = _one_row_doc()
    inputs = doc["rows"][0]["inputs"]
    doc["rows"][0]["inputs"] = {key: inputs[key] for key in ("r", "n", "j", "degrees")}
    return json.dumps(doc, indent=2) + "\n"


_EDITED = {
    # the decoder keeps the last of a duplicated key, so this decodes to n = 6
    "n-twice": lambda: _one_row_text().replace('"n": 5,', '"n": 5, "n": 6,'),
    "n-twice-the-other-way": lambda: _one_row_text().replace('"n": 5,', '"n": 6, "n": 5,'),
    "n-with-a-leading-zero": lambda: _one_row_text().replace('"n": 5,', '"n": 05,'),
    "n-as-a-float": lambda: _one_row_text().replace('"n": 5,', '"n": 5.0,'),
    "n-with-a-plus": lambda: _one_row_text().replace('"n": 5,', '"n": +5,'),
    "n-with-a-space": lambda: _one_row_text().replace('"n": 5,', '"n": 5 ,'),
    # int() reads a fullwidth 5 as 5, but the writer writes n in ASCII digits
    "n-in-another-script": lambda: _one_row_text().replace('"n": 5,', '"n": \uff15,'),
    "r-twice": lambda: _one_row_text().replace('"r": 2\n', '"r": 2, "r": 3\n'),
    "inputs-reordered": _inputs_reordered,
    "a-space-inside-a-row": lambda: _one_row_text().replace('"j": 1,', '"j":  1,'),
    # the reader's match for the inputs takes either flag word and any
    # spacing around a degree, so only the comparison with the rendering
    # refuses these two; each keeps n where the writer writes it
    "flags-swapped": lambda: _one_row_text().replace(
        'true,\n        "integrality_warning": false', 'false,\n        "integrality_warning": true'),
    "degrees-respaced": lambda: _one_row_text().replace('[\n          2,', '[ \n         2,'),
    "first-row-after-a-comma": lambda: _one_row_text().replace("[\n    {", "[,\n    {", 1),
    "second-row-without-its-comma": lambda: _rows_text().replace("},\n    {", "}\n    {", 1),
    "last-row-truncated": lambda: _rows_text()[: _rows_text().rindex('"r": ')],
    "last-row-without-its-brace": lambda: _rows_text()[: -len("}" + _FOOTER)],
    "footer-missing": lambda: _rows_text()[: -len(_FOOTER)],
    "rows-separated-by-a-space": lambda: _rows_text().replace("},\n    {", "} \n    {", 1),
    "footer-edited-in-place": lambda: _rows_text()[:-1] + " ",
    "final-newline-missing": lambda: _rows_text()[:-1],
    "bytes-after-the-footer": lambda: _rows_text() + "\n",
    "a-second-document": lambda: _rows_text() * 2,
    "no-rows-and-bytes-after": lambda: render_json([]) + " ",
    "nested-past-the-recursion-limit": lambda: "[" * 100_000,
    # census.schema.json's minimum, minItems, pattern and enum, in the writer's layout
    "n-zero": lambda: _one_row_text().replace('"n": 5,', '"n": 0,'),
    "n-negative": lambda: _one_row_text().replace('"n": 5,', '"n": -5,'),
    "r-zero": lambda: _one_row_text().replace('"r": 2\n', '"r": 0\n'),
    "j-negative": lambda: _one_row_text().replace('"j": 1,', '"j": -1,'),
    "degrees-empty": lambda: _one_row_text().replace(
        '"degrees": [\n          2,\n          3\n        ],', '"degrees": [],'),
    "degree-not-rational": lambda: _one_row_text().replace('"degree": "6",', '"degree": "x",'),
    "degree-with-a-trailing-newline": lambda: _one_row_text().replace(
        '"degree": "6",', '"degree": "6\\n",'),
    "degree-with-a-lone-cr": lambda: _one_row_text().replace('"degree": "6",', '"degree": "6\\r",'),
    "secant-degree-with-an-empty-denominator": lambda: _one_row_text().replace(
        '"secant_degree": "6",', '"secant_degree": "6/",'),
    "chern-item-with-a-plus": lambda: _one_row_text().replace(
        '"1",\n          "5"', '"1",\n          "+5"'),
    "twisted-item-a-non-ascii-digit": lambda: _one_row_text().replace(
        '"6",\n          "2"\n', '"6",\n          "\\uff12"\n'),
    "jnormal-not-an-outcome": lambda: _one_row_text().replace(
        '"jnormal": "fails"', '"jnormal": "maybefails"'),
    "zak-not-an-outcome": lambda: _one_row_text().replace('"zak": "inapplicable"', '"zak": "holds "'),
}


@pytest.mark.parametrize("edit", list(_EDITED.values()), ids=list(_EDITED))
def test_text_the_writer_does_not_write_raises(edit):
    text = edit()
    assert text != _one_row_text() and text != _rows_text()
    with pytest.raises(ValueError):
        parse_json(text)


def test_csv_with_a_lone_cr_raises_value_error():
    # render_csv leaves a lone CR unquoted, and no row a sweep builds holds one
    row = compute_row(5, (2, 3), 1)._replace(degree="6\r")
    with pytest.raises(ValueError):
        parse_csv(render_csv([row]))


def test_verify_rows_reports_a_csv_row_with_n_zero():
    row = compute_row(5, (2, 3), 1)
    text = render_csv([row]).replace("\n5,", "\n0,")
    problem = "row 0: inputs rejected: ambient dimension must be >= 1"
    with pytest.raises(ValueError, match=f"^{problem}$"):
        parse_csv(text)
    assert verify_rows([row._replace(n=0)]) == [problem]


@pytest.fixture(scope="module")
def grid_text():
    return render_json(enumerate_rows(2, (1, 20), (3, 60), 2))


@pytest.mark.parametrize(
    "dump",
    [lambda doc: json.dumps(doc, indent=4, sort_keys=True) + "\n", json.dumps,
     lambda doc: json.dumps(doc, separators=(",", ":"))],
    ids=["indent-4", "compact", "no-spaces"],
)
def test_reformatted_grid_raises(grid_text, dump):
    # the same document, decoded and encoded again in another layout
    text = dump(json.loads(grid_text))
    assert text != grid_text
    with pytest.raises(ValueError):
        parse_json(text)


def test_grid_reads_back(grid_text):
    rows = parse_json(grid_text)
    assert len(rows) == 12180 and render_json(rows) == grid_text


@pytest.mark.parametrize("text", ["", "\n"])
def test_csv_without_a_header_raises(text):
    with pytest.raises(ValueError, match=re.escape(f"unexpected census header: {text!r}")):
        parse_csv(text)


_ROW_KEYS = ["rows", "inputs", "values", "verdicts", "flags", "n", "r", "degrees", "j",
             "degree", "chern", "twisted_top_cherns", "secant_degree", "jnormal", "zak",
             "integrality_warning", "d_consistent"]
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "1", "a;b"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(_ROW_KEYS), inner, max_size=6),
    ),
    max_leaves=30,
)


# every object at the top level carries the /1 format, so that the
# property reaches the rows and does not stop at the format check
@given(st.one_of(_json_values.map(lambda doc: {**doc, "format": "multisecant-census/1"}
                                  if type(doc) is dict else doc),
                 st.builds(lambda row, rest: _rows_doc([row] + rest),
                           st.just(_one_row_doc()["rows"][0]),
                           st.lists(_json_values, max_size=2))))
def test_json_reader_returns_only_rows_or_raises(doc):
    for text in (json.dumps(doc), _laid_out(doc)):
        try:
            parsed = parse_json(text)
        except ValueError:
            continue
        assert type(parsed) is list and all(type(row) is CensusRow for row in parsed)
        assert render_json(parsed) == text


# -- rows built from the sweep cache --------------------------------------------


def _seeded_sweep(seed):
    rng = random.Random(seed)
    r, j = rng.randint(1, 4), rng.randint(1, 4)
    lo = rng.randint(-3, 0)  # every sweep crosses degree 0
    hi = rng.randint(0, 6) if r < 4 else rng.randint(0, 3)
    lo_n = rng.randint(r + 1, r + 4)
    return r, (lo, hi), (lo_n, lo_n + rng.randint(0, 3)), j


# Sweeps across the smallest n at which both j-normality bounds hold
# (11 for r = 1, j = 2; 10 for r = 2, j = 1), where rows of one n differ in
# their verdict only by which twisted factors vanish.
_BOUNDARY_SWEEPS = [(1, (-1, 3), (10, 12), 2), (2, (0, 3), (9, 11), 1)]


@pytest.mark.parametrize(
    "r, degree_range, ambient_range, j",
    [_seeded_sweep(seed) for seed in range(12)] + _BOUNDARY_SWEEPS,
)
def test_sweep_rows_equal_fresh_rows(r, degree_range, ambient_range, j):
    rows = enumerate_rows(r, degree_range, ambient_range, j)
    for row in rows:
        assert row == compute_row(row.n, row.degrees, row.j)
        # independent of the sweep: the split product and the uncached verdict
        factors = [math.prod(d - i for d in row.degrees) for i in range(j + 1)]
        assert row.twisted_top_cherns == ";".join(map(str, factors))
        bundle = complete_intersection_bundle(row.n, row.degrees)
        assert row.jnormal == check_jnormal_bundle(bundle, j).outcome


# characters an edit puts in: digits and signs, every separator either
# format writes, and letters of the outcome words and flags
_EDIT_CHARS = '0123456789+-/.,;: \n\r"[]{}eflnorstux'


@functools.cache
def _sweep_file(seed, fmt):
    return _FORMATS[fmt][0](enumerate_rows(*_seeded_sweep(seed)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(12)), st.sampled_from(sorted(_FORMATS)), st.data())
def test_one_character_edit_raises_or_reads_back_as_edited(seed, fmt, data):
    render, parse = _FORMATS[fmt]
    text = _sweep_file(seed, fmt)
    # between the header (the CSV's first line, the document up to "rows": [)
    # and the tail; half of the edits where a row or its n starts
    if fmt == "csv":
        head, end = text.index("\n") + 1, len(text)
        marked = [at.end() for at in re.finditer("\n", text)]
    else:
        head, end = text.index("[") + 1, len(text) - len(_FOOTER)
        marked = [at.end() for at in re.finditer('"n": ', text)]
        marked += [at.start() for at in re.finditer(",\n    {", text)]
    op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    at = data.draw(st.one_of(st.integers(head, end - (op != "insert")),
                             st.sampled_from([at for at in marked if head <= at < end])))
    chars = st.sampled_from(_EDIT_CHARS)
    if text[at:at + 1].isdigit():
        # the same digit in fullwidth form, which int() reads as the ASCII one
        chars = st.one_of(chars, st.just(chr(0xFF10 + int(text[at]))))
    char = "" if op == "delete" else data.draw(chars)
    edited = text[:at] + char + text[at + (op != "insert"):]
    try:
        rows = parse(edited)
    except ValueError:
        return
    assert verify_rows(rows) == [] and render(rows) == edited


@pytest.mark.parametrize(
    "field, value", [("secant_degree", "7"), ("jnormal", "holds")]
)
def test_tampered_row_after_its_inputs_are_cached(field, value):
    # degrees >= 2 leave no twisted factor zero, so the last row's degree
    # tuple (seen at n = 3..5) and its (n, r, j) (seen with (2, 2) ... (3, 4))
    # are both cached before it is checked
    rows = enumerate_rows(2, (2, 4), (3, 6), 1)
    last = rows[-1]
    assert (last.n, last.degrees) == (6, (4, 4)) and getattr(last, field) != value
    tampered = rows[:-1] + [last._replace(**{field: value})]
    problems = verify_rows(tampered)
    assert len(problems) == 1 and problems[0].startswith(f"row {len(rows) - 1}: ")


@pytest.mark.parametrize(
    "n, degrees, j",
    [(2, (2, 2), 1), (1, (3,), 2), (3, (1, 1, 2), 3), (0, (2, 2), 1), (4, (1, 2), 0), (4, (1, 2), -1)],
)
def test_rows_outside_the_range_raise_as_compute_row_does(n, degrees, j):
    with pytest.raises((HypothesisError, ValueError)) as fresh:
        compute_row(n, degrees, j)
    # a valid row with the same degree tuple fills the cache first
    good = compute_row(len(degrees) + 2, degrees, max(j, 1))
    bad = good._replace(n=n, j=j)
    # verify_rows reports the refusal as the row's problem instead of raising it
    assert verify_rows([good, bad]) == [f"row 1: inputs rejected: {fresh.value}"]
    sweep = _Sweep()
    with pytest.raises(fresh.type):
        sweep.row(n, degrees, j)
    assert sweep.values == {} and sweep.verdicts == {}


# -- pinned output and row semantics ----------------------------------------------

# The benchmark's three census sweeps at their first degree windows: the
# ROADMAP grid, the long-polynomial sweep and the codimension-3 sweep.
_PINNED_SWEEPS = {
    (2, (1, 20), (3, 60), 2): (
        12180,
        "7658cd4ba65b23e527752ed7f7cc6deca11f57ce729eb686eb009a7b29fe4ae5",
        "8364c3233c9a34f7af78e8a5d4c7ee215880d7448dc7b5e261e16ca514b2ec08",
    ),
    (1, (1, 10), (4, 201), 6): (
        1980,
        "8df56d799504443441f173f7059c8a0048e4994a6abe2575ba1ce9f9438b497d",
        "d1ea30223e168c1c5a584b252248414592f0309ba11d16bbb8c1b14392255189",
    ),
    (3, (1, 6), (4, 40), 1): (
        2072,
        "34a2fb39066155147d2b9c354676e6f0bdb2069abd50759eab50cca86b1dfc4b",
        "8ed12a13aa6bbd7f676b60d6228720f144e3bece54cf0b7903a29dc0ee04de04",
    ),
}


@pytest.mark.parametrize("sweep", list(_PINNED_SWEEPS), ids=str)
def test_benchmark_sweeps_render_the_pinned_bytes(sweep):
    count, csv_digest, json_digest = _PINNED_SWEEPS[sweep]
    rows = enumerate_rows(*sweep)
    assert len(rows) == count
    assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == csv_digest
    assert hashlib.sha256(render_json(rows).encode()).hexdigest() == json_digest


def test_tampered_row_problem_is_pinned():
    rows = enumerate_rows(2, (2, 4), (3, 6), 1)
    last = rows[-1]
    fields = {name: getattr(last, name) for name in CSV_HEADER}
    tampered = rows[:-1] + [CensusRow(**{**fields, "secant_degree": "7"})]
    shared = (
        "n=6, r=2, degrees=(4, 4), j=1, degree='16', chern='1;8;16', "
        "twisted_top_cherns='16;9', secant_degree='%s', jnormal='fails', "
        "zak='inapplicable', integrality_warning='false', d_consistent='true'"
    )
    assert verify_rows(tampered) == [
        f"row 23: stored CensusRow({shared % 7}) != recomputed CensusRow({shared % 72})"
    ]


def test_row_is_a_value(rows):
    row = rows[0]
    fields = tuple(getattr(row, name) for name in CSV_HEADER)
    assert row == CensusRow(*fields) and row is not CensusRow(*fields)
    assert hash(row) == hash(fields)
    with pytest.raises(AttributeError):
        row.secant_degree = "3"
    assert row.secant_degree == "2"
    assert parse_csv(render_csv(rows)) == rows
    assert parse_json(render_json(rows)) == rows


@pytest.mark.parametrize(
    "r, degree_range, ambient_range, j",
    [(2, (-1, 3), (3, 8), 2), (1, (-2, 4), (2, 12), 3), (3, (0, 2), (4, 6), 1)],
)
def test_sweep_caches_one_entry_per_distinct_input(r, degree_range, ambient_range, j):
    sweep = _Sweep()
    tuples = list(itertools.combinations_with_replacement(range(degree_range[0], degree_range[1] + 1), r))
    inputs = [(n, degrees) for n in range(ambient_range[0], ambient_range[1] + 1) for degrees in tuples]
    for n, degrees in inputs:
        sweep.row(n, degrees, j)
    # whether c_r(E(-i)) = prod_k (d_k - i) vanishes for some i = 1..j
    vanishes = {
        degrees: any(math.prod(d - i for d in degrees) == 0 for i in range(1, j + 1))
        for degrees in tuples
    }
    assert len(sweep.values) == len({(degrees, j) for _, degrees in inputs})
    assert len(sweep.verdicts) == len({(n, r, j, vanishes[degrees]) for n, degrees in inputs})
    least = jnormal_min_ambient_dim(r, j)
    assert len(sweep.jnormals) == len({(vanishes[degrees], n >= least) for n, degrees in inputs})
