"""Census generation, serialization round-trips, schema validation."""

import hashlib
import itertools
import json
import math
import random
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, strategies as st

from multisecant import census
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
from multisecant.errors import HypothesisError
from multisecant.normality import check_jnormal_bundle


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
    tampered = parse_csv(text)
    assert verify_rows(tampered) != []


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
# parse_json keeps whatever scalar a file holds, and the writer must too
_scalars = st.one_of(_ints, st.booleans(), st.none(), st.floats(allow_nan=False))
# quotes, backslashes, control characters, non-ASCII and lone surrogates
_texts = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é;ü", "\U0001f600", ";", ""]),
)
_census_rows = st.builds(
    CensusRow,
    n=_scalars,
    r=_scalars,
    degrees=st.lists(_scalars, max_size=4).map(tuple),
    j=st.integers(0, 6),
    degree=_texts,
    chern=_texts,
    twisted_top_cherns=_texts,
    secant_degree=_texts,
    jnormal=_texts,
    zak=_texts,
    integrality_warning=st.sampled_from(["true", "false"]),
    d_consistent=st.sampled_from(["true", "false"]),
)


@given(st.lists(_census_rows, max_size=4))
def test_json_writer_matches_json_dumps(rows):
    text = render_json(rows)
    assert text == _reference_json(rows)
    assert parse_json(text) == rows


def test_json_writer_on_no_rows_and_on_the_grid():
    assert render_json([]) == _reference_json([])
    rows = enumerate_rows(3, (-3, 6), (4, 6), 2)
    assert render_json(rows) == _reference_json(rows)


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
    with pytest.raises(fresh.type) as swept:
        verify_rows([good, bad])
    assert str(swept.value) == str(fresh.value)
    sweep = _Sweep()
    with pytest.raises(fresh.type):
        sweep.row(n, degrees, j)
    assert sweep.values == {} and sweep.verdicts == {}


@pytest.mark.parametrize("field, value", [("n", 5.0), ("degrees", (2.0, 3)), ("j", 1.0)])
def test_rows_with_inputs_that_only_equal_ints_are_not_shared(field, value):
    # a float input raises in compute_row; it must not read the entries that
    # the int row with equal inputs left in the cache
    good = compute_row(5, (2, 3), 1)
    odd = good._replace(**{field: value})
    with pytest.raises(TypeError) as fresh:
        compute_row(odd.n, odd.degrees, odd.j)
    with pytest.raises(TypeError) as swept:
        verify_rows([good, odd])
    assert str(swept.value) == str(fresh.value)


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
    # the indices i = 1..j at which c_r(E(-i)) = prod_k (d_k - i) vanishes
    zeros = {
        degrees: tuple(i for i in range(1, j + 1) if math.prod(d - i for d in degrees) == 0)
        for degrees in tuples
    }
    assert len(sweep.values) == len({(degrees, j) for _, degrees in inputs})
    assert len(sweep.verdicts) == len({(n, r, j, zeros[degrees]) for n, degrees in inputs})
