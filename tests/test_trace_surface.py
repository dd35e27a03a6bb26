"""The benchmark tracer still finds every entry point it wraps by name.

``perfbench/tracing.py`` wraps package functions and methods by name, so
renaming or deleting one of them breaks traced benchmark runs.  Installing
and uninstalling the tracer here turns such a break into a test failure.
The benchmark's modules are loaded from their files and never edited.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from multisecant import bundles, census, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    make = bundles.ChernVector.__dict__["make"]
    twist = bundles.twist
    runners = dict(verify._RUNNERS)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert bundles.ChernVector.__dict__["make"] is not make
        assert bundles.twist.__wrapped__ is twist
        assert all(verify._RUNNERS[s][0] is not runners[s][0] for s in runners)
        bundles.ChernVector.make(4, [1, 4, 4])
        assert tracer.name_id("bundles.build") in tracer.name
    finally:
        uninstall()
    assert bundles.ChernVector.__dict__["make"] is make
    assert bundles.twist is twist
    assert verify._RUNNERS == runners


def test_census_rows_and_bytes_are_counted():
    # the tracer takes len() of enumerate_rows' result and len(text.encode())
    # of each render, so both must keep returning a list and a str
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        rows = census.enumerate_rows(2, (2, 3), (3, 5), 1)
        csv_text = census.render_csv(rows)
        json_text = census.render_json(rows)
    finally:
        uninstall()
    assert isinstance(rows, list) and len(rows) == 9
    assert tracer.counts["census.rows"] == 9
    assert tracer.counts["census.bytes_written"] == len(csv_text.encode()) + len(json_text.encode())
    assert tracer.counts["census.bytes_written"] > 0


@pytest.mark.parametrize("trials", [0, 3])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_suite_span_encloses_its_identity_calls(suite, trials):
    # a traced benchmark run counts a suite's identity calls against
    # checks.suite_calls; here they must also all run inside the suite's span
    tracing, checks = _load_tracing(), _load("checks")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        passed, _ = verify.run_suite(suite, trials, 1)
    finally:
        uninstall()
    assert passed
    suite_id = tracer.name_id(f"verify.suite.{suite}")
    [root] = [sid for sid, name in enumerate(tracer.name) if name == suite_id]
    inside, under = {root}, Counter()
    for sid in range(root + 1, len(tracer.name)):  # a span opens after its parent
        if tracer.parent[sid] in inside:
            inside.add(sid)
            under[tracer.names[tracer.name[sid]]] += 1
    expected = checks.suite_calls(suite, trials)
    assert {span: under[span] for span in expected} == expected
