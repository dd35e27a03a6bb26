"""The benchmark tracer still finds every entry point it wraps by name.

``perfbench/tracing.py`` wraps package functions and methods by name, so
renaming or deleting one of them breaks traced benchmark runs.  Installing
and uninstalling the tracer here turns such a break into a test failure.
"""

import importlib.util
from pathlib import Path

from multisecant import bundles, census, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
