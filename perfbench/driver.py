"""Child process of the benchmark: the in-process half of its ops.

    driver.py ready                              import the oracle's modules, exit
    driver.py reingest FILE FORMAT               parse a census file + verify_rows
    driver.py oracle CASES SECONDS               run oracle cases until SECONDS pass
    driver.py --trace SPANS [--op N] cli ARGV..  one CLI invocation, traced

With ``--trace`` the package's entry points are wrapped (see tracing.py)
and the spans are written to SPANS when the op ends; a traced op's root
span starts at the time the launcher passes in PERFBENCH_SPAWN_NS, and
interpreter start up to the driver's first line is its own span.  ``oracle`` and
``reingest`` print one JSON result line on stdout; ``cli`` leaves stdout
to the program, exactly as ``python -m multisecant.cli`` would.
"""

from __future__ import annotations

import sys
import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402

from tracing import SPAWN_ENV, Tracer, install  # noqa: E402


def _terms(element):
    return (element.ambient_dim, element.factors, sorted(element.terms.items()))


def run_oracle(cases, seconds, tracer):
    """Rounds of the case list until ``seconds`` pass, at least one.  Each
    case calls the recursion, the closed form and the ring count; the two
    classes are compared here and the count is checked by the parent.  With
    a tracer: one round in which every case runs untraced, then traced."""
    from multisecant import bundles, fiberring  # looked up per call, so that traced wrappers are seen

    if tracer:
        tracer.current_op[0] = -1
        tracer.start[tracer.begin("driver.load")] = T0
        tracer.finish(0)
    results = []

    def one(index, case, mode):
        t0 = time.perf_counter_ns()  # outside the case's span, which it must cover
        if mode == "traced":
            tracer.current_op[0] = index
            sid = tracer.begin("driver.case")
        cv = bundles.ChernVector.make(case["n"], case["c"])
        rec = fiberring.recursion_top_chern(cv, case["k"])
        closed = fiberring.closed_form_top_chern(cv, case["k"])
        count = fiberring.secant_count_via_ring(cv, case["k"])
        if mode == "traced":
            tracer.finish(sid)
        t1 = time.perf_counter_ns()
        num, den = count.numerator, count.denominator
        results.append({
            "case": index, "mode": mode, "seconds": (t1 - t0) / 1e9, "terms": len(rec.terms),
            "equal": _terms(rec) == _terms(closed), "count": str(num) if den == 1 else f"{num}/{den}",
        })

    if tracer:
        for index, case in enumerate(cases):
            one(index, case, "plain")
            uninstall = install(tracer)
            one(index, case, "traced")
            uninstall()
        return {"results": results}
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for index, case in enumerate(cases):
            if not first and time.perf_counter() >= deadline:
                break
            one(index, case, "plain")
        first = False
    return {"results": results}


def run_reingest(path, fmt):
    from multisecant.census import parse_csv, parse_json, verify_rows

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = time.perf_counter_ns()
    rows = (parse_csv if fmt == "csv" else parse_json)(text)
    problems = verify_rows(rows)
    t1 = time.perf_counter_ns()
    return {"rows": len(rows), "problems": problems[:3], "seconds": (t1 - t0) / 1e9}


def main(argv):
    spans = None
    op = 0
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            spans = value
        elif flag == "--op":
            op = int(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode, args = argv[0], argv[1:]
    tracer = Tracer() if spans else None
    if mode == "ready":
        from multisecant import fiberring  # noqa: F401  the modules the oracle runs

        return 0
    if mode == "oracle":
        with open(args[0]) as fh:
            cases = json.load(fh)
        out = run_oracle(cases, float(args[1]), tracer)
        print(json.dumps(out))
        code = 0
    elif tracer is None and mode == "reingest":
        print(json.dumps(run_reingest(*args)))
        code = 0
    else:
        tracer.current_op[0] = op
        root = tracer.begin("driver.op")
        # the root covers the process from its start by the launcher, so
        # that its length is the op's traced wall time up to the exit
        spawn = int(os.environ.get(SPAWN_ENV, T0))
        tracer.start[root] = spawn
        tracer.closed("interpreter.start", spawn, T0)
        sid = tracer.begin("cli.load" if mode == "cli" else "driver.load")
        from multisecant import cli

        tracer.finish(sid)
        sid = tracer.begin("driver.install")
        install(tracer)
        tracer.finish(sid)
        if mode == "cli":
            code = cli.run_command(args)
            sys.stdout.flush()
        elif mode == "reingest":
            print(json.dumps(run_reingest(*args)))
            code = 0
        else:
            raise SystemExit(f"unknown mode {mode}")
        tracer.finish(root)
    if tracer is not None:
        tracer.dump(spans)
        # No interpreter teardown after the last span: it belongs to no
        # layer, and the op's traced wall time has to match the spans.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
