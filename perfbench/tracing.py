"""In-memory spans around the package's public entry points.

``install`` replaces each traced function, in every ``multisecant``
module that holds a reference to it, by a wrapper that records a span
(parent, name, start, end, op id) in flat arrays; the spans are written
out once, when the traced process ends.  Functions called too often to
time without swamping the run (``binomial``) are only counted.  Nothing
in the package is edited: the wrappers live in this process only.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import Counter

clock = time.perf_counter_ns  # CLOCK_MONOTONIC on Linux: comparable across processes
SPAWN_ENV = "PERFBENCH_SPAWN_NS"  # the clock() time at which the launcher started this process


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.current_op = [0]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.tallies = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(self.name_id(name))
        self.op.append(self.current_op[0])
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(clock())
        return sid

    def finish(self, sid: int):
        self.end[sid] = clock()
        self.stack.pop()

    def closed(self, name: str, start: int, end: int):
        """A span that has already ended, under the open one."""
        self.parent.append(self.stack[-1])
        self.name.append(self.name_id(name))
        self.op.append(self.current_op[0])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        parent, names, start, end, ops = self.parent, self.name, self.start, self.end, self.op
        stack, current_op = self.stack, self.current_op

        def traced(*args, **kwargs):  # begin() and finish() inlined: this is the hot path
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(current_op[0])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Count calls without a span, for functions too frequent to time."""
        tick = itertools.count(1).__next__
        self.tallies[name] = tick

        def counted(*args):
            tick()
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: str):
        """Write spans and counts; a last line gives the time the dump took."""
        t0 = clock()
        doc = {
            "names": self.names,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "op": self.op.tolist(),
            "counts": {**self.counts, **{name: tick() - 1 for name, tick in self.tallies.items()}},
            "maxima": self.maxima,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write(f"\n{clock() - t0}\n")


def _nonzero(coeffs) -> int:
    return sum(1 for x in coeffs if x)


def install(tracer: Tracer):
    """Wrap the public entry points of every layer, named after its module;
    returns a function that undoes it."""
    from multisecant import (
        bundles, census, classpoly, cli, combinat, exprs, fiberring, normality, rationals, secants, verify,
    )

    counts, maxima = tracer.counts, tracer.maxima

    def classpoly_mul_after(args, result):
        counts["classpoly.mul_coeff_pairs"] += _nonzero(args[0].coeffs) * _nonzero(args[1].coeffs)

    def fiberring_mul_after(args, result):
        counts["fiberring.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        counts["fiberring.mul_result_terms"] += len(result.terms)
        if len(result.terms) > maxima.get("fiberring.max_terms", 0):
            maxima["fiberring.max_terms"] = len(result.terms)

    def rows_after(args, result):
        counts["census.rows"] += len(result)

    def bytes_after(args, result):
        counts["census.bytes_written"] += len(result.encode())

    functions = {
        "cli.run_command": [cli.run_command],
        "exprs.parse_bundle": [exprs.parse_bundle],
        "exprs.elaborate": [exprs.elaborate],
        "bundles.build": [bundles.line_bundle, bundles.tangent_bundle, bundles.direct_sum,
                          bundles.complete_intersection_bundle],
        "bundles.top_chern_twisted": [bundles.top_chern_twisted],
        "bundles.twist": [bundles.twist],
        "bundles.segre": [bundles.segre_coefficient, bundles.segre_series],
        "secants.multisecant_report": [secants.multisecant_report],
        "secants.trisecant": [secants.trisecant_closed, secants.trisecant_double_sum],
        "secants.goettsche": [secants.goettsche_a_derived, secants.goettsche_b_full, secants.goettsche_b_reduced,
                              secants.goettsche_c_full, secants.goettsche_c_reduced],
        "normality.check": [normality.check_jnormal_general, normality.check_jnormal_bundle,
                            normality.check_2normal, normality.check_linear_normality_zak],
        "combinat.identity": [combinat.koszul_rank_identity, combinat.wedge_resolution_sum_unit,
                              combinat.wedge_resolution_sum_shifted],
        "rationals.format_rational": [rationals.format_rational],
        "fiberring.recursion": [fiberring.recursion_top_chern],
        "fiberring.closed_form": [fiberring.closed_form_top_chern],
        "fiberring.secant_count": [fiberring.secant_count_via_ring],
        "census.compute_row": [census.compute_row],
        "census.enumerate_rows": [census.enumerate_rows],
        "census.render_csv": [census.render_csv],
        "census.render_json": [census.render_json],
        "census.parse": [census.parse_csv, census.parse_json],
        "census.verify_rows": [census.verify_rows],
    }
    after = {census.enumerate_rows: rows_after, census.render_csv: bytes_after, census.render_json: bytes_after}
    replace = {}
    for name, fns in functions.items():
        for fn in fns:
            replace[fn] = tracer.wrap(name, fn, after.get(fn))
    replace[combinat.binomial] = tracer.counter("combinat.binomial_calls", combinat.binomial)
    runners = dict(verify._RUNNERS)
    for suite, (runner, default) in runners.items():
        replace[runner] = tracer.wrap(f"verify.suite.{suite}", runner)
        verify._RUNNERS[suite] = (replace[runner], default)

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module_name, module in list(sys.modules.items()):
        if module_name == "multisecant" or module_name.startswith("multisecant."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replace:
                    patch(module, attr, replace[value])

    methods = [
        (classpoly.TruncatedClassPoly, "__mul__", "classpoly.mul", classpoly_mul_after),
        (classpoly.TruncatedClassPoly, "from_coeffs", "classpoly.from_coeffs", None),
        (classpoly.TruncatedClassPoly, "__str__", "classpoly.str", None),
        (bundles.ChernVector, "make", "bundles.build", None),
        (fiberring.FiberRingElement, "__mul__", "fiberring.mul", fiberring_mul_after),
        (fiberring.FiberRingElement, "__add__", "fiberring.add", None),
    ]
    for cls, attr, name, hook in methods:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patch(cls, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
        else:
            patch(cls, attr, tracer.wrap(name, raw, hook))

    def uninstall():
        """Put every original back, leaving the process untraced."""
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        verify._RUNNERS.update(runners)

    return uninstall
