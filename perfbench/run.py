"""The multisecant benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; children run with PYTHONPATH=src
and MULTISECANT_LOG unset, one at a time.  NAME is one of oneshot,
census, verify, oracle, or ``all`` for the four in sequence.  The last
line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import SPAWN_ENV  # noqa: E402

DRIVER = str(HERE / "driver.py")
PY = sys.executable
HARD_LIMIT_S = 170.0  # every run, build included, must end within 180 s
# Set-up probes (a fresh interpreter importing what an op needs, paired with
# a bare interpreter start) are spread over the run rather than bunched at
# its start, because the machine's speed drifts over seconds.
FIRST_PROBES = 3
PROBE_EVERY_S = 1.0
# The untraced oracle runs its cases in a child per ORACLE_CHUNK_S, with
# ORACLE_PROBES set-up probes before each child and after the last one.
ORACLE_CHUNK_S = 4.0
ORACLE_PROBES = 3

# -- per-layer metrics: (name, unit, better, how it is computed) ------------------
LAYER_TIMES = {
    "cli.run_command_self_s": ["cli.run_command"],
    "cli.load_s": ["cli.load"],
    "exprs.parse_bundle_s": ["exprs.parse_bundle"],
    "exprs.elaborate_self_s": ["exprs.elaborate"],
    "bundles.build_s": ["bundles.build"],
    "bundles.top_chern_twisted_s": ["bundles.top_chern_twisted"],
    "bundles.twist_s": ["bundles.twist"],
    "bundles.segre_s": ["bundles.segre"],
    "classpoly.mul_s": ["classpoly.mul"],
    "classpoly.from_coeffs_s": ["classpoly.from_coeffs"],
    "classpoly.str_s": ["classpoly.str"],
    "secants.multisecant_report_self_s": ["secants.multisecant_report"],
    "secants.trisecant_s": ["secants.trisecant"],
    "secants.goettsche_s": ["secants.goettsche"],
    "normality.check_self_s": ["normality.check"],
    "combinat.identity_s": ["combinat.identity"],
    "rationals.format_rational_s": ["rationals.format_rational"],
    "fiberring.mul_s": ["fiberring.mul"],
    "fiberring.add_s": ["fiberring.add"],
    "fiberring.recursion_self_s": ["fiberring.recursion"],
    "fiberring.closed_form_self_s": ["fiberring.closed_form"],
    "fiberring.secant_count_self_s": ["fiberring.secant_count"],
    "census.compute_row_self_s": ["census.compute_row"],
    "census.enumerate_rows_self_s": ["census.enumerate_rows"],
    "census.render_csv_s": ["census.render_csv"],
    "census.render_json_s": ["census.render_json"],
    "census.parse_s": ["census.parse"],
    "census.verify_rows_self_s": ["census.verify_rows"],
    "verify.suite_self_s": [f"verify.suite.{s}" for s in workloads.SUITES],
    **{f"verify.{s}_self_s": [f"verify.suite.{s}"] for s in workloads.SUITES},
    "driver.self_s": ["driver.op", "driver.case", "driver.load", "driver.install"],
    "interpreter.start_s": ["interpreter.start"],
}
MODULES = ["cli", "exprs", "bundles", "classpoly", "secants", "normality", "combinat", "rationals",
           "fiberring", "census", "verify"]
LAYER_CALLS = {
    "exprs.parse_bundle_calls": "exprs.parse_bundle",
    "bundles.build_calls": "bundles.build",
    "bundles.top_chern_twisted_calls": "bundles.top_chern_twisted",
    "bundles.twist_calls": "bundles.twist",
    "classpoly.mul_calls": "classpoly.mul",
    "classpoly.from_coeffs_calls": "classpoly.from_coeffs",
    "secants.multisecant_report_calls": "secants.multisecant_report",
    "normality.check_calls": "normality.check",
    "combinat.identity_calls": "combinat.identity",
    "rationals.format_rational_calls": "rationals.format_rational",
    "fiberring.mul_calls": "fiberring.mul",
    "fiberring.add_calls": "fiberring.add",
}
LAYER_COUNTS = {  # counted by the tracer's hooks: name -> (unit, better)
    "combinat.binomial_calls": ("count", "lower"),
    "classpoly.mul_coeff_pairs": ("count", "lower"),
    "fiberring.mul_term_pairs": ("count", "lower"),
    "census.rows": ("count", "higher"),
    "census.bytes_written": ("bytes", "lower"),
}


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in BENCHMARK.json order."""
    spec = [(name, "s", "lower") for name in LAYER_TIMES]
    spec += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    spec += [(name, "count", "lower") for name in LAYER_CALLS]
    spec += [(name, unit, better) for name, (unit, better) in LAYER_COUNTS.items()]
    spec += [("fiberring.mul_yield", "ratio", "higher"), ("fiberring.max_terms", "count", "lower"),
             ("verify.checks", "count", "higher"), ("cli.import_s", "s", "lower"),
             ("trace.overhead_ratio", "ratio", "lower")]
    return spec


END_TO_END = [("setup_s", "s", "lower"), ("work_per_s", "1/s", "higher"), ("peak_rss_mb", "MB", "lower")]


# -- child processes ----------------------------------------------------------------


class Runner:
    """Runs one child at a time through launcher.py, which reads the child's
    max RSS with wait4 and kills a child that would outlast the run's hard
    limit."""

    def __init__(self, root: Path, work: Path, hard_deadline: float):
        self.root, self.work, self.hard_deadline = root, work, hard_deadline
        self.env = {k: v for k, v in os.environ.items() if k not in ("MULTISECANT_LOG", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.peak_rss_kb = 0
        self.launcher = subprocess.Popen([PY, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, cmd, traced=False):
        """(exit code, stdout, stderr, wall seconds) of one child; a traced
        child is told when its wall time started."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = {"cmd": cmd, "cwd": str(self.root), "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(self.hard_deadline - time.perf_counter(), 0.1),
                   "spawn_env": SPAWN_ENV if traced else None}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        return (reply["code"], out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), reply["wall"])

    def timed(self, cmd):
        return self.run(cmd)[3]


# -- span analysis ------------------------------------------------------------------


def read_spans(path: Path):
    """Self time per span name, call counts, and every root span with the
    summed self times of its tree.

    A span's self time is its duration minus the part of it that its child
    spans cover, so the self times of a tree add up to its root span unless
    a span was left open (``broken``).  Whether they add up to the op's
    wall time, measured outside the tracer, is checked by the caller."""
    body, dump_ns = path.read_text().rstrip("\n").rsplit("\n", 1)
    doc = json.loads(body)
    names, parent, name, start, end, op = (doc[k] for k in ("names", "parent", "name", "start", "end", "op"))
    size = len(start)
    covered = [0] * size
    reach = list(start)
    root = list(range(size))
    for i in range(size):
        p = parent[i]
        if p < 0:
            continue
        root[i] = root[p]
        lo, hi = max(start[i], start[p], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    op_self = defaultdict(int)
    for i in range(size):
        own = end[i] - start[i] - covered[i]
        op_self[root[i]] += own
        if op[root[i]] >= 0:
            self_ns[names[name[i]]] += own
            calls[names[name[i]]] += 1
    broken = [r for r, total in op_self.items() if total != end[r] - start[r] or end[r] < start[r]]
    roots = [{"op": op[r], "name": names[name[r]], "self_s": total / 1e9} for r, total in op_self.items()]
    return {"self_ns": self_ns, "calls": calls, "counts": doc["counts"], "maxima": doc["maxima"],
            "dump_s": int(dump_ns) / 1e9, "broken": broken, "roots": roots}


# -- the benchmark run ----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else float("nan")


class Bench:
    def __init__(self, root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool, hard_deadline):
        self.root, self.work, self.name, self.seed, self.seconds, self.trace = root, work, name, seed, seconds, trace
        self.golden = root / "tests" / "golden"
        self.runner = Runner(root, work, hard_deadline)
        self.hard_deadline = hard_deadline
        self.ops = workloads.WORKLOADS[name](seed)
        self.samples = defaultdict(list)  # op key -> seconds (untraced)
        self.traced_samples = defaultdict(list)
        self.raw = []  # every untraced CLI wall time, in order
        self.bare, self.setup = [], []
        self.last_probe = 0.0
        self.attempted = self.failed = 0
        self.problems = []
        self.first_output = {}
        self.layer = {"self_ns": defaultdict(int), "calls": defaultdict(int), "counts": defaultdict(int),
                      "maxima": defaultdict(int), "broken": 0, "roots": 0}
        self.wall_gaps = []  # traced wall time minus summed self times, per traced op
        self.rounds = 0
        self.oracle_terms = {}
        for op in self.ops:
            if "census" in op["spec"]:
                op["spec"]["census"]["out"] = str(work / op["spec"]["census"]["out"])
                if op["kind"] == "cli":
                    op["argv"][op["argv"].index("--out") + 1] = op["spec"]["census"]["out"]

    # -- probes
    def probe(self, count=1):
        """A bare interpreter start, then a fresh interpreter that only
        imports what an op needs (the oracle: its driver and the package)."""
        target = [PY, DRIVER, "ready"] if self.name == "oracle" else [PY, "-c", "import multisecant.cli"]
        for _ in range(count):
            self.bare.append(self.runner.timed([PY, "-c", "pass"]))
            self.setup.append(self.runner.timed(target))
        self.last_probe = time.perf_counter()

    # -- ops
    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op['key']}: {'; '.join(problems)[:300]}")

    def same_as_before(self, key, output):
        digest = hashlib.sha256(output.encode()).hexdigest()
        first = self.first_output.setdefault(key, digest)
        return [] if first == digest else ["output differs from an earlier run of the same argv"]

    def check_cli(self, op, code, out):
        spec = op["spec"]
        if "golden" in spec:
            ok = code == 0 and out == (self.golden / spec["golden"]).read_text()
            problems = [] if ok else [f"exit {code} or stdout differs from tests/golden/{spec['golden']}"]
        elif "suite" in spec:
            problems = checks.check_verify_op(spec, code, out, self.golden)
        elif "census" in spec:
            census = spec["census"]
            rows = op["work"]
            problems = [] if code == 0 else [f"exit {code}"]
            if out != f"wrote {rows} rows to {census['out']}\n":
                problems.append(f"stdout {out[:100]!r}")
            if not problems:
                text = Path(census["out"]).read_text(encoding="utf-8")
                problems += checks.check_census_file(census, text)
                problems += self.same_as_before(op["key"] + ":file", text)
        else:
            problems = checks.check_expr_op(spec, code, out)
        return problems + self.same_as_before(op["key"], f"{code}\n{out}")

    def run_op(self, index, op, traced):
        spans = self.work / f"spans-{index}.json"
        prefix = [PY, DRIVER, "--trace", str(spans), "--op", str(index)] if traced else [PY, DRIVER]
        if op["kind"] == "cli":
            cmd = prefix + ["cli"] + op["argv"] if traced else [PY, "-m", "multisecant.cli"] + op["argv"]
            code, out, err, wall = self.runner.run(cmd, traced)
            problems = self.check_cli(op, code, out)
            seconds = wall
        else:  # reingest
            census = op["spec"]["census"]
            code, out, err, wall = self.runner.run(prefix + ["reingest", census["out"], census["format"]], traced)
            try:
                result = json.loads(out.splitlines()[-1])
                seconds = result["seconds"]
                problems = [] if code == 0 else [f"exit {code}"]
                if result["rows"] != op["work"] or result["problems"]:
                    problems.append(f"reingest: {result['rows']} rows, problems {result['problems']}")
            except (ValueError, IndexError, KeyError):
                seconds, problems = wall, [f"reingest exit {code}: {err[-200:]!r}"]
        if traced:
            if spans.exists():
                spans_info = read_spans(spans)
                spans.unlink()
                if op["kind"] == "cli":
                    seconds -= spans_info["dump_s"]
                self.add_spans(spans_info)
                if spans_info["broken"]:
                    problems.append("a traced span was left open")
                root = next(r for r in spans_info["roots"] if r["name"] == "driver.op")
                problems += self.integrity(root["self_s"], wall - spans_info["dump_s"])
                if "suite" in op["spec"]:
                    problems += checks.check_suite_calls(op["spec"], spans_info["calls"])
            else:
                problems.append("traced op wrote no spans")
            self.traced_samples[op["key"]].append(seconds)
        else:
            self.samples[op["key"]].append(seconds)
            if op["kind"] == "cli":
                self.raw.append(seconds)
        self.record(op, problems)

    def integrity(self, self_s, wall_s):
        self.wall_gaps.append(wall_s - self_s)
        return checks.wall_problems(self_s, wall_s)

    def add_spans(self, info):
        for key in ("self_ns", "calls", "counts"):
            for name, value in info[key].items():
                self.layer[key][name] += value
        for name, value in info["maxima"].items():
            self.layer["maxima"][name] = max(self.layer["maxima"][name], value)
        self.layer["broken"] += len(info["broken"])
        self.layer["roots"] += len(info["roots"])

    def time_left(self):
        return time.perf_counter() < self.hard_deadline

    def run_cli_workload(self):
        """Rounds of the op list until the time is up, at least one.  An
        untraced run may stop mid-round; a traced run, which pairs every op
        with its traced replay, stops only between rounds."""
        deadline = time.perf_counter() + self.seconds
        while self.time_left():
            round_start = time.perf_counter()
            for index, op in enumerate(self.ops):
                if not self.time_left() or (self.rounds and not self.trace and time.perf_counter() >= deadline):
                    return
                if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
                    self.probe()
                self.run_op(index, op, traced=False)
                if self.trace:
                    self.run_op(index, op, traced=True)
            self.rounds += 1
            last_round = time.perf_counter() - round_start
            if time.perf_counter() + (last_round if self.trace else 0) >= deadline:
                return

    def run_oracle(self):
        cases = [op["spec"]["case"] for op in self.ops]
        cases_path = self.work / "cases.json"
        cases_path.write_text(json.dumps(cases))
        spans = self.work / "spans-oracle.json"
        deadline = time.perf_counter() + self.seconds
        while True:
            self.probe(ORACLE_PROBES)
            if self.trace:  # one round, every case untraced and then traced
                cmd = [PY, DRIVER, "--trace", str(spans), "oracle", str(cases_path), "0"]
            else:
                chunk = min(ORACLE_CHUNK_S, max(deadline - time.perf_counter(), 0))
                cmd = [PY, DRIVER, "oracle", str(cases_path), str(chunk)]
            if not self.run_oracle_child(cmd, spans) or self.trace or time.perf_counter() >= deadline:
                break
        self.probe(ORACLE_PROBES)
        self.rounds = min(len(v) for v in self.samples.values()) if self.samples else 0

    def run_oracle_child(self, cmd, spans):
        """Run one oracle driver child and check its cases; False if it failed."""
        code, out, err, wall = self.runner.run(cmd)
        try:
            results = json.loads(out.splitlines()[-1])["results"]
        except (ValueError, IndexError, KeyError):
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"oracle driver exit {code}: {err[-300:]!r}")
            return False
        info = read_spans(spans) if self.trace and spans.exists() else None
        case_self = {r["op"]: r["self_s"] for r in info["roots"] if r["name"] == "driver.case"} if info else {}
        for res in results:
            op = self.ops[res["case"]]
            problems = checks.check_oracle_case(op["spec"]["case"], res)
            if code != 0:
                problems.append(f"driver exit {code}")
            if res["mode"] == "traced":
                if res["case"] in case_self:
                    problems += self.integrity(case_self[res["case"]], res["seconds"])
                else:
                    problems.append("traced case has no span")
            self.oracle_terms[op["key"]] = res["terms"]
            (self.traced_samples if res["mode"] == "traced" else self.samples)[op["key"]].append(res["seconds"])
            self.record(op, problems)
        if self.trace:
            if info:
                self.add_spans(info)
                if info["broken"]:
                    self.failed += 1
                    self.problems.append("a traced span was left open")
            else:
                self.failed += 1
                self.problems.append("oracle driver wrote no spans")
        return code == 0

    def run(self):
        missed = checks.self_test(self.golden)
        if self.name == "oracle":
            self.run_oracle()
        else:
            self.probe(FIRST_PROBES)
            self.run_cli_workload()
        return missed

    # -- metrics
    def medians(self, keys):
        return [median(self.samples[k]) for k in keys if self.samples[k]]

    def end_to_end(self):
        return {
            "setup_s": median(self.setup),
            "work_per_s": self.rate(self.ops),
            "peak_rss_mb": self.runner.peak_rss_kb / 1024,
        }

    def rate(self, ops):
        """Work of one round over the sum of its op-type mean times, so that
        the rate does not depend on where in a round the time ran out.
        Means, not medians: the machine's speed drifts in phases of seconds,
        and a mean over the whole run averages them where a median of a few
        samples lands in one (perfbench/README.md compares the two)."""
        ops = [op for op in ops if self.samples[op["key"]]]
        means = [statistics.mean(self.samples[op["key"]]) for op in ops]
        return sum(op["work"] for op in ops) / sum(means) if ops else float("nan")

    def named(self, e2e):
        """The workload's metrics under the names the README table uses."""
        out = {"setup_s": (e2e["setup_s"], "s")}
        if self.name == "oneshot":
            out["oneshot_p50_ms"] = (1000 * median(self.medians(op["key"] for op in self.ops)), "ms")
            pct, value, beyond = tail(self.raw)
            out["oneshot_tail_ms"] = (1000 * value, "ms")
            out["oneshot_tail_percentile"] = (pct, "percentile")
            out["oneshot_tail_beyond"] = (beyond, "count")
            out["oneshot_invocations"] = (len(self.raw), "count")
        elif self.name == "census":
            for fmt_name in ("csv", "json"):
                out[f"census_{fmt_name}_rows_per_s"] = (
                    self.rate([op for op in self.ops if op["key"].endswith(f":{fmt_name}")]), "rows/s")
            out["reingest_rows_per_s"] = (self.rate([op for op in self.ops if op["kind"] == "reingest"]), "rows/s")
        elif self.name == "verify":
            out["verify_checks_per_s"] = (e2e["work_per_s"], "checks/s")
        else:
            out["oracle_cases_per_s"] = (e2e["work_per_s"], "cases/s")
        out["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
        out["failed_op_ratio"] = (self.failed / max(self.attempted, 1), "ratio")
        return out

    def per_layer(self):
        rounds = max(self.rounds, 1)
        layer = self.layer
        metrics = {}
        for name, spans in LAYER_TIMES.items():
            metrics[name] = sum(layer["self_ns"][s] for s in spans) / 1e9 / rounds
        for module in MODULES:
            metrics[f"{module}.self_s"] = sum(v for s, v in layer["self_ns"].items()
                                              if s.split(".")[0] == module) / 1e9 / rounds
        for name, span in LAYER_CALLS.items():
            metrics[name] = layer["calls"][span] / rounds
        for name in LAYER_COUNTS:
            metrics[name] = layer["counts"][name] / rounds
        pairs = layer["counts"]["fiberring.mul_term_pairs"]
        metrics["fiberring.mul_yield"] = layer["counts"]["fiberring.mul_result_terms"] / pairs if pairs else 0.0
        metrics["fiberring.max_terms"] = layer["maxima"]["fiberring.max_terms"]
        metrics["verify.checks"] = sum(op["work"] for op in self.ops) if self.name == "verify" else 0
        metrics["cli.import_s"] = median(self.setup) - median(self.bare)
        plain = sum(sum(self.samples[k][: len(v)]) for k, v in self.traced_samples.items())
        traced = sum(sum(v) for v in self.traced_samples.values())
        metrics["trace.overhead_ratio"] = traced / plain if plain else float("nan")
        return metrics

    def environment(self):
        return {
            "bare_start_median_s": median(self.bare), "bare_starts": len(self.bare),
            "python": platform.python_version(), "platform": platform.platform(), "nproc": os.cpu_count(),
            "commit": commit(self.root), "src_sha256": source_digest(self.root), "seed": self.seed,
        }


def tail(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = (50, median(ordered), len(ordered) // 2)
    for pct in (75, 90, 95, 99):
        index = int(len(ordered) * pct / 100)
        beyond = len(ordered) - index - 1
        if beyond >= 10:
            best = (pct, ordered[index], beyond)
    return best


def commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_one(root, work, name, seed, seconds, trace, hard_deadline):
    bench = Bench(root, work, name, seed, seconds, trace, hard_deadline)
    try:
        missed = bench.run()
    finally:
        bench.runner.close()
    env = bench.environment()
    e2e = bench.end_to_end()
    named = bench.named(e2e)
    print(f"perfbench {name}: seed {seed}, {seconds:g} s, trace {int(trace)}, {bench.rounds} round(s), "
          f"{bench.attempted} ops, {bench.failed} failed")
    for metric, (value, unit) in named.items():
        print(f"  {metric:<24} {value:>14.6g} {unit}")
    if bench.oracle_terms:
        print("  monomials per case: " + ", ".join(f"{k}={v}" for k, v in sorted(bench.oracle_terms.items())))
    print("  drift record: " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                        for k, v in env.items()))
    for line in missed:
        print(f"  SELF-TEST FAILED: {line}")
    for line in bench.problems[:20]:
        print(f"  FAILED {line}")
    layers = bench.per_layer() if trace else {}
    if trace:
        ranked = sorted(((v, m) for m, v in layers.items() if m.endswith(".self_s") and m.count(".") == 1),
                        reverse=True)
        print("  layer self time per round: " + ", ".join(f"{m[:-7]}={v:.4g}s" for v, m in ranked if v))
        gaps = sorted(bench.wall_gaps)
        print(f"  traced ops: {bench.layer['roots']} root spans, {bench.layer['broken']} left open; "
              f"traced wall minus summed self times per op: min {gaps[0] if gaps else 0:.4f} s, "
              f"median {median(gaps):.4f} s, max {gaps[-1] if gaps else 0:.4f} s")
    result = {
        "workload": name, "correct": not missed and bench.failed == 0,
        "attempted": bench.attempted, "failed": bench.failed, "end_to_end": e2e,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}, "per_layer": layers,
        "environment": env,
        "oracle_terms": bench.oracle_terms, "samples": bench.samples, "bare": bench.bare, "setup": bench.setup,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S * (4 if args.workload == "all" else 1)
    root = Path.cwd()
    if not (root / "src" / "multisecant" / "cli.py").is_file() or not (root / "tests" / "golden").is_dir():
        print("perfbench: run from the root of a multisecant checkout (src/multisecant, tests/golden)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_one(root, work, name, args.seed, args.seconds, bool(args.trace), hard_deadline)
                   for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all" and args.trace:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["per_layer"].items()}
    elif args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["named"].items()}
    else:
        spec = per_layer_spec() if args.trace else END_TO_END
        values = results[0]["per_layer" if args.trace else "end_to_end"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
