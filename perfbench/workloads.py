"""Seeded op lists, one per workload.

A workload is a round of ops that the benchmark repeats, in a closed loop
with one client, until its time is up.  Every op carries what its check
needs and the work it stands for, so rates do not depend on how many
rounds fit in a run.  The seed picks the generated inputs; it never
changes an op's cost class.
"""

from __future__ import annotations

import random

from checks import Expected, census_inputs, expected_values, render, suite_checks, top_twisted

SUITES = ("recursion-oracle", "trisecant-identity", "lemma51", "cterm", "bterm-experiment")

# the README examples that have a golden file
GOLDEN_ARGV = [
    ("chern_ci22_p4.txt", ["chern", "--n", "4", "O(2)+O(2)"]),
    ("secants_ci22_p3_j1.txt", ["secants", "--n", "3", "--j", "1", "O(2)+O(2)"]),
    ("trisecant_n144_p8.txt", ["trisecant", "--n", "8", "N{r=2,c=[1,4,4]}"]),
    ("normality_ci33_p18_j2.txt", ["normality", "--n", "18", "--j", "2", "O(3)+O(3)"]),
    ("normality_json_n169_p18_j2.txt",
     ["normality", "--n", "18", "--j", "2", "N{r=2,c=[1,6,9]}", "--format", "json"]),
    ("segre_n144_p4_k2.txt", ["segre", "--n", "4", "--k", "2", "N{r=2,c=[1,4,4]}"]),
    ("verify_lemma51.txt", ["verify", "--suite", "lemma51", "--trials", "1", "--seed", "0"]),
]

# malformed expressions: each is a parse error (exit 1)
MALFORMED = ["O(2)+", "O(x)", "Q(3)", "(O(1)@(2)", "N{r=2,c=[1,4]}", "N{r=2,c=[2,4,4]}", "O(1)+N{r=1,c=[1,2]}"]

GENERATED_PER_ROUND = 24
ERROR_SHARE = 0.1


def _op(key, kind, argv=None, work=1, **spec):
    return {"key": key, "kind": kind, "argv": argv, "work": work, "spec": spec}


def _expr(rng, n, depth=0):
    roll = rng.random()
    if roll < 0.35 or depth >= 2:
        return ("O", rng.randint(-3, 6))
    if roll < 0.45:
        return ("T",)
    if roll < 0.75:
        return ("sum", [_expr(rng, n, depth + 1) for _ in range(rng.randint(2, 3))])
    return ("twist", _expr(rng, n, depth + 1), rng.randint(-3, 3))


def _normal(rng):
    r = rng.randint(1, 3)
    c = [1] + [rng.randint(-6, 9) for _ in range(r)]
    d = c[-1] + rng.choice([1, -1]) if rng.random() < 0.15 else None
    return ("N", r, c, d)


def _spec(rng, want_error):
    """One expression subcommand; when ``want_error`` the model must predict
    exit 1 or 2, otherwise exit 0."""
    while True:
        n = rng.randint(2, 30)
        cmd = rng.choice(["chern", "secants", "trisecant", "normality", "normality-json", "segre"])
        opts = {}
        if want_error and rng.random() < 0.4:
            expr = ("raw", rng.choice(MALFORMED))
        elif cmd in ("trisecant", "segre") or rng.random() < 0.3:
            expr = _normal(rng) if rng.random() < 0.7 else ("twist", _normal(rng), rng.randint(-2, 2))
        else:
            expr = _expr(rng, n)
        argv = [cmd.split("-")[0], "--n", str(n)]
        if cmd == "secants":
            opts["j"] = rng.randint(1, 4)
        elif cmd.startswith("normality"):
            opts["j"] = rng.randint(1, 3)
        elif cmd == "segre":
            opts["k"] = rng.randint(0, n + 2) if want_error else rng.randint(0, n)
        for key, value in opts.items():
            argv += [f"--{key}", str(value)]
        argv.append(render(expr))
        if cmd == "normality-json":
            opts["format"] = "json"
            argv += ["--format", "json"]
        try:
            expected_values(cmd.split("-")[0], n, expr, opts)
            is_error = False
        except Expected:
            is_error = True
        if is_error == want_error:
            return argv, {"cmd": cmd.split("-")[0], "n": n, "expr": expr, "opts": opts}


def oneshot(seed: int):
    """The golden argv plus seeded argv of the same subcommands, one fresh
    process each; about one generated argv in ten must fail cleanly."""
    rng = random.Random(seed)
    ops = [_op(f"golden:{name}", "cli", argv, golden=name) for name, argv in GOLDEN_ARGV]
    for i in range(GENERATED_PER_ROUND):
        if i % 8 == 7:
            suite = rng.choice([s for s in SUITES if s != "lemma51"])
            trials = rng.randint(5, 20)
            argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(rng.randint(0, 999))]
            ops.append(_op(f"gen:{i}", "cli", argv, suite=suite, trials=trials, seed=int(argv[-1])))
            continue
        argv, spec = _spec(rng, rng.random() < ERROR_SHARE / (7 / 8))
        ops.append(_op(f"gen:{i}", "cli", argv, **spec))
    rng.shuffle(ops)
    return ops


# Census sweeps: (name, r, degree range, n range, j).  The ROADMAP grid is
# fixed; the other two move their degree window with the seed, which
# changes integer sizes but not the row count or polynomial lengths.
def census(seed: int):
    """Each sweep written as CSV and as JSON, each file read back in-process.
    The round goes phase by phase (CSV writes, CSV read-backs, JSON writes,
    JSON read-backs), so the long grid ops are spread over the round rather
    than run back to back in whatever state the machine is in."""
    rng = random.Random(seed)
    lo1, lo3 = rng.randint(1, 4), rng.randint(1, 3)
    sweeps = [
        ("grid", 2, (1, 20), (3, 60), 2),
        ("longpoly", 1, (lo1, lo1 + 9), (4, 201), 6),
        ("r3", 3, (lo3, lo3 + 5), (4, 40), 1),
    ]
    ops = []
    for fmt_name in rng.sample(["csv", "json"], 2):
        writes, reads = [], []
        for name, r, degrees, ns, j in rng.sample(sweeps, len(sweeps)):
            out = f"census-{name}.{fmt_name}"
            argv = ["census", "--r", str(r), "--degrees", f"{degrees[0]}..{degrees[1]}",
                    "--n", f"{ns[0]}..{ns[1]}", "--j", str(j), "--out", out, "--format", fmt_name]
            spec = {"r": r, "degrees": degrees, "n": ns, "j": j, "format": fmt_name, "out": out}
            rows = len(census_inputs(r, degrees, ns))
            writes.append(_op(f"{name}:{fmt_name}", "cli", argv, work=rows, census=spec))
            reads.append(_op(f"{name}:reingest-{fmt_name}", "reingest", work=rows, census=spec))
        ops += writes + reads
    return ops


# Trial counts above the defaults, so that each suite does measurable work.
VERIFY_TRIALS = {"recursion-oracle": 4000, "trisecant-identity": 15000, "lemma51": 0,
                 "cterm": 10000, "bterm-experiment": 1500}


def verify(seed: int):
    """One `verify` invocation per suite, all five suites."""
    rng = random.Random(seed)
    ops = []
    for suite in rng.sample(SUITES, len(SUITES)):
        trials = VERIFY_TRIALS[suite]
        argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed)]
        ops.append(_op(suite, "cli", argv, work=suite_checks(suite, trials),
                       suite=suite, trials=trials, seed=seed))
    return ops


# (n, r, k): n is above (k+1)r, so every class keeps all 2^(k+1) monomials.
# No r = 3, k = 12 case: at 3 s it would be two thirds of a round, leaving
# too few rounds in a run for a steady median.
ORACLE_SHAPES = [(20, 1, 8), (30, 2, 8), (40, 3, 8), (24, 1, 10), (30, 2, 10),
                 (40, 3, 10), (24, 1, 12), (30, 2, 12)]


def oracle(seed: int):
    """Large-ring oracle cases.  Chern data is redrawn until no c_i and no
    factor c_r(E(-i)), i <= k, vanishes, so a case's ring size and cost
    depend on (n, r, k) and not on the seed."""
    rng = random.Random(seed)
    ops = []
    for n, r, k in ORACLE_SHAPES:
        while True:
            c = [1] + [rng.choice([x for x in range(-9, 10) if x]) for _ in range(r)]
            if all(top_twisted(r, c, -i) for i in range(k + 1)):
                break
        ops.append(_op(f"n{n}-r{r}-k{k}", "oracle", case={"n": n, "r": r, "k": k, "c": c}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"oneshot": oneshot, "census": census, "verify": verify, "oracle": oracle}
