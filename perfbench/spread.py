"""Run the benchmark on several seeds and report how far its metrics spread.

    python3 perfbench/spread.py --workload census --runs 10 [--trace 1]

Run from the root of a checkout.  Seeds run from 1 upward.  For every
end-to-end metric it prints the median, the distance between the first
and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``) and the metric's bound from
BENCHMARK.json; with two runs it prints their relative difference
instead.  It exits with 1 if a run fails or any spread, ``setup_s``
included, exceeds its bound.  With ``--trace 1`` every run uses seed 1
and it prints the layer self-time ranking of each run and any pair of
layers that two runs order oppositely although each run has them more
than 1.2x apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLOSE = 1.2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        runs = []
        # traced runs repeat one seed, so that their rankings compare the same ops
        seeds = [1] * args.runs if args.trace else range(1, 1 + args.runs)
        for seed in seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            last = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()[-1]
            result = json.loads(last)
            ok &= result["correct"] and result["failed"] == 0
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        if args.trace:
            times = [{m: run[f"{m}.self_s"] for m in MODULES if run[f"{m}.self_s"] > 0} for run in runs]
            for t in times:
                print("  ranking: " + " > ".join(sorted(t, key=t.get, reverse=True)))
            # a swap counts only between layers that differ by more than CLOSE in both runs
            swaps = {(a, b) for t in times for u in times for a in t for b in t
                     if a in u and b in u and t[a] > CLOSE * t[b] and u[b] > CLOSE * u[a]}
            print(f"  rankings identical: {len(set(tuple(sorted(t, key=t.get)) for t in times)) == 1}; "
                  f"swaps between layers more than {CLOSE:g}x apart: {sorted(swaps) or 'none'}")
            ok &= not swaps
            continue
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            mid = statistics.median(values)
            if len(values) == 2:
                spread = abs(values[1] - values[0]) / values[0]
                label = "relative difference"
            else:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / mid
                label = "IQR/median"
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            ok &= spread <= bound
            print(f"  {name:<12} median {mid:12.6g}  {label} {spread:7.4f}  bound {bound}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
