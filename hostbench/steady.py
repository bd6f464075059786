#!/usr/bin/env python3
"""Steadiness check: runs each workload in fresh pinned processes.

    python3 hostbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--seconds S] [--out FILE]

Each run is one `run.py --trace 0` process with its own seed. For every
end-to-end metric the tool prints the median, the quartiles (as Python's
`statistics.quantiles(values, n=4)` gives them), the spread (quartile
distance over the median) and max/min, and flags a metric whose spread
exceeds its bound in BENCHMARK.json. Exits 1 if any metric was flagged or
any run failed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """(median, q1, q3, spread, max/min) of a list of numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    lo = min(values)
    ratio = max(values) / lo if lo else float("inf")
    return med, q1, q3, spread, ratio


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="also append the tables to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines, bad = [], False
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"steady.py: {w} seed {seed} exited with {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            bad |= not result["correct"]
            runs.append(result["metrics"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())),
                file=sys.stderr)
        lines.append(f"### {w}: {args.runs} runs, seeds {args.first_seed}.."
                     f"{args.first_seed + args.runs - 1}, {args.seconds} s each\n")
        lines.append("| metric | median | q1 | q3 | spread | bound | max/min | flag |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            med, q1, q3, spread, ratio = summarize([r[name]["value"] for r in runs])
            over = spread > bound
            bad |= over
            flag = "OVER" if over else ("below 1/3" if spread < bound / 3 else "ok")
            lines.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                         f"{bound} | {ratio:.4f} | {flag} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "a") as f:
            f.write(text + "\n")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
