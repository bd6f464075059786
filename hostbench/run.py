#!/usr/bin/env python3
"""Builds the `hostbench` binary from the checkout and runs one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built with cargo (offline,
release) into `$CARGO_TARGET_DIR` (default `.bench_build`): once plain for
the end-to-end run and once with the counting allocator (`--features prof`)
for the traced run. The measured process is pinned to one CPU. The traced
run also executes the workload once unpinned and adds the slowdown as
`sim.proc.unpinned_x`. The last line of standard output is the result
object; the exit code is 0 only when a result was printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Generous per-step limits; the whole run must end within 180 s once built.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, cpus=None, timeout=RUN_TIMEOUT_S, capture=True):
    """Runs `cmd` to completion (on `cpus`, if given); returns its stdout."""
    pre = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        preexec_fn=pre,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:3])} ... exited with {proc.returncode}")
    return out or ""


def build(target, prof):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if prof:
        cmd += ["--features", "prof"]
    run_child(cmd, timeout=BUILD_TIMEOUT_S, capture=False)
    return os.path.join(target, "release", "ncp2-hostbench")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("the benchmark printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    # Both variants are built up front, so only the first run pays for it.
    plain = build(os.path.join(target, "plain"), prof=False)
    counted = build(os.path.join(target, "prof"), prof=True)
    work = os.path.join(target, f"work-{os.getpid()}")
    # The last allowed CPU: CPU 0 takes more of the host's device interrupts.
    cpu = {max(os.sched_getaffinity(0))}
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--work-dir", work]
    try:
        if args.trace == "0":
            result = last_json(run_child([plain, *common, "--trace", "0"], cpus=cpu))
            wanted = [m["name"] for m in spec["end_to_end"]]
        else:
            unpinned = last_json(run_child(
                [counted, *common, "--trace", "0", "--iterations", "1"],
                cpus=os.sched_getaffinity(0)))
            result = last_json(run_child([counted, *common, "--trace", "1"], cpus=cpu))
            base = result["metrics"]["trace.untraced_wall_s"]["value"]
            result["metrics"]["sim.proc.unpinned_x"] = {
                "value": unpinned["metrics"]["wall_s"]["value"] / base,
                "unit": "x",
            }
            wanted = [m["name"] for m in spec["per_layer"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = sorted(set(wanted) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(wanted))
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
