#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is the Rust package in
perfbench/ (built in release mode into $CARGO_TARGET_DIR, default
.bench_build). Its last line of standard output is the result, which this
script re-prints only after checking that the metric names and units are
exactly the ones BENCHMARK.json declares for the mode. Progress and
diagnostics go to standard error.

--selftest checks BENCHMARK.json against the binary's own declarations
(--list), both ways: every declared workload and metric is produced, and
every produced one is declared.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target, "release", "microlib-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def declared():
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")
    return spec


def pairs(metrics):
    return {(m["name"], m["unit"]) for m in metrics}


def selftest(binary):
    spec = declared()
    done = subprocess.run([binary, "--list"], capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        fail(f"--list exited with {done.returncode}: {done.stderr.strip()}")
    listed = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    spec_workloads = [w["name"] for w in spec["workloads"]]
    for label, ours, theirs in [
        ("workload", set(spec_workloads), set(listed["workloads"])),
        ("end-to-end metric", pairs(spec["end_to_end"]), pairs(listed["end_to_end"])),
        ("per-layer metric", pairs(spec["per_layer"]), pairs(listed["per_layer"])),
    ]:
        for missing in sorted(ours - theirs):
            problems.append(f"{label} {missing} is declared but never produced")
        for stray in sorted(theirs - ours):
            problems.append(f"{label} {stray} is produced but not declared")
    if problems:
        fail("self-test failed:\n  " + "\n  ".join(problems))
    print(f"self-test passed: {len(spec_workloads)} workloads, "
          f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics")


def run(binary, args):
    spec = declared()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload!r} is not declared in BENCHMARK.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within 175 s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"the benchmark exited with {done.returncode}")
    for line in done.stderr.splitlines():
        if line.startswith("CHECK FAILED") or "sweeps, walls" in line \
                or line.startswith("serve_mixed:"):
            print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the last line is not JSON: {lines[-1][:200]}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = pairs(spec["per_layer"] if args.trace else spec["end_to_end"])
    got = {(name, m.get("unit")) for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"undeclared {sorted(got - want)}")
    print(json.dumps(result, separators=(",", ":")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        selftest(binary)
    else:
        run(binary, args)


if __name__ == "__main__":
    main()
