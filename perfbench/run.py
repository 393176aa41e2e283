#!/usr/bin/env python3
"""Run one workload of the xqa repository benchmark.

    python3 perfbench/run.py --workload section6|ingest-scan|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark package
(perfbench/Cargo.toml, release profile, offline) into $CARGO_TARGET_DIR
(default: .bench_build), generates the workload's inputs from the seed in
a separate process, then runs the measured process: `perfbench` for the
end-to-end metrics (--trace 0) or `perfbench-traced` for the per-layer
metrics (--trace 1). The measured process prints a report and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics; this script passes its output through. Inputs, run records and
span files are written under <target dir>/perfbench/.

Exits non-zero, without a result line, when the build, the generator or
the run fails or runs out of time.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("section6", "ingest-scan", "serve-mix")
# The first run in a fresh checkout compiles the whole engine.
BUILD_TIMEOUT_S = 840
# Every run must finish within 180 s; keep a margin for start-up.
RUN_DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.seed < 0:
        fail("--seed must not be negative")

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("run from the repository root (perfbench/Cargo.toml not found)")
    target = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    started = time.monotonic()
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench")
    inputs = os.path.join(work, "inputs", f"{args.workload}-{args.seed}")
    os.makedirs(os.path.join(work, "records"), exist_ok=True)

    # Inputs depend only on workload and seed; a complete set is reused.
    if not os.path.exists(os.path.join(inputs, "done")):
        try:
            gen = subprocess.run(
                [binary, "gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", inputs],
                stdout=sys.stderr,
                timeout=RUN_DEADLINE_S,
            )
        except subprocess.TimeoutExpired:
            fail("input generation exceeded its time limit")
        if gen.returncode != 0:
            fail(f"input generation failed (exit {gen.returncode})")

    stem = os.path.join(work, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [
        binary + ("-traced" if args.trace else ""),
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--dir", inputs,
        "--seconds", str(args.seconds),
        "--record", stem + ".json",
    ]
    if args.trace:
        command += ["--spans", stem + "-spans.json"]
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail(f"run failed (exit {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
