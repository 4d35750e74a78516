#!/usr/bin/env python3
"""Build and run one DiagNet benchmark workload.

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 25 \
        --trace 0

Run from the root of a source checkout. Every call configures and builds
perfbench/ (the driver plus the DiagNet libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the first
call compiles everything, later ones rebuild what changed. The driver's
scratch files go under the same directory and are removed when the run ends;
a traced run (--trace 1) leaves its Chrome trace in .bench_build/traces/.

The last line of stdout is the driver's JSON result. The exit code is the
driver's: non-zero when a correctness check failed, and also when the build
fails or the result does not list exactly the metrics BENCHMARK.json names,
in which case no result is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-open", "train-eval", "simulate-stream")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configure and build the driver; returns its path or None."""
    steps = [["cmake", "-S", source_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(min(os.cpu_count() or 1, 4))]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(root, traced):
    """Metric names BENCHMARK.json asks for in this kind of run, or None."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    out_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    binary = build(source_dir, build_dir)
    if binary is None:
        return 3

    work_dir = os.path.join(out_root, "work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(out_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 5
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        log(f"driver exited {proc.returncode} without a result")
        return proc.returncode or 4
    want = expected_metrics(root, args.trace == 1)
    if want is not None and names != want:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - names)}, extra {sorted(names - want)}")
        return 4
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
