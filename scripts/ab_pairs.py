#!/usr/bin/env python3
"""Run alternating perfbench pairs on two checkouts and judge the gain.

    python3 scripts/ab_pairs.py --base ../parent --head . \\
        --workload train-eval --seeds 21-30 --pairs 10

Each pair runs `perfbench/run.py` once in each checkout on the same seed
(pair i takes the i-th seed of the list, cycling); the side that runs first
alternates from pair to pair, starting with the base. Every run uses the
checkout's own perfbench/, so both sides measure with the code they ship,
and lasts the base's BENCHMARK.json `run_seconds`. With --target-root, each
side builds into <target-root>/base or <target-root>/head ($CARGO_TARGET_DIR
for run.py); otherwise into the checkout's .bench_build/.

For every end-to-end metric of BENCHMARK.json (the per-layer ones with
--trace 1, leaving out those the workload never measures, which read 0
on every run) it prints each side's median and quartiles, the change of the
median, the pairs the head won (ties count for neither side), and whether
the gain is resolved: the head wins at least nine tenths of the pairs and
its median beats the base's by more than the distance between the base's
quartiles. A metric whose median moved the wrong way by more than its
BENCHMARK.json bound is flagged as a regression. A metric whose base
quartile distance, relative to the base median, is wider than its bound
cannot tell a change from noise and reads "unresolved", unless the gain is
resolved or every head run beats every base run. A run that fails, or
reports "correct": false, stops the script with exit code 1.

Only perfbench's printed results are read; perfbench/ itself is untouched.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'21-30' or '3,5,8' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def load_spec(checkout, traced):
    """(metric entries, run seconds) from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if traced else "end_to_end"], spec["run_seconds"]


def run_once(checkout, target, args, seconds, seed):
    """One perfbench run; returns {metric: value}."""
    env = dict(os.environ)
    if target:
        env["CARGO_TARGET_DIR"] = target
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"ab_pairs: {checkout} seed {seed}: no result "
                 f"(exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct", False):
        sys.exit(f"ab_pairs: {checkout} seed {seed}: run failed "
                 f"(exit {proc.returncode}): {lines[-1]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(spec_entry, base, head):
    """One row of the report for a metric measured on every pair."""
    higher = spec_entry.get("better", "lower") == "higher"
    sign = 1.0 if higher else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, bm, b3 = quartiles(base)
    _, hm, _ = quartiles(head)
    gain = sign * (hm - bm)
    resolved = wins * 10 >= 9 * len(base) and gain > (b3 - b1)
    change = (hm - bm) / bm if bm else float("nan")
    bound = spec_entry.get("bound")
    regressed = bound is not None and bm and -sign * change > bound
    # The base's own spread is wider than the bound: unless the gain is
    # resolved or the two sides do not overlap, the runs cannot show a move
    # of that size either way.
    separated = all(sign * (h - b) > 0 for h in head for b in base)
    unresolved = (bound is not None and bm and (b3 - b1) / abs(bm) > bound
                  and not resolved and not separated)
    return {"metric": spec_entry["name"], "unit": spec_entry.get("unit", ""),
            "better": "higher" if higher else "lower",
            "base": quartiles(base), "head": quartiles(head),
            "change": change, "wins": wins, "pairs": len(base),
            "resolved": resolved, "regressed": bool(regressed),
            "unresolved": bool(unresolved)}


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 21-30 or 3,5,8")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--target-root",
                        help="build each side under <dir>/base, <dir>/head")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    targets = {side: os.path.join(os.path.abspath(args.target_root), side)
               if args.target_root else None for side in sides}
    spec, seconds = load_spec(sides["base"], args.trace == 1)
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_once(sides[side], targets[side], args,
                                        seconds, seed))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first) "
              "done", file=sys.stderr, flush=True)

    report = []
    for entry in spec:
        name = entry["name"]
        values = [r.get(name) for r in runs["base"] + runs["head"]]
        # A layer the workload never calls reports 0 on every run.
        if None not in values and any(values):
            report.append(judge(entry, [r[name] for r in runs["base"]],
                                [r[name] for r in runs["head"]]))
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seeds[0]}"
          f"..{args.seeds[-1]}, {seconds} s runs, trace {args.trace}")
    print("| metric | better | base median [Q1-Q3] | head median [Q1-Q3] "
          "| change | head wins | gain resolved |")
    print("|---|---|---|---|---|---|---|")
    for row in report:
        if row["unresolved"]:
            flag = "unresolved"
        else:
            flag = "yes" if row["resolved"] else "no"
        if row["regressed"]:
            flag += " (past bound)"
        print(f"| {row['metric']} ({row['unit']}) | {row['better']} | "
              f"{fmt(row['base'])} | {fmt(row['head'])} | "
              f"{100 * row['change']:+.1f}% | {row['wins']}/{row['pairs']} | "
              f"{flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
