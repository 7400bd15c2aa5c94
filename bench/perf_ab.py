#!/usr/bin/env python3
"""Perf gate: the repository benchmark at the merge base against the head.

Runs each checkout's own perfbench/run.py on every BENCHMARK.json workload
in alternating pairs, then fails when a head median is worse than the base
median by more than that metric's bound, when the head's share of failed
operations rises, or when a head output is wrong.

  python3 bench/perf_ab.py --base BASE_CHECKOUT --head HEAD_CHECKOUT \\
      --out perf_ab.json

Prints one row per (workload, metric) and writes the same table as JSON to
--out. A row is `unresolved` when the base's own spread (IQR/median)
exceeds the bound; a breach still fails it. Each row also carries every
pair's base and head values and `head_wins`, the pairs whose head value is
better (a tie counts for neither side), so a claimed gain (the head wins 9
of 10 pairs and its median beats the base's by more than the base's
q25-q75 spread) reads off the same runs. Exit codes: 0 pass, 1 the head
fails the gate, 2 a base run was wrong or gave no result, so there is
nothing to judge against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Eight 5-second runs per workload (seed 1, --trace 0) read IQR/median
# 0.10-0.16 on every end-to-end metric, 0.22 on corpus_fanout setup_s: all
# inside the 0.25 bounds. One run takes ~7.5 s of wall time, so 10 pairs x
# 3 workloads x 2 sides is ~8 minutes plus the two builds.
PAIRS = 10
SECONDS = 5
SEED = 1
# A run builds its checkout's perfbench first when it is stale; a cold
# build takes ~45 s.
RUN_TIMEOUT_S = 1200


def run_once(checkout, workload):
    """One perfbench run in `checkout`; its parsed result, or None."""
    env = dict(os.environ)
    # With CARGO_TARGET_DIR unset each checkout builds into its own
    # .bench_build/. An absolute value would make both sides share one
    # build tree, and run.py configures only when it finds no
    # CMakeCache.txt, so the second side would run the first side's build.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def metric_values(runs, name):
    """The metric's value in every run, or None when a run lacks it."""
    values = []
    for run in runs:
        entry = run["metrics"].get(name)
        if not isinstance(entry, dict) or not isinstance(
                entry.get("value"), (int, float)):
            return None
        values.append(float(entry["value"]))
    return values


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(spec, base, head):
    """The gate's verdict; pure, so tests can call it on synthetic runs.

    `spec` is BENCHMARK.json. `base` and `head` map each workload name to
    the list of its runs' parsed results (the last stdout line of
    perfbench/run.py: correct, attempted, failed, metrics); a run that gave
    no result is None. Returns (exit code, report) with the codes of the
    module docstring.
    """
    rows, problems = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs, head_runs = base[workload], head[workload]
        if any(run is None or not run["correct"] for run in base_runs):
            return 2, {"verdict": "no baseline", "rows": rows, "problems": [
                f"{workload}: a base run was wrong or gave no result"]}
        if any(run is None for run in head_runs):
            problems.append(f"{workload}: a head run gave no result")
            continue
        if not all(run["correct"] for run in head_runs):
            problems.append(f"{workload}: a head output was wrong")
        base_failed, head_failed = failed_share(base_runs), failed_share(
            head_runs)
        if head_failed > base_failed:
            problems.append(f"{workload}: failed operations rose from "
                            f"{base_failed:.4%} to {head_failed:.4%}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base_values = metric_values(base_runs, name)
            if base_values is None:
                return 2, {"verdict": "no baseline", "rows": rows,
                           "problems": [f"{workload}: a base run lacks {name}"]}
            head_values = metric_values(head_runs, name)
            if head_values is None:
                problems.append(f"{workload}: a head run lacks {name}")
                continue
            q25, base_median, q75 = statistics.quantiles(
                base_values, n=4, method="inclusive")
            head_median = statistics.median(head_values)
            change = (head_median - base_median) / base_median
            higher = metric["better"] == "higher"
            worse = -change if higher else change
            # Run i of each side is pair i: main() appends one run a side
            # per pair.
            pairs = list(zip(base_values, head_values))
            head_wins = sum(1 for b, h in pairs if (h > b if higher else h < b))
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "base_median": base_median,
                   "base_q25": q25, "base_q75": q75,
                   "head_median": head_median, "change": change,
                   "bound": bound, "breach": worse > bound,
                   "unresolved": (q75 - q25) / base_median > bound,
                   "pairs": [{"base": b, "head": h} for b, h in pairs],
                   "head_wins": head_wins}
            rows.append(row)
            if row["breach"]:
                problems.append(f"{workload} {name}: {change:+.1%} is worse "
                                f"than the {bound:.0%} bound")
    return (1 if problems else 0), {
        "verdict": "fail" if problems else "pass", "rows": rows,
        "problems": problems}


def describe(checkout):
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=False)
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout,
                           check=False).returncode != 0
    return rev.stdout.strip() + (" (with uncommitted changes)" if dirty else "")


def print_table(report):
    print(f"{'workload':14s} {'metric':13s} {'base median':>12s} "
          f"{'base q25-q75':>21s} {'head median':>12s} {'change':>8s} "
          f"{'wins':>6s} {'bound':>6s}")
    for row in report["rows"]:
        label = "WORSE" if row["breach"] else ""
        if row["unresolved"]:
            label = (label + " unresolved").strip()
        print(f"{row['workload']:14s} {row['metric']:13s} "
              f"{row['base_median']:12.4g} "
              f"{row['base_q25']:10.4g}-{row['base_q75']:<10.4g} "
              f"{row['head_median']:12.4g} {row['change']:+8.1%} "
              f"{row['head_wins']:>3d}/{len(row['pairs']):<2d} "
              f"{row['bound']:6.0%} {label}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"verdict: {report['verdict']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--head", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    base_dir, head_dir = args.base.resolve(), args.head.resolve()
    # The base's spec: a change cannot loosen the gate that judges it.
    with open(base_dir / "BENCHMARK.json") as f:
        spec = json.load(f)
    sides = {"base": base_dir, "head": head_dir}
    revisions = {side: describe(path) for side, path in sides.items()}
    for side, path in sides.items():
        print(f"{side} {path}: {revisions[side]}", flush=True)

    workloads = [w["name"] for w in spec["workloads"]]
    runs = {side: {workload: [] for workload in workloads} for side in sides}
    for workload in workloads:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(sides[side], workload)
                runs[side][workload].append(result)
                status = "no result" if result is None else (
                    f"correct={result['correct']} failed={result['failed']}")
                print(f"{workload} pair {pair} {side}: {status}", flush=True)

    code, report = judge(spec, runs["base"], runs["head"])
    report.update(revisions)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print_table(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
