#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs it.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]
  python3 perfbench/run.py --selftest

The first form runs one workload and prints, as the last stdout line, one
JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
`--workload all` runs every workload (doc_validate too) and prints each
end-to-end metric by name and unit. `--selftest` runs every workload at
tiny scale in both modes, checks that every metric of BENCHMARK.json is
printed with its unit, and checks that a deliberately corrupted output is
counted as a failure.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) in
the checkout; spans of traced runs are written next to it under traces/.
The exit code is 0 only when every output matched its reference.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Every workload the binary knows. doc_validate is not in BENCHMARK.json:
# its run-to-run spread was too close to the 25% bound (see README.md).
WORKLOADS = ("doc_selective", "doc_validate", "service_mix", "corpus_fanout")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build_steps(out):
    """Configures (once) and builds into `out`; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def build():
    """Builds the binary (incrementally) and returns its path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources: {ROOT / 'src'} is missing")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build_steps(out):
            # A build tree configured for another source path cannot be
            # reused; start it afresh once.
            shutil.rmtree(out)
            if not build_steps(out):
                raise RuntimeError("build failed")
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: perfbench exited {done.returncode} without a result")
        return done.returncode or 1, lines, None
    return done.returncode, lines[:-1], result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_metrics(result, expected, label):
    """Problems with `result` against the metric list `expected`."""
    problems = []
    got = result["metrics"]
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif entry.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit "
                            f"{entry.get('unit')!r} != {metric['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} has no number")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def selftest(binary):
    spec = load_spec()
    problems = []
    started = time.monotonic()
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            code, _, result = run_binary(binary, workload, 1, 0.4, trace,
                                         ["--tiny"])
            if result is None:
                problems.append(f"{label}: no result")
                continue
            problems += check_metrics(result, expected, label)
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs did not match the oracle")
        # Operation ids start at 100; 101 runs during the warm-up.
        code, _, result = run_binary(binary, workload, 1, 0.2, 0,
                                     ["--tiny", "--corrupt-op", "101"])
        if (result is None or code == 0 or result["correct"]
                or result["failed"] < 1):
            problems.append(f"{workload}: corrupted output was not counted")
    for problem in problems:
        log(f"selftest: {problem}")
    status = "FAILED" if problems else "ok"
    print(f"selftest {status} in {time.monotonic() - started:.1f} s")
    return 1 if problems else 0


def run_all(binary, seed, seconds):
    failed = False
    for workload in WORKLOADS:
        code, _, result = run_binary(binary, workload, seed, seconds, 0)
        if result is None:
            print(f"{workload}: no result")
            failed = True
            continue
        verdict = "ok" if result["correct"] and code == 0 else "WRONG OUTPUT"
        failed |= verdict != "ok"
        error_pct = 100.0 * result["failed"] / result["attempted"]
        print(f"{workload}: {verdict} attempted={result['attempted']} "
              f"failed={result['failed']} error_pct={error_pct:.2f}")
        for name, entry in result["metrics"].items():
            print(f"  {name:14s} {entry['value']:14.6g} {entry['unit']}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 2
    if args.selftest:
        return selftest(binary)
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(binary, args.seed, seconds)

    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
