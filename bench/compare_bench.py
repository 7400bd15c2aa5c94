#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_pruning.json.

Compares a freshly generated candidate sweep against the committed
baseline and fails (exit 1) when single-thread pruning throughput —
the zero-copy hot path, free of scheduling noise — regresses by more
than the threshold:

  * results[threads==1].bytes_per_second  (multi-document corpus)

Multi-thread points are reported for context but never gate: their
variance on shared CI runners swamps a 10% threshold.

Additionally gates the candidate's durable-checkpoint arm as an
absolute bound: obs_overhead.checkpoint_pct — what checkpoint
bookkeeping (content hash, record formatting, one fsync'd append per
task) adds on top of a run that already commits every output durably
(README "Checkpoint & resume") — must stay at or below
--checkpoint-threshold-pct (default 5). The bound is absolute, not
baseline-relative, so baselines recorded before the arm existed still
compare cleanly; a candidate lacking the field skips the check.

The traced-service arm gates the same way: obs_overhead.traced_pct —
what per-request tracing, structured access logging, and SLO accounting
add to serial /prune requests over a metrics-only service (README
"Request-scoped observability") — must stay at or below
--traced-threshold-pct (default 5), absolute, skip-if-absent.

Usage:
  compare_bench.py BASELINE CANDIDATE [--threshold 0.10] [--out diff.json]
                   [--checkpoint-threshold-pct 5] [--traced-threshold-pct 5]

Exit codes: 0 ok (improvements are reported), 1 regression beyond the
threshold, 2 malformed input (missing file / key / single-thread point).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def single_thread_bps(doc, sweep_name, results):
    for point in results:
        if point.get("threads") == 1:
            bps = point.get("bytes_per_second")
            if not isinstance(bps, (int, float)) or bps <= 0:
                print(f"compare_bench: {doc}: {sweep_name}: bad "
                      f"bytes_per_second {bps!r}", file=sys.stderr)
                sys.exit(2)
            return float(bps)
    print(f"compare_bench: {doc}: {sweep_name}: no threads==1 point",
          file=sys.stderr)
    sys.exit(2)


def sweeps(doc, label):
    out = {}
    if "results" not in doc:
        print(f"compare_bench: {label}: missing 'results'", file=sys.stderr)
        sys.exit(2)
    out["corpus_1t"] = single_thread_bps(label, "results", doc["results"])
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed fractional regression (default 0.10)")
    parser.add_argument("--out", default="",
                        help="write the comparison as JSON to this path")
    parser.add_argument("--checkpoint-threshold-pct", type=float, default=5.0,
                        help="max allowed obs_overhead.checkpoint_pct in the "
                             "candidate (absolute bound, default 5)")
    parser.add_argument("--traced-threshold-pct", type=float, default=5.0,
                        help="max allowed obs_overhead.traced_pct in the "
                             "candidate (absolute bound, default 5)")
    args = parser.parse_args()

    cand_doc = load(args.candidate)
    base = sweeps(load(args.baseline), args.baseline)
    cand = sweeps(cand_doc, args.candidate)

    comparisons = []
    failed = False
    for name, base_bps in sorted(base.items()):
        if name not in cand:
            print(f"compare_bench: candidate lacks sweep '{name}'",
                  file=sys.stderr)
            sys.exit(2)
        cand_bps = cand[name]
        delta = (cand_bps - base_bps) / base_bps
        regressed = delta < -args.threshold
        failed = failed or regressed
        comparisons.append({
            "sweep": name,
            "baseline_bytes_per_second": base_bps,
            "candidate_bytes_per_second": cand_bps,
            "delta_pct": round(delta * 100, 2),
            "regressed": regressed,
        })
        verdict = ("REGRESSION" if regressed
                   else "improved" if delta > args.threshold
                   else "ok")
        print(f"{name}: {base_bps / 1e6:8.1f} -> {cand_bps / 1e6:8.1f} MB/s "
              f"({delta * 100:+.1f}%) {verdict}")

    checkpoint = None
    checkpoint_pct = cand_doc.get("obs_overhead", {}).get("checkpoint_pct")
    if isinstance(checkpoint_pct, (int, float)):
        # Negative deltas are measurement noise (the arm ran faster than
        # bare); only a positive cost can breach the bound.
        over = checkpoint_pct > args.checkpoint_threshold_pct
        failed = failed or over
        checkpoint = {
            "checkpoint_pct": round(float(checkpoint_pct), 2),
            "threshold_pct": args.checkpoint_threshold_pct,
            "regressed": over,
        }
        verdict = "REGRESSION" if over else "ok"
        print(f"checkpoint overhead: {checkpoint_pct:+.1f}% vs durable "
              f"writes (bound {args.checkpoint_threshold_pct:.0f}%) "
              f"{verdict}")
        if over:
            print(f"compare_bench: checkpoint bookkeeping costs "
                  f"{checkpoint_pct:.1f}% over durable output writes, "
                  f"above the {args.checkpoint_threshold_pct:.0f}% bound",
                  file=sys.stderr)

    traced = None
    traced_pct = cand_doc.get("obs_overhead", {}).get("traced_pct")
    if isinstance(traced_pct, (int, float)):
        over = traced_pct > args.traced_threshold_pct
        failed = failed or over
        traced = {
            "traced_pct": round(float(traced_pct), 2),
            "threshold_pct": args.traced_threshold_pct,
            "regressed": over,
        }
        verdict = "REGRESSION" if over else "ok"
        print(f"traced-request overhead: {traced_pct:+.1f}% vs metrics-only "
              f"/prune (bound {args.traced_threshold_pct:.0f}%) {verdict}")
        if over:
            print(f"compare_bench: request tracing+logging+SLO accounting "
                  f"costs {traced_pct:.1f}% over a metrics-only service, "
                  f"above the {args.traced_threshold_pct:.0f}% bound",
                  file=sys.stderr)

    report = {
        "threshold_pct": args.threshold * 100,
        "passed": not failed,
        "comparisons": comparisons,
    }
    if checkpoint is not None:
        report["checkpoint_overhead"] = checkpoint
    if traced is not None:
        report["traced_overhead"] = traced
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    if failed:
        print(f"compare_bench: single-thread throughput regressed more than "
              f"{args.threshold * 100:.0f}% vs {args.baseline}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
