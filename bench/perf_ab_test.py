#!/usr/bin/env python3
"""Unit tests for the perf gate's verdict (bench/perf_ab.py).

Calls perf_ab.judge on synthetic perfbench results against the
repository's BENCHMARK.json; runs no benchmark.

  python3 bench/perf_ab_test.py
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perf_ab  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Ten runs spread +-4% around each metric's centre: IQR/median ~0.04.
JITTER = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]
CENTRE = {"prune_mb_s": 500.0, "prune_ms_p50": 20.0, "prune_ms_p90": 30.0,
          "setup_s": 2.0}


def run(metrics, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"}
                        for name, value in metrics.items()}}


def side():
    """Every workload's ten runs at the same spread."""
    return {workload: [run({name: centre * j
                            for name, centre in CENTRE.items()})
                       for j in JITTER]
            for workload in WORKLOADS}


class JudgeTest(unittest.TestCase):

    def test_identical_sides_pass(self):
        code, report = perf_ab.judge(SPEC, side(), side())
        self.assertEqual(0, code, report["problems"])
        self.assertEqual("pass", report["verdict"])
        self.assertEqual(len(WORKLOADS) * len(SPEC["end_to_end"]),
                         len(report["rows"]))
        for row in report["rows"]:
            self.assertFalse(row["breach"], row)
            self.assertFalse(row["unresolved"], row)
            self.assertAlmostEqual(0.0, row["change"])
            # Ten ties: neither side wins a pair.
            self.assertEqual(len(JITTER), len(row["pairs"]))
            self.assertEqual(0, row["head_wins"])

    def test_a_head_that_wins_nine_pairs_reports_nine(self):
        base, head = side(), side()
        for pair, result in enumerate(head["doc_selective"]):
            step = 0.99 if pair == 4 else 1.01
            result["metrics"]["prune_mb_s"]["value"] *= step
            result["metrics"]["prune_ms_p50"]["value"] /= step
        code, report = perf_ab.judge(SPEC, base, head)
        self.assertEqual(0, code, report["problems"])
        rows = {(r["workload"], r["metric"]): r for r in report["rows"]}
        # Higher is better for throughput, lower for latency.
        for metric in ("prune_mb_s", "prune_ms_p50"):
            row = rows[("doc_selective", metric)]
            self.assertEqual(9, row["head_wins"], metric)
            self.assertEqual(
                [r["metrics"][metric]["value"] for r in base["doc_selective"]],
                [p["base"] for p in row["pairs"]])
            self.assertEqual(
                [r["metrics"][metric]["value"] for r in head["doc_selective"]],
                [p["head"] for p in row["pairs"]])
        self.assertEqual(0, rows[("doc_selective", "setup_s")]["head_wins"])

    def test_half_the_throughput_fails(self):
        head = side()
        for result in head["doc_selective"]:
            result["metrics"]["prune_mb_s"]["value"] /= 2
        code, report = perf_ab.judge(SPEC, side(), head)
        self.assertEqual(1, code)
        breached = [(r["workload"], r["metric"]) for r in report["rows"]
                    if r["breach"]]
        self.assertEqual([("doc_selective", "prune_mb_s")], breached)
        self.assertIn("doc_selective prune_mb_s", report["problems"][0])

    def test_a_small_slowdown_inside_the_bound_passes(self):
        head = side()
        for result in head["service_mix"]:
            result["metrics"]["prune_ms_p50"]["value"] *= 1.2
        code, report = perf_ab.judge(SPEC, side(), head)
        self.assertEqual(0, code, report["problems"])

    def test_one_extra_failed_operation_fails(self):
        head = side()
        head["corpus_fanout"][3]["failed"] = 1
        code, report = perf_ab.judge(SPEC, side(), head)
        self.assertEqual(1, code)
        self.assertIn("corpus_fanout: failed operations rose",
                      report["problems"][0])

    def test_a_wrong_head_output_fails(self):
        head = side()
        head["service_mix"][7]["correct"] = False
        code, report = perf_ab.judge(SPEC, side(), head)
        self.assertEqual(1, code)
        self.assertEqual(["service_mix: a head output was wrong"],
                         report["problems"])

    def test_a_head_run_without_a_result_fails(self):
        head = side()
        head["doc_selective"][0] = None
        code, _ = perf_ab.judge(SPEC, side(), head)
        self.assertEqual(1, code)

    def test_a_noisy_base_is_unresolved(self):
        base = side()
        for result, spread in zip(base["corpus_fanout"],
                                  [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4,
                                   1.6, 1.8]):
            result["metrics"]["setup_s"]["value"] = 2.0 * spread
        code, report = perf_ab.judge(SPEC, base, copy.deepcopy(base))
        self.assertEqual(0, code, report["problems"])
        unresolved = [(r["workload"], r["metric"]) for r in report["rows"]
                      if r["unresolved"]]
        self.assertEqual([("corpus_fanout", "setup_s")], unresolved)

    def test_a_wrong_base_output_is_no_baseline(self):
        base = side()
        base["doc_selective"][2]["correct"] = False
        code, report = perf_ab.judge(SPEC, base, side())
        self.assertEqual(2, code)
        self.assertEqual("no baseline", report["verdict"])


if __name__ == "__main__":
    unittest.main()
