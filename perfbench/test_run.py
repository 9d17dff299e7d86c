#!/usr/bin/env python3
"""Self-tests of the benchmark harness: python3 perfbench/test_run.py"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileSupport(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # rank 990 leaves exactly 10 beyond
        self.assertEqual(run.supported_percentile(values, 99), (99.0, 990))
        self.assertEqual(run.nearest_rank(values, 99), (990, 10))

    def test_falls_back_to_highest_supported(self):
        values = list(range(1, 500))  # p99 leaves 4 beyond, p95 leaves 24
        self.assertEqual(run.supported_percentile(values, 99), (95.0, 475))
        self.assertEqual(run.percentile_name("req", 95.0, "ms"),
                         "req_p95_ms")

    def test_too_few_samples(self):
        self.assertIsNone(run.supported_percentile(list(range(15)), 50))
        self.assertEqual(run.supported_percentile(list(range(20)), 50),
                         (50.0, 9))

    def test_failed_requests_count_as_over_any_limit(self):
        values = [1.0] * 985 + [math.inf] * 15
        self.assertEqual(run.supported_percentile(values, 99)[1], math.inf)
        self.assertEqual(run.supported_percentile(values, 50)[1], 1.0)
        with self.assertRaises(run.GateError):
            run.latency_metrics("req", values, (99,))

    def test_latency_metric_names(self):
        got = run.latency_metrics("req", [float(v) for v in range(1000)],
                                  (50, 99))
        self.assertEqual(got, {"req_p50_ms": (499.0, "ms"),
                               "req_p99_ms": (989.0, "ms")})


class OpenLoopSchedule(unittest.TestCase):
    def test_deterministic_from_seed(self):
        a = run.open_loop_schedule(7, 150.0, 1000)
        self.assertEqual(a, run.open_loop_schedule(7, 150.0, 1000))
        self.assertNotEqual(a, run.open_loop_schedule(8, 150.0, 1000))

    def test_offered_rate_is_exact(self):
        due = run.open_loop_schedule(3, 200.0, 1000)
        self.assertEqual(len(due), 1000)
        self.assertEqual(due[0], 0)
        self.assertEqual(due, sorted(due))
        self.assertLess(due[-1], 5e6)  # 1000 requests in 5 s
        self.assertGreater(due[-1], 4.9e6)

    def test_arrivals_are_bursty(self):
        due = run.open_loop_schedule(3, 200.0, 1000)
        gaps = [b - a for a, b in zip(due, due[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Exponential gaps: coefficient of variation near 1.
        self.assertGreater(math.sqrt(var) / mean, 0.8)

    def test_latency_measured_from_due_time(self):
        records = [
            {"due_ns": 0, "send_ns": 5_000_000, "reply_ns": 9_000_000,
             "ok": True},
            {"due_ns": 1_000_000, "send_ns": 1_000_000,
             "reply_ns": 2_000_000, "ok": False},
        ]
        self.assertEqual(run.request_latencies_ms(records), [9.0, math.inf])


class ClosedLoopRate(unittest.TestCase):
    def test_rate_counts_replies_after_the_warm_up(self):
        records = [
            # Replied during the warm-up: not counted.
            {"pairs": 128, "reply_ns": 1_500_000_000, "ok": True},
            {"pairs": 128, "reply_ns": 2_500_000_000, "ok": True},
            {"pairs": 64, "reply_ns": 3_000_000_000, "ok": True},
            # Failed: not counted, but the run still reports it.
            {"pairs": 128, "reply_ns": 2_800_000_000, "ok": False},
        ]
        # 192 pairs over the 1 s from the end of warm-up to the last reply.
        self.assertAlmostEqual(run.closed_loop_rate(records, 2.0), 192.0)

    def test_rate_follows_the_server_not_a_schedule(self):
        fast = [{"pairs": 128, "reply_ns": int(2e9 + k * 5e6), "ok": True}
                for k in range(1, 401)]
        slow = [{"pairs": 128, "reply_ns": int(2e9 + k * 6e6), "ok": True}
                for k in range(1, 401)]
        self.assertAlmostEqual(run.closed_loop_rate(fast, 2.0)
                               / run.closed_loop_rate(slow, 2.0), 1.2)

    def test_no_reply_after_warm_up_fails_the_gate(self):
        with self.assertRaises(run.GateError):
            run.closed_loop_rate(
                [{"pairs": 128, "reply_ns": 1_000_000_000, "ok": True}], 2.0)


class MetricPrinter(unittest.TestCase):
    def test_metric_line(self):
        self.assertEqual(run.metric_line("serve_128", "req_p99_ms", 12.345678,
                                         "ms"),
                         "serve_128 req_p99_ms = 12.345678 ms")

    def test_result_line(self):
        line = run.result_line(True, 1000, 0,
                               {"pairs_per_s": (20123.456789, "1/s"),
                                "setup_s": (0.31234567891, "s")})
        got = json.loads(line)
        self.assertEqual(sorted(got), ["attempted", "correct", "failed",
                                       "metrics"])
        self.assertEqual(got["metrics"]["pairs_per_s"],
                         {"value": 20123.456789, "unit": "1/s"})
        # Every digit survives.
        self.assertEqual(got["metrics"]["setup_s"]["value"], 0.31234567891)

    def test_failed_run_reports_no_timing(self):
        got = json.loads(run.result_line(False, 1, 1, {}))
        self.assertEqual(got, {"correct": False, "attempted": 1,
                               "failed": 1, "metrics": {}})


if __name__ == "__main__":
    unittest.main()
