#!/usr/bin/env python3
"""Self-check of the serving benchmark (short runs, a few minutes).

    python3 -m unittest discover -s perfbench/tests -v

Runs every workload for two seconds through perfbench/run.py, untraced and
traced, and checks that

  - each run reports exactly the metric names and units BENCHMARK.json
    declares (end_to_end untraced, per_layer traced);
  - no request failed and every reply matched the oracle;
  - traced self times are >= 0 and a request's self times never sum to
    more than its wall time (a clock-consistency check: the driver derives
    the submit and round-trip self times by subtraction);
  - each request's head and tail spans, recorded by the layer decorators,
    fall inside the request's own [call, done] interval, in order: the head
    inside submit(), the tail after the head;
  - on the ens workloads, a request's round trip (wire + host) is at least
    the host's body time per request spread over its workers, the body time
    taken from the host's span files, not from the driver's arithmetic;
  - host spans nest: a body's layer spans fit inside it.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 2
# Spans are stamped from two clocks reads apart; allow for the rounding.
SLACK_MS = 1e-3


def run(workload, trace, results):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace),
         "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed ({done.returncode}):\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.results = Path(cls.tmp.name) / "results.jsonl"

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check_result(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, declared(kind))
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                meta, result = run(workload, 0, self.results)
                self.check_result(result, "end_to_end")
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
                self.assertGreater(meta["latency_samples"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_per_layer_metrics_and_consistent_spans(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                meta, result = run(workload, 1, self.results)
                self.check_result(result, "per_layer")
                self.assertGreater(result["metrics"]["trace.requests"]["value"], 0)
                trace_dir = Path(meta["trace_dir"])
                requests = self.check_requests(trace_dir / "requests.jsonl")
                host_spans = [self.check_host_spans(path)
                              for path in sorted(trace_dir.glob("host*.spans"))]
                self.assertEqual(len(host_spans), meta["host_processes"])
                if workload.startswith("ens_"):
                    self.check_round_trip_covers_bodies(requests, host_spans,
                                                        meta["host_workers"])

    def check_requests(self, path):
        requests = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertTrue(requests)
        for request in requests:
            for name, value in request["self_ms"].items():
                self.assertGreaterEqual(value, -SLACK_MS, f"{name} in {request}")
            self.assertLessEqual(sum(request["self_ms"].values()),
                                 request["wall_ms"] + SLACK_MS, request)
            head_start, head_end = request["head_ns"]
            tail_start, tail_end = request["tail_ns"]
            self.assertLessEqual(request["call_ns"], head_start, request)
            self.assertLessEqual(head_start, head_end, request)
            self.assertLessEqual(head_end, request["return_ns"], request)
            self.assertLessEqual(head_end, tail_start, request)
            self.assertLessEqual(tail_start, tail_end, request)
            self.assertLessEqual(tail_end, request["done_ns"], request)
        return requests

    def check_round_trip_covers_bodies(self, requests, host_spans, workers):
        # All of a request's bodies run inside its round trip, at most
        # `workers` at a time per host, so the mean round trip is at least
        # the body time per request over the workers. The bodies of
        # requests in flight at the window's edges blur this by a few
        # percent, hence the 0.9.
        first = min(r["call_ns"] for r in requests)
        last = max(r["done_ns"] for r in requests)
        body_ms = sum((end - start) * 1e-6
                      for spans in host_spans
                      for name, start, end in spans.values()
                      if name == "body" and first <= start and end <= last)
        self.assertGreater(body_ms, 0)
        round_trip_ms = sum(r["self_ms"]["round_trip"] for r in requests)
        self.assertGreaterEqual(round_trip_ms, 0.9 * body_ms / workers)

    def check_host_spans(self, path):
        lines = path.read_text().splitlines()
        names = lines[1].split()[1:]
        spans = {}
        children = {}
        for line in lines[2:]:
            name, span_id, parent, start, end = (int(x) for x in line.split())
            self.assertLessEqual(start, end)
            spans[span_id] = (names[name], start, end)
            children.setdefault(parent, []).append((start, end))
        self.assertTrue(spans)
        for span_id, (name, start, end) in spans.items():
            if name != "body":
                continue
            inner = children.get(span_id, [])
            self.assertTrue(inner, "a body span has no layer spans")
            for child_start, child_end in inner:
                self.assertGreaterEqual(child_start, start)
                self.assertLessEqual(child_end, end)
            self.assertGreaterEqual((end - start) - sum(e - s for s, e in inner), 0)
        return spans


if __name__ == "__main__":
    unittest.main()
