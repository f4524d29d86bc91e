#!/usr/bin/env python3
"""The benchmark's own test: a smoke-size run of every workload.

Each workload runs untraced and traced at smoke size. The test asserts
that every correctness gate passes and that every metric is printed by
name with its unit: the BENCHMARK.json metrics in the JSON result line,
and the workload-specific names in the text lines.

    python3 perfbench/test_smoke.py        # from the repository root
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SERVICE_TEXT = ["sustainable_ups", "latency_p50_us", "latency_p99_us",
                "cpu_us_per_update", "failed_frac", "setup_s", "peak_rss_mb"]
SWARM_TEXT = ["runs_per_s", "latency_p50_us", "cpu_us_per_item",
              "cpu_us_per_run_unscaled", "reference_cpu_us",
              "failed_frac", "setup_s", "peak_rss_mb"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def text_metrics(stdout):
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, stdout = run(workload, trace)
        self.assertEqual(code, 0, stdout[-3000:])
        self.assertNotIn("GATE FAILED", stdout)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        printed = text_metrics(stdout)
        if not trace:
            for name in SWARM_TEXT if workload == "swarm" else SERVICE_TEXT:
                self.assertIn(name, printed, name)
        return printed

    def test_ingest(self):
        self.check("ingest", 0)
        layers = self.check("ingest", 1)
        for name in ["store.wal_append", "service.recover_per_record",
                     "wire.decode_update", "unexplained_us_per_update"]:
            self.assertGreater(layers[name][0], 0, name)

    def test_fanout(self):
        self.check("fanout", 0)
        layers = self.check("fanout", 1)
        for name in ["service.session_publish", "wire.encode_alert", "core.filter"]:
            self.assertGreater(layers[name][0], 0, name)

    def test_sharded(self):
        self.check("sharded", 0)
        layers = self.check("sharded", 1)
        for name in ["service.shard_owner", "service.shard_forward",
                     "service.merge_accepted", "core.evaluate"]:
            self.assertGreater(layers[name][0], 0, name)

    def test_swarm(self):
        self.check("swarm", 0)
        layers = self.check("swarm", 1)
        for name in ["sim.execute_ms_per_run", "check.ms_per_run"]:
            self.assertGreater(layers[name][0], 0, name)


if __name__ == "__main__":
    unittest.main()
