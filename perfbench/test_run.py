"""Tests of the benchmark wrapper: metric names, the percentile helper and
the output checks. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Set PERFBENCH_E2E=1 to also build and run one short traced and untraced
workload and compare the printed names with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def trial(accounting=(), failures=()):
    return {"ms": 10.0, "sim_ms": 8.0, "sim_queries": 3,
            "failures": list(failures), "accounting": list(accounting)}


def raw_run(trials, digest="d1"):
    return {"golden_trials": [trial()], "trials": trials,
            "setup_failures": [], "golden_digest": digest,
            "setup_ms": [1.0, 2.0, 3.0], "peak_rss_kb": 2048}


OPEN_OK = {"kind": "open", "arrivals": 10, "dispatched": 8, "shed": 1,
           "aborted": 1, "completed": 8}
CLOSED_OK = {"kind": "closed", "clients": 4, "queries_per_client": 3,
             "completions": 12}


class NamesTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_metrics_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER)

    def test_printed_end_to_end_names(self):
        metrics = run.end_to_end_metrics(raw_run([trial()] * 120))
        self.assertEqual(list(metrics), [m["name"] for m in SPEC["end_to_end"]])
        for metric in metrics.values():
            self.assertGreater(metric["value"], 0.0)

    def test_printed_per_layer_names(self):
        layers = {name: 1.0 for name in run.PER_LAYER}
        metrics = run.per_layer_metrics(layers)
        self.assertEqual(list(metrics), [m["name"] for m in SPEC["per_layer"]])
        del layers["sim.events"]
        with self.assertRaises(run.BenchError):
            run.per_layer_metrics(layers)

    def test_digest_recorded_for_every_workload(self):
        self.assertEqual(sorted(run.recorded_digests()), sorted(run.WORKLOADS))


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(1, 100)), 0.9))
        self.assertEqual(run.percentile(list(range(1, 101)), 0.9), 90)
        self.assertIsNone(run.percentile(list(range(1, 20)), 0.5))
        self.assertEqual(run.percentile(list(range(1, 21)), 0.5), 10)

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(200)]
        self.assertEqual(run.percentile(samples[::-1], 0.9), 179.0)

    def test_too_few_trials_is_not_a_result(self):
        with self.assertRaises(run.BenchError):
            run.end_to_end_metrics(raw_run([trial()] * 99))


class ChecksTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        attempted, failed, _ = run.check_outputs(
            raw_run([trial([OPEN_OK]), trial([CLOSED_OK])]), "d1")
        self.assertEqual((attempted, failed), (5, 0))

    def test_tampered_digest_is_a_failure(self):
        attempted, failed, messages = run.check_outputs(
            raw_run([trial([OPEN_OK])], digest="d2"), "d1")
        self.assertEqual((attempted, failed), (4, 1))
        self.assertIn("digest", messages[0])

    def test_broken_open_loop_identity_is_a_failure(self):
        for field, value in (("shed", 2), ("completed", 7)):
            broken = dict(OPEN_OK, **{field: value})
            _, failed, _ = run.check_outputs(
                raw_run([trial([OPEN_OK]), trial([broken])]), "d1")
            self.assertEqual(failed, 1, field)

    def test_broken_closed_loop_identity_is_a_failure(self):
        broken = dict(CLOSED_OK, completions=11)
        _, failed, _ = run.check_outputs(raw_run([trial([broken])]), "d1")
        self.assertEqual(failed, 1)

    def test_failed_trial_check_is_counted_once_per_trial(self):
        bad = trial(failures=["plan is not well-formed", "estimate not finite"])
        _, failed, _ = run.check_outputs(raw_run([bad, trial()]), "d1")
        self.assertEqual(failed, 1)

    def test_extra_checks_are_counted(self):
        attempted, failed, _ = run.check_outputs(
            raw_run([trial()]), "d1", [[], ["heap and calendar differ"]])
        self.assertEqual((attempted, failed), (6, 1))


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E"), "set PERFBENCH_E2E=1")
class EndToEndTest(unittest.TestCase):
    def run_bench(self, trace):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "tail",
             "--seed", "3", "--seconds", "2", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_printed_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in SPEC[key]})


if __name__ == "__main__":
    unittest.main()
