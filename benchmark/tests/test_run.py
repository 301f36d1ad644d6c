"""Tests of benchmark/run.py: the percentile and sample-count rule, bounds
and --agree, the BENCHMARK.json and result-line shapes, and end-to-end
--quick runs.  Stdlib unittest only:

    python3 -m unittest discover -s benchmark/tests
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def raw_result(batch_s, modeled_s, device_s, setup_s, **extra):
    raw = {"workload": "match-heavy", "engine": "gamma", "seed": 2024,
           "quick": False, "updates": 4 * len(device_s),
           "batches": len(device_s),
           "reps": [{"batch_s": b, "modeled_s": m}
                    for b, m in zip(batch_s, modeled_s)],
           "device_s": device_s, "setup_s": setup_s, "peak_rss_mb": 50.0,
           "attempted": len(device_s) * len(batch_s), "failed": 0,
           "fingerprints": {"graph": "g", "queries": "q", "stream": "s"}}
    raw.update(extra)
    return raw


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(run.percentile(xs, 50), 5)
        self.assertEqual(run.percentile(xs, 95), 10)
        self.assertEqual(run.percentile(xs, 100), 10)
        self.assertEqual(run.percentile(list(reversed(range(1, 201))), 95),
                         190)
        self.assertEqual(run.percentile([7.0], 50), 7.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_sample_count_rule(self):
        # p95 of 200 samples leaves exactly ten beyond it; 199 leave nine.
        self.assertEqual(run.samples_beyond(200, 95), 10)
        self.assertTrue(run.tail_supported(200, 95))
        self.assertFalse(run.tail_supported(199, 95))
        self.assertFalse(run.tail_supported(200, 99))
        self.assertTrue(run.tail_supported(1000, 99))


class EndToEndTest(unittest.TestCase):
    def test_medians_over_reps(self):
        batch_s = [[0.010] * 9 + [0.020], [0.012] * 10, [0.011] * 10]
        modeled_s = [[0.001] * 10, [0.003] * 10, [0.002] * 10]
        raw = raw_result(batch_s, modeled_s, [1e-6] * 9 + [5e-6],
                         [0.5, 0.1, 0.2])
        m = run.end_to_end(raw)
        self.assertAlmostEqual(m["batch_ms_p50"], 11.0)
        self.assertAlmostEqual(m["batch_ms_p95"], 12.0)
        self.assertAlmostEqual(m["modeled_ms_p50"], 2.0)
        self.assertAlmostEqual(m["device_ms_p50"], 1e-3)
        self.assertAlmostEqual(m["device_ms_p95"], 5e-3)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        # 40 updates over each rep's summed batch time; median rep.
        self.assertAlmostEqual(m["updates_per_s"], 40 / 0.11)
        self.assertEqual(m["peak_rss_mb"], 50.0)

    def test_every_end_to_end_metric_is_measured(self):
        raw = raw_result([[0.01] * 10] * 3, [[0.001] * 10] * 3, [1e-6] * 10,
                         [0.1])
        names = {d["name"] for d in run.load_spec()["end_to_end"]}
        self.assertEqual(names, set(run.end_to_end(raw)))


class BoundTest(unittest.TestCase):
    def test_within_bound_is_symmetric_with_slack(self):
        self.assertTrue(run.within_bound(100.0, 110.0, 0.1))
        self.assertTrue(run.within_bound(100.0, 90.0, 0.1))
        self.assertFalse(run.within_bound(100.0, 110.5, 0.1))
        self.assertFalse(run.within_bound(0.01, 0.02, 0.1))
        self.assertTrue(run.within_bound(0.01, 0.02, 0.1, slack=0.02))

    def write_results(self, directory, name, metrics, fingerprints):
        path = Path(directory) / name
        path.write_text(json.dumps({"workloads": {"match-heavy": {
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()},
            "raw": {"fingerprints": fingerprints}}}}))
        return str(path)

    def test_agree(self):
        spec = run.load_spec()
        base = {d["name"]: 1.0 for d in spec["end_to_end"]}
        fp = {"graph": "g", "queries": "q", "stream": "s"}
        with tempfile.TemporaryDirectory() as d:
            a = self.write_results(d, "a.json", base, fp)
            near = dict(base, batch_ms_p50=1.05)
            b = self.write_results(d, "b.json", near, fp)
            self.assertEqual(run.agree(a, b, spec), 0)
            far = dict(base, updates_per_s=1.5)
            c = self.write_results(d, "c.json", far, fp)
            self.assertEqual(run.agree(a, c, spec), 1)
            # Device makespans must match exactly on equal inputs...
            dev = dict(base, device_ms_p50=1.0001)
            e = self.write_results(d, "e.json", dev, fp)
            self.assertEqual(run.agree(a, e, spec), 1)
            # ...and fall back to the bound when the inputs differ.
            f = self.write_results(d, "f.json", dev, dict(fp, stream="t"))
            self.assertEqual(run.agree(a, f, spec), 0)


class ShapeTest(unittest.TestCase):
    def test_benchmark_json(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["benchmark"])
        self.assertLessEqual(len(spec["command"]), 32)
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        bounds = {}
        for d in spec["end_to_end"]:
            self.assertEqual(set(d), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < d["bound"] <= 0.25)
            bounds[d["name"]] = d["bound"]
        for d in spec["per_layer"]:
            self.assertEqual(set(d), {"name", "unit", "better"})
        for d in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(d["unit"], UNIT)
            self.assertIn(d["better"], ("higher", "lower"))
            names.append(d["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_fingerprint_pins(self):
        pins = run.load_pins()
        raw = raw_result([[0.01] * 10] * 3, [[0.0] * 10] * 3, [0.0] * 10,
                         [0.1], fingerprints=dict(
                             pins["workloads"]["match-heavy"]))
        self.assertEqual(run.fingerprint_problems(raw, pins), [])
        raw["fingerprints"]["stream"] = "drifted"
        self.assertEqual(len(run.fingerprint_problems(raw, pins)), 1)
        # Another seed pins graph and queries only.
        raw["seed"] = pins["seed"] + 1
        self.assertEqual(run.fingerprint_problems(raw, pins), [])
        raw["fingerprints"]["graph"] = "drifted"
        self.assertEqual(len(run.fingerprint_problems(raw, pins)), 1)

    def test_summary_line(self):
        result = {"metrics": {"batch_ms_p50": {"value": 1.5, "unit": "ms"}},
                  "correct": True, "attempted": 3, "failed": 0}
        line = run.summary_line({"match-heavy": result})
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["batch_ms_p50"]["value"], 1.5)
        both = run.summary_line({"match-heavy": result,
                                 "many-queries": dict(result, correct=False)})
        self.assertFalse(both["correct"])
        self.assertEqual(both["attempted"], 6)
        self.assertIn("many-queries/batch_ms_p50", both["metrics"])


class QuickRunTest(unittest.TestCase):
    """One --quick run per mode through the real program (builds it on
    first use, which takes about a minute)."""

    def run_bench(self, *args):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--quick",
             "--workload", "match-heavy", *args],
            cwd=str(BENCH.parent), stdout=subprocess.PIPE, text=True,
            timeout=1200)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_measure(self):
        line = self.run_bench("--trace", "0")
        spec = run.load_spec()
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertEqual(line["attempted"], 3 * 24)
        self.assertEqual(set(line["metrics"]),
                         {d["name"] for d in spec["end_to_end"]})
        for m in line["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_trace(self):
        line = self.run_bench("--trace", "1")
        spec = run.load_spec()
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]),
                         {d["name"] for d in spec["per_layer"]})
        self.assertEqual(
            line["metrics"]["trace.fidelity_mismatches"]["value"], 0)
        layers = json.loads((run.OUT / "layers-match-heavy.json").read_text())
        self.assertAlmostEqual(
            sum(v["share"] for v in layers["self_time"].values()), 1.0,
            places=3)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(BENCH.parent / "BENCHMARK.json", d)
            shutil.copytree(BENCH, Path(d) / "benchmark",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload",
                 "match-heavy", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
