"""Gate semantics of scripts/bench_diff.py: tree mode (fleet-wide
regression gate, direction-aware per metric, zero-tolerance match
counts, missing-cell detection) and two-file backward compatibility."""
import copy
import importlib.util
import re
import tempfile
import unittest

import support
from support import engine_row, run, write_tree

DIFF = support.SCRIPTS / "bench_diff.py"


def load_bench_diff():
    """Imports bench_diff.py as a module (main() is __main__-guarded)."""
    spec = importlib.util.spec_from_file_location("bench_diff", DIFF)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TreeModeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.base_cells = {
            "a__smoke__gamma": [engine_row()],
            "t__skew__gamma": [
                engine_row(spec="tenant(gamma)", scenario="tenant-skew"),
                {"spec": "tenant(gamma)", "scenario": "tenant-skew",
                 "seed": 7, "latency_metric": "modeled-device",
                 "tenant": "t0", "matches": 44, "sojourn_p95_s": 2e-4},
            ],
        }
        self.old = write_tree(f"{self.tmp.name}/old", self.base_cells)

    def new_tree(self, cells):
        return write_tree(f"{self.tmp.name}/new", cells)

    def diff(self, new, *flags):
        return run([DIFF, "--tree", self.old, new, *flags])

    def test_identical_trees_pass(self):
        proc = self.diff(self.new_tree(self.base_cells))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("2 cells compared", proc.stdout)

    def test_match_count_change_fails_without_threshold(self):
        cells = copy.deepcopy(self.base_cells)
        cells["a__smoke__gamma"][0]["total_matches"] = 199
        proc = self.diff(self.new_tree(cells))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("zero tolerance", proc.stdout)

    def test_tenant_matches_are_zero_tolerance_too(self):
        cells = copy.deepcopy(self.base_cells)
        cells["t__skew__gamma"][1]["matches"] = 45
        self.assertEqual(self.diff(self.new_tree(cells)).returncode, 1)

    def test_latency_growth_gates_only_with_max_regress(self):
        cells = copy.deepcopy(self.base_cells)
        cells["a__smoke__gamma"][0]["latency_p95_s"] *= 1.5
        new = self.new_tree(cells)
        self.assertEqual(self.diff(new).returncode, 0)
        self.assertEqual(self.diff(new, "--max-regress", "20").returncode, 1)
        self.assertEqual(self.diff(new, "--max-regress", "60").returncode, 0)

    def test_throughput_drop_gates_in_its_own_direction(self):
        cells = copy.deepcopy(self.base_cells)
        cells["a__smoke__gamma"][0]["throughput_ops_per_s"] *= 0.5
        new = self.new_tree(cells)
        proc = self.diff(new, "--max-regress", "20")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSION", proc.stdout)
        # Throughput GROWTH is an improvement, never a regression.
        cells["a__smoke__gamma"][0]["throughput_ops_per_s"] = 9e9
        self.assertEqual(
            self.diff(self.new_tree(cells), "--max-regress", "20")
            .returncode, 0)

    def test_missing_cell_fails(self):
        cells = {"a__smoke__gamma": self.base_cells["a__smoke__gamma"]}
        proc = self.diff(self.new_tree(cells))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing cell", proc.stdout)

    def test_new_cell_is_reported_not_gated(self):
        cells = copy.deepcopy(self.base_cells)
        cells["extra__cell"] = [engine_row(scenario="uniform")]
        proc = self.diff(self.new_tree(cells))
        self.assertEqual(proc.returncode, 0)
        self.assertIn("NEW CELL", proc.stdout)

    def test_row_vanishing_inside_common_cell_fails(self):
        cells = copy.deepcopy(self.base_cells)
        del cells["t__skew__gamma"][1]
        proc = self.diff(self.new_tree(cells))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("vanished", proc.stdout)

    def test_tree_mode_rejects_two_file_flags(self):
        proc = self.diff(self.old, "--metric", "latency_p95_s")
        self.assertEqual(proc.returncode, 2)

    def test_fairness_drop_gates_as_higher_is_better(self):
        old = write_tree(f"{self.tmp.name}/f-old",
                         {"c": [engine_row(fairness=0.9)]})
        drop = write_tree(f"{self.tmp.name}/f-drop",
                          {"c": [engine_row(fairness=0.45)]})
        rise = write_tree(f"{self.tmp.name}/f-rise",
                          {"c": [engine_row(fairness=0.99)]})
        proc = run([DIFF, "--tree", old, drop, "--max-regress", "20"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertEqual(
            run([DIFF, "--tree", old, rise,
                 "--max-regress", "20"]).returncode, 0)

    def test_unlisted_rate_metric_gates_as_throughput(self):
        # A future "*_ops_per_s" field must resolve higher-is-better,
        # not fall through to the lower-is-better "_s" suffix rule.
        old = write_tree(f"{self.tmp.name}/r-old",
                         {"c": [engine_row(frobnicate_ops_per_s=100.0)]})
        drop = write_tree(f"{self.tmp.name}/r-drop",
                          {"c": [engine_row(frobnicate_ops_per_s=50.0)]})
        rise = write_tree(f"{self.tmp.name}/r-rise",
                          {"c": [engine_row(frobnicate_ops_per_s=200.0)]})
        proc = run([DIFF, "--tree", old, drop, "--max-regress", "20"])
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertEqual(
            run([DIFF, "--tree", old, rise,
                 "--max-regress", "20"]).returncode, 0)


class DirectionTableTest(unittest.TestCase):
    """The tables must name fields the benches actually emit — a dead
    entry (e.g. a renamed metric) silently un-gates its metric."""

    def emitted_fields(self):
        fields = set()
        for path in (support.REPO / "bench").glob("*.cpp"):
            fields.update(re.findall(
                r'\.Set(?:Bool)?\(\s*"([A-Za-z0-9_]+)"', path.read_text()))
        return fields

    def test_tables_only_name_emitted_fields(self):
        bd = load_bench_diff()
        emitted = self.emitted_fields()
        for table in ("HIGHER_IS_BETTER", "LOWER_IS_BETTER"):
            dead = getattr(bd, table) - emitted
            self.assertFalse(
                dead, f"{table} entries no bench emits: {sorted(dead)}")

    def test_metric_direction_resolution_order(self):
        bd = load_bench_diff()
        self.assertEqual(bd.metric_direction("future_ops_per_s"), "higher")
        self.assertEqual(bd.metric_direction("avg_utilization"), "higher")
        self.assertEqual(bd.metric_direction("latency_p95_s"), "lower")
        self.assertEqual(bd.metric_direction("fairness"), "higher")
        self.assertIsNone(bd.metric_direction("mystery_metric"))


class TwoFileModeTest(unittest.TestCase):
    """The pre-existing CI gates use two-file mode; lock its contract."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rows):
        import json
        import pathlib
        path = pathlib.Path(self.tmp.name) / name
        path.write_text(json.dumps(
            {"schema": "bdsm-bench-v1", "bench": "b", "rows": rows}))
        return path

    def test_gate_requires_metric(self):
        a = self.write("a.json", [engine_row()])
        proc = run([DIFF, a, a, "--max-regress", "10"])
        self.assertEqual(proc.returncode, 2)

    def test_directional_gate(self):
        a = self.write("a.json", [engine_row(thr=100.0)])
        b = self.write("b.json", [engine_row(thr=50.0)])
        ok = run([DIFF, a, b, "--metric", "throughput_ops_per_s",
                  "--max-regress", "20"])
        self.assertEqual(ok.returncode, 0)  # drop needs --higher-is-better
        gated = run([DIFF, a, b, "--metric", "throughput_ops_per_s",
                     "--higher-is-better", "--max-regress", "20"])
        self.assertEqual(gated.returncode, 1)


if __name__ == "__main__":
    unittest.main()
