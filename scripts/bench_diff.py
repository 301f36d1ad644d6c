#!/usr/bin/env python3
"""Diffs perf-trajectory files (schema bdsm-bench-v1) — two row files,
or two experiment-matrix results trees (docs/EXPERIMENTS.md).

Rows are keyed by their string-valued fields — the canonical-spec
provenance field ("spec") that every bench row carries, plus whatever
sweep context the bench recorded (dataset, scenario, structure class,
...) — so a row compares against the row measuring the same cell in
the other file, regardless of row order.  Numeric fields are compared
as relative change (new vs old).

Two-file mode:
  python3 scripts/bench_diff.py OLD.json NEW.json
      [--metric FIELD]      only diff this numeric field (repeatable)
      [--max-regress PCT]   exit 1 when a gated metric regresses by
                            more than PCT percent; requires --metric.
                            By default a regression is GROWTH
                            (lower-is-better metrics: latencies,
                            critical path); with --higher-is-better it
                            is SHRINKAGE (throughput, batches/s)
      [--higher-is-better]  gated --metric fields are
                            higher-is-better: the gate fires on drops
      [--all]               print unchanged rows too

Tree mode (the fleet-wide regression gate):
  python3 scripts/bench_diff.py --tree OLD_DIR NEW_DIR
      [--max-regress PCT] [--all]

  OLD_DIR/NEW_DIR are results trees written by run_matrix.py
  (RESULTS_MANIFEST.json + cells/*.json).  Rows pair by canonical cell
  id + row key, i.e. keyed by canonical spec + scenario + clock
  provenance.  The gate is direction-aware per metric without flags:

  * match counts (total_matches, matches) are ZERO-TOLERANCE — any
    change, either direction, and any row present on one side only
    inside a common cell, fails the gate;
  * a cell sealed in OLD but missing/unsealed in NEW fails the gate
    (a sweep that silently lost coverage is a regression);
  * directional metrics (latency-style lower-is-better,
    throughput-style higher-is-better — see DIRECTION/suffix table)
    gate only when --max-regress is given, each in its own direction;
  * metrics with unknown direction are reported, never gated.

Exit codes: 0 ok, 1 regression/missing coverage, 2 usage/input error.
"""
import argparse
import json
import pathlib
import sys

# --- tree-mode direction tables -------------------------------------
# Zero tolerance: correctness results. The engines are deterministic in
# (binary, seed), so any drift in match counts is a real behavior
# change, not noise.
ZERO_TOLERANCE = {"total_matches", "matches"}

# Known directions for the gate. Metrics not resolvable here or via the
# suffix/prefix heuristics are reported but never gated.  Every name
# must be a field a bench actually emits (bench/*.cpp `.Set("...")`) —
# a dead entry silently un-gates its metric, so the tables are locked
# to the sources by tests/python/test_bench_diff.py.
HIGHER_IS_BETTER = {
    "throughput_ops_per_s", "replication_ops_per_s", "fused_speedup",
    "solved", "admitted_ops", "fairness", "avg_utilization",
}
LOWER_IS_BETTER = {
    "unsolved", "shed_ops", "degraded_ops", "truncated_queries",
    "truncated_batches", "resyncs", "lag_batches", "max_lag_batches",
    "queue_depth_max", "locates_per_update",
    "resized_entries_per_update", "moved_entries_per_update",
    "update_ratio_pct", "rebuild_over_gpma", "bfs_peak_mem_pct",
    "dfs_peak_mem_pct",
}
_LOWER_SUFFIXES = ("_s", "_ms", "_us", "_ticks", "_bytes")
_LOWER_PREFIXES = ("latency_", "sojourn_", "queue_wait_", "p50", "p95",
                   "p99")


def metric_direction(field):
    """'higher' | 'lower' | None (unknown: report-only)."""
    if field in HIGHER_IS_BETTER:
        return "higher"
    if field in LOWER_IS_BETTER:
        return "lower"
    # Rates end in "_per_s", which also matches the lower-is-better
    # "_s" suffix — resolve them as throughput first so a future
    # "*_ops_per_s" field gates in the right direction.
    if field.endswith("_per_s"):
        return "higher"
    if field.startswith(_LOWER_PREFIXES) or field.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


def load_rows(path):
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "bdsm-bench-v1":
        print(f"bench_diff: {path} is not a bdsm-bench-v1 file",
              file=sys.stderr)
        sys.exit(2)
    return doc.get("bench", "?"), doc.get("rows", [])


def row_key(row):
    """Identity of a measured cell: every string field, sorted.

    The "spec" field (the engine's canonical spec stamped from
    Engine::Describe()) is the primary provenance component; string
    sweep context (dataset, scenario, structure class, clock) completes
    it.  Rows that share a key — numeric sweeps like a rate or shard
    loop — are paired positionally, which is stable because benches
    emit sweep rows in a deterministic order.
    """
    parts = []
    for k, v in sorted(row.items()):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            parts.append(f"{k}={v}")
    return " ".join(parts)


def numeric_fields(row, only):
    out = {}
    for k, v in row.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            continue
        if only and k not in only:
            continue
        out[k] = v
    return out


def diff_files(args):
    old_bench, old_rows = load_rows(args.old)
    new_bench, new_rows = load_rows(args.new)
    if old_bench != new_bench:
        print(f"bench_diff: comparing different benches "
              f"({old_bench} vs {new_bench})", file=sys.stderr)

    old_by_key = {}
    for row in old_rows:
        old_by_key.setdefault(row_key(row), []).append(row)

    regressions = 0
    matched = 0
    for row in new_rows:
        key = row_key(row)
        bucket = old_by_key.get(key)
        if not bucket:
            print(f"NEW ROW   {key}")
            continue
        old_row = bucket.pop(0)
        matched += 1
        lines = []
        for field, new_v in sorted(numeric_fields(row, args.metric).items()):
            old_v = old_row.get(field)
            if not isinstance(old_v, (int, float)) or isinstance(old_v, bool):
                continue
            if old_v == new_v:
                continue
            if old_v == 0:
                rel = float("inf") if new_v != 0 else 0.0
            else:
                rel = 100.0 * (new_v - old_v) / abs(old_v)
            mark = ""
            # Direction-aware: latency-style metrics regress upward,
            # throughput-style metrics regress downward.
            regress_pct = -rel if args.higher_is_better else rel
            if args.max_regress is not None and regress_pct > args.max_regress:
                mark = "  <-- REGRESSION"
                regressions += 1
            lines.append(f"    {field}: {old_v:.6g} -> {new_v:.6g} "
                         f"({rel:+.1f}%){mark}")
        if lines or args.all:
            print(f"ROW       {key}")
            for line in lines:
                print(line)
    for key, bucket in old_by_key.items():
        for _ in bucket:
            print(f"GONE      {key}")

    print(f"bench_diff: {matched} rows matched, "
          f"{len(new_rows) - matched} new, "
          f"{sum(len(b) for b in old_by_key.values())} gone, "
          f"{regressions} regressions over threshold")
    return 1 if regressions else 0


# --- tree mode -------------------------------------------------------
def load_tree(tree):
    """{cell_id: rows} for every sealed cell of a results tree."""
    tree = pathlib.Path(tree)
    manifest_path = tree / "RESULTS_MANIFEST.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {manifest_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if manifest.get("schema") != "bdsm-results-v1":
        print(f"bench_diff: {manifest_path} is not a bdsm-results-v1 "
              "manifest", file=sys.stderr)
        sys.exit(2)
    cells = {}
    for entry in manifest.get("cells", []):
        if entry.get("status") != "sealed":
            continue
        cid = entry["id"]
        path = tree / "cells" / f"{cid}.json"
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: manifest says {cid} is sealed but "
                  f"{path} is unreadable: {e}", file=sys.stderr)
            sys.exit(2)
        if not doc.get("sealed") or doc.get("cell_id") != cid:
            print(f"bench_diff: {path} is not a sealed row file for "
                  f"{cid}", file=sys.stderr)
            sys.exit(2)
        cells[cid] = doc.get("rows", [])
    return cells


def diff_cell_rows(cell_id, old_rows, new_rows, max_regress, show_all):
    """Gates one common cell; returns the number of gate failures."""
    failures = 0
    old_by_key = {}
    for row in old_rows:
        old_by_key.setdefault(row_key(row), []).append(row)
    for row in new_rows:
        key = row_key(row)
        bucket = old_by_key.get(key)
        if not bucket:
            # Inside a common cell the row set is part of the result
            # (e.g. a per-tenant row vanishing) — zero tolerance.
            print(f"FAIL {cell_id}: new row with no baseline "
                  f"counterpart [{key}]")
            failures += 1
            continue
        old_row = bucket.pop(0)
        lines = []
        for field, new_v in sorted(numeric_fields(row, None).items()):
            old_v = old_row.get(field)
            if not isinstance(old_v, (int, float)) or isinstance(old_v, bool):
                continue
            if field in ZERO_TOLERANCE:
                if old_v != new_v:
                    print(f"FAIL {cell_id}: {field} changed "
                          f"{old_v:.6g} -> {new_v:.6g} "
                          f"(zero tolerance) [{key}]")
                    failures += 1
                continue
            if old_v == new_v:
                continue
            if old_v == 0:
                rel = float("inf") if new_v != 0 else 0.0
            else:
                rel = 100.0 * (new_v - old_v) / abs(old_v)
            direction = metric_direction(field)
            mark = ""
            if max_regress is not None and direction is not None:
                regress_pct = -rel if direction == "higher" else rel
                if regress_pct > max_regress:
                    mark = "  <-- REGRESSION"
                    failures += 1
            lines.append(f"    {field}: {old_v:.6g} -> {new_v:.6g} "
                         f"({rel:+.1f}%){mark}")
        if lines and (show_all or any("REGRESSION" in l for l in lines)):
            print(f"CELL {cell_id} [{key}]")
            for line in lines:
                print(line)
    for key, bucket in old_by_key.items():
        for _ in bucket:
            print(f"FAIL {cell_id}: baseline row vanished [{key}]")
            failures += 1
    return failures


def diff_trees(args):
    old_cells = load_tree(args.old)
    new_cells = load_tree(args.new)

    failures = 0
    compared = 0
    for cell_id in old_cells:
        if cell_id not in new_cells:
            print(f"FAIL missing cell: {cell_id} sealed in baseline, "
                  "absent/unsealed in new tree")
            failures += 1
    new_only = [c for c in new_cells if c not in old_cells]
    for cell_id in new_only:
        print(f"NEW CELL  {cell_id} (no baseline; not gated)")
    for cell_id, old_rows in old_cells.items():
        if cell_id not in new_cells:
            continue
        compared += 1
        failures += diff_cell_rows(cell_id, old_rows, new_cells[cell_id],
                                   args.max_regress, args.all)

    print(f"bench_diff[tree]: {compared} cells compared, "
          f"{len(old_cells) - compared} missing, {len(new_only)} new, "
          f"{failures} gate failures")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline row file, or tree with --tree")
    ap.add_argument("new", help="candidate row file, or tree with --tree")
    ap.add_argument("--tree", action="store_true",
                    help="OLD/NEW are run_matrix.py results trees; gate "
                         "every cell (direction-aware, zero-tolerance "
                         "match counts, missing cells fail)")
    ap.add_argument("--metric", action="append", default=[],
                    help="numeric field(s) to diff (two-file mode; "
                         "default: all)")
    ap.add_argument("--max-regress", type=float, default=None, metavar="PCT",
                    help="fail on a >PCT%% regression. Two-file mode: "
                         "requires --metric (growth by default; a drop "
                         "with --higher-is-better). Tree mode: gates "
                         "every known-direction metric, each in its own "
                         "direction")
    ap.add_argument("--higher-is-better", action="store_true",
                    help="two-file mode: gated metrics are "
                         "higher-is-better (regression is a drop)")
    ap.add_argument("--all", action="store_true",
                    help="print rows with no gate failure too")
    args = ap.parse_args()

    if args.tree:
        if args.metric or args.higher_is_better:
            print("bench_diff: --metric/--higher-is-better are two-file "
                  "flags; tree mode is direction-aware per metric",
                  file=sys.stderr)
            sys.exit(2)
        return diff_trees(args)

    if args.max_regress is not None and not args.metric:
        # A change is only a regression relative to the metric's
        # direction, so the gate must name which fields it judges.
        print("bench_diff: --max-regress requires --metric (and "
              "--higher-is-better when the metric is throughput-like)",
              file=sys.stderr)
        sys.exit(2)
    return diff_files(args)


if __name__ == "__main__":
    sys.exit(main())
