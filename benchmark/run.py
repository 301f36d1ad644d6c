#!/usr/bin/env python3
"""The repository benchmark: builds `bdsm_bench`, runs each workload in its
own process, derives the end-to-end (or, with --trace, the per-layer)
metrics from the raw samples, checks correctness, and prints every metric
by name with its unit.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 benchmark/run.py [--workload W]... [--seed N] [--seconds S]
                             [--trace [0|1]] [--quick]
    python3 benchmark/run.py --agree A.json B.json

Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root; the pinned input fingerprints from fingerprints.json here.
Results go to benchmark/out/results.json (traces: out/trace-<w>.json and
out/layers-<w>.json).  Exit status: 0 when every check passed, 1 when a
correctness check failed (or --agree found a disagreement), 2 on a usage or
build error.  See benchmark/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUILD = OUT / "build"
BINARY = BUILD / "bdsm_bench"

# p95 needs this many samples for ten to lie beyond it.
TAIL_SAMPLES = 10
# Modeled device makespans are a pure function of the inputs: on equal
# inputs they must agree exactly, not within a bound.
EXACT_ON_EQUAL_INPUTS = {"device_ms_p50", "device_ms_p95"}
# Absolute slack on top of the relative bound, for metrics whose values
# are small enough that timer and allocator noise is a large share.
ABSOLUTE_SLACK = {"setup_s": 0.02}
RUN_TIMEOUT_S = 600


class BenchError(Exception):
    """A usage, build or environment problem (exit status 2)."""


# ------------------------------------------------------------- statistics

def percentile(samples, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_supported(n, p):
    """True when the p-th percentile of n samples has at least
    TAIL_SAMPLES samples beyond it."""
    return samples_beyond(n, p) >= TAIL_SAMPLES


def end_to_end(raw):
    """End-to-end metric values from one measure-mode result of bdsm_bench.
    Host-clock metrics are the median over repetitions of the per-rep value;
    the device makespans are identical across reps (checked by bdsm_bench)."""
    reps = raw["reps"]

    def per_rep(fn):
        return statistics.median(fn(r) for r in reps)

    return {
        "updates_per_s": per_rep(lambda r: raw["updates"] / sum(r["batch_s"])),
        "batch_ms_p50": per_rep(lambda r: percentile(r["batch_s"], 50) * 1e3),
        "batch_ms_p95": per_rep(lambda r: percentile(r["batch_s"], 95) * 1e3),
        "device_ms_p50": percentile(raw["device_s"], 50) * 1e3,
        "device_ms_p95": percentile(raw["device_s"], 95) * 1e3,
        "modeled_ms_p50": per_rep(
            lambda r: percentile(r["modeled_s"], 50) * 1e3),
        "modeled_ms_p95": per_rep(
            lambda r: percentile(r["modeled_s"], 95) * 1e3),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def within_bound(a, b, bound, slack=0.0):
    """True when b differs from a by at most bound * |a| + slack."""
    return abs(b - a) <= bound * abs(a) + slack


# ------------------------------------------------------------- spec files

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins():
    return json.loads((HERE / "fingerprints.json").read_text())


def fingerprint_problems(raw, pins):
    """Differences between a run's input fingerprints and the pinned ones.
    Graph and queries are pinned for every seed, the stream for the pinned
    seed only (the stream is the part --seed varies)."""
    if raw["quick"]:
        return []
    pinned = pins["workloads"].get(raw["workload"])
    if pinned is None:
        return ["no pinned fingerprints for " + raw["workload"]]
    keys = ["graph", "queries"]
    if raw["seed"] == pins["seed"]:
        keys.append("stream")
    return ["%s fingerprint %s, pinned %s" % (k, raw["fingerprints"][k],
                                              pinned[k])
            for k in keys if raw["fingerprints"][k] != pinned[k]]


# ------------------------------------------------------------- build/run

def check_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the repository sources (CMakeLists.txt, src/) "
                         "are not next to benchmark/; nothing to build")


def build():
    check_sources()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bdsm_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build step failed: " + " ".join(cmd))


def run_workload(name, args):
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", str(OUT)]
    if args.trace:
        cmd.append("--trace")
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited with status %d" % (name, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- reporting

def evaluate(raw, spec, pins, trace):
    """Metrics, correctness and notes of one workload's raw result."""
    problems = fingerprint_problems(raw, pins)
    if raw["failed"]:
        problems.append("%d of %d batches failed %s" % (
            raw["failed"], raw["attempted"], raw.get("failures", "")))
    if trace:
        values = raw["layer_metrics"]
        defs = spec["per_layer"]
    else:
        values = end_to_end(raw)
        defs = spec["end_to_end"]
        per_rep = raw["batches"]
        if not raw["quick"] and not tail_supported(per_rep, 95):
            raise BenchError("%s: %d batches per rep leave fewer than %d "
                             "samples beyond p95" % (raw["workload"], per_rep,
                                                     TAIL_SAMPLES))
    metrics = {}
    for d in defs:
        if d["name"] not in values:
            raise BenchError("metric %s is not measured" % d["name"])
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
    return {"metrics": metrics, "correct": not problems,
            "problems": problems, "attempted": raw["attempted"],
            "failed": raw["failed"], "raw": raw}


def print_workload(name, result, trace):
    raw = result["raw"]
    print("== %s  (engine %s, %d vertices, %d edges, %d queries, "
          "%d batches x %d updates, seed %d)" % (
              name, raw["engine"], raw["vertices"], raw["edges"],
              raw["queries"], raw["batches"],
              raw["updates"] // max(1, raw["batches"]), raw["seed"]))
    if not trace:
        reps = len(raw["reps"])
        print("   %d timed reps of %d batches; percentiles per rep, "
              "median over reps; p95 has %d samples beyond it" % (
                  reps, raw["batches"], samples_beyond(raw["batches"], 95)))
        print("   failed_batch_frac = %.6f (%d of %d)" % (
            raw["failed"] / raw["attempted"], raw["failed"],
            raw["attempted"]))
    for metric, m in result["metrics"].items():
        print("   %-28s %16.6g %s" % (metric, m["value"], m["unit"]))
    for p in result["problems"]:
        print("   FAILED: " + p)


def summary_line(results):
    """The final JSON line: plain metric names for one workload,
    `<workload>/<metric>` for several."""
    single = len(results) == 1
    metrics = {}
    for name, r in results.items():
        for metric, m in r["metrics"].items():
            metrics[metric if single else name + "/" + metric] = m
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


# ------------------------------------------------------------- agree

def agree(path_a, path_b, spec):
    """Checks two results.json files of the same commit against each
    end-to-end metric's bound; returns the number of disagreements."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bad = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_inputs = wa["raw"]["fingerprints"] == wb["raw"]["fingerprints"]
        for d in spec["end_to_end"]:
            metric = d["name"]
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            va = wa["metrics"][metric]["value"]
            vb = wb["metrics"][metric]["value"]
            if same_inputs and metric in EXACT_ON_EQUAL_INPUTS:
                ok, rule = va == vb, "exact"
            else:
                slack = ABSOLUTE_SLACK.get(metric, 0.0)
                ok = within_bound(va, vb, d["bound"], slack)
                rule = "%g%%%s" % (d["bound"] * 100,
                                   " + %g" % slack if slack else "")
            bad += not ok
            print("%-14s %-16s %14.6g %14.6g  %-10s %s" % (
                name, metric, va, vb, rule, "ok" if ok else "DISAGREE"))
    print("%d disagreement(s)" % bad)
    return bad


# ------------------------------------------------------------- main

def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=2024,
                   help="update-stream seed (default 2024)")
    p.add_argument("--seconds", type=float,
                   help="measured seconds per workload, at least 3 reps "
                        "(default: BENCHMARK.json run_seconds; 0 with --quick)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="per-layer metrics from the replay")
    p.add_argument("--quick", action="store_true",
                   help="tiny inputs for tests; never for measurement")
    p.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"),
                   help="check two results.json files against the bounds")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else spec["run_seconds"]
    return args


def main(argv):
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.agree:
        return 1 if agree(args.agree[0], args.agree[1], spec) else 0
    pins = load_pins()
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in args.workload:
        results[name] = evaluate(run_workload(name, args), spec, pins,
                                 bool(args.trace))
        print_workload(name, results[name], bool(args.trace))
    (OUT / "results.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "quick": args.quick,
        "workloads": results}, indent=1) + "\n")
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        print("benchmark: %s" % e, file=sys.stderr)
        sys.exit(2)
