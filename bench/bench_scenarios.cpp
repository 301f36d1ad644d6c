/// SLO-style scenario driver: runs any registry engine spec over any
/// named workload scenario (src/workload/) and reports per-batch
/// latency percentiles (p50/p95/p99), throughput, and truncation
/// counts.  Not a paper table — this is the serving-layer benchmark
/// substrate every scaling PR measures against (docs/WORKLOADS.md).
///
/// Usage:
///   bench_scenarios [--scenario NAME|all] [--engine SPEC[,SPEC...]]
///                   [--seed N] [--json PATH] [--record PATH]
///                   [--replay PATH] [--budget SECONDS] [--list]
///                   [--checkpoint-dir DIR] [--checkpoint-every N]
///                   [--restart-at K] [--failover-at K] [--tenants N]
///                   [--priority-mix CLASS[:W],...] [--admission on|off]
///                   [--slo SECONDS] [--metrics-json PATH]
///                   [--trace-out PATH] [--out-dir DIR --cell-id ID]
///
/// Experiment matrix (docs/EXPERIMENTS.md): `--out-dir DIR --cell-id
/// ID` replaces `--json` for matrix cells — the row document gains the
/// cell id + a sealed marker and is written atomically to DIR/ID.json,
/// so scripts/experiments/run_matrix.py can resume an interrupted
/// sweep by skipping sealed cells.
///
/// Observability (src/obs/; docs/OBSERVABILITY.md): --metrics-json
/// dumps the unified metrics registry as a bdsm-metrics-v1 document;
/// --trace-out writes clock-domain-tagged phase spans as a
/// chrome://tracing / Perfetto JSON.  Either flag runtime-enables the
/// observability layer for the run; both artifacts carry the run
/// provenance header (tool, scenario, engine, seed, git describe).
///
/// Multi-tenant runs (docs/SERVING.md): tenant-mix scenarios
/// (tenant-skew, noisy-neighbor, overload-storm) drive bare engine
/// specs through an auto-composed tenant(...) front door and report
/// per-tenant rows + the Jain fairness index.  `--tenants N` synthesizes
/// an N-way uniform mix for any scenario that does not define its own
/// (priorities rotate through --priority-mix; default all silver);
/// --admission/--slo tune the composed wrap.  Specs already rooted at
/// tenant(...) are taken verbatim — combining them with these flags is
/// rejected so nothing is silently ignored.
///
/// Defaults: --scenario smoke, --engine gamma, --seed 2024
/// (workload::kDefaultScenarioSeed).  Engines may be any registry spec
/// per the canonical grammar of docs/ENGINES.md, e.g.
/// "sharded(gamma, shards=4)" or "gamma(result_cap=100000)"; every
/// spec is validated before the first run starts.  --record freezes the
/// generated stream as a trace artifact; --replay substitutes a
/// recorded trace for the generated stream.
///
/// Persistence (src/persist/; docs/PERSISTENCE.md):
///   --checkpoint-dir DIR   checkpoint the run into DIR — base
///                          snapshot + WAL tee + snapshot every
///                          --checkpoint-every batches (default 4)
///   --restart-at K         the `restart` scenario drill: run cold,
///                          re-run killed after K batches
///                          (checkpointing into --checkpoint-dir, or a
///                          dir next to it), warm-restore, finish the
///                          stream, verify the stitched run equals the
///                          cold one batch for batch.  Exits 1 on
///                          divergence — this is the CI smoke gate
///                          `scenario_restart`.
///
/// Replication (src/replica/; docs/REPLICATION.md):
///   --failover-at K        the replica-group failover drill: wrap each
///                          engine in replicated(...) (specs already
///                          rooted there are taken verbatim), apply K
///                          batches, kill the leader, promote the
///                          most-caught-up follower (checkpoint restore
///                          + WAL-tail replay), finish the stream, and
///                          verify the stitched run equals an
///                          uninterrupted unreplicated run batch for
///                          batch with follower staleness inside the
///                          poll_every bound.  Exits 1 on divergence —
///                          the CI smoke gate `scenario_failover`.
///                          --checkpoint-dir/--checkpoint-every name
///                          the group's shipping directory and leader
///                          snapshot cadence.  JSON rows carry shipped
///                          bytes/batches, lag, and the modeled
///                          failover + replication throughput under
///                          the critical-path clock.
///
/// Latency metric per engine (one CPU core; never wall-clock
/// parallelism claims): modeled device seconds for device engines,
/// critical-path seconds for sharded CPU engines, host wall otherwise —
/// each JSON row names its clock in "latency_metric".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "persist/restart.hpp"
#include "replica/failover.hpp"
#include "workload/scenario_runner.hpp"

using namespace bdsm;
using namespace bdsm::workload;

namespace {

void ListScenarios() {
  printf("available scenarios (--scenario NAME):\n");
  for (const ScenarioSpec& s : AllScenarios()) {
    printf("  %-10s %s [%s, %zu batches x ~%zu ops, %zu queries of %zu]\n",
           s.name.c_str(), s.description.c_str(),
           StreamKindName(s.stream.kind), s.stream.num_batches,
           s.stream.ops_per_batch, s.num_queries, s.query_size);
  }
  printf("\nregistered engine specs (--engine SPEC; wrappers compose, "
         "grammar in docs/ENGINES.md):\n");
  for (const EngineRegistry::Listing& l :
       EngineRegistry::Instance().Listings()) {
    std::string keys;
    for (const std::string& k : l.option_keys) {
      keys += keys.empty() ? k : ", " + k;
    }
    printf("  %-10s e.g. %-44s %s%s\n", l.name.c_str(), l.example.c_str(),
           keys.empty() ? "(no options)" : "options: ", keys.c_str());
  }
}

/// Splits a comma-separated engine list, honoring spec parentheses:
/// "gamma,sharded(tf, shards=2)" is two specs, not three fragments.
std::vector<std::string> SplitSpecList(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (char c : s) {
    if (c == '(') ++depth;
    if (c == ')' && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

/// The --restart-at drill for one (scenario, engine): cold vs
/// kill+restore+finish, verified batch for batch.  Returns false on
/// divergence.
bool RunRestartDrill(const ScenarioSpec& spec, uint64_t seed,
                     const std::string& engine_spec, size_t kill_at,
                     const std::string& dir,
                     const EngineOptions& options) {
  persist::RestartOutcome outcome;
  try {
    outcome = persist::RunRestartScenario(spec, seed, engine_spec, kill_at,
                                          dir, options);
  } catch (const persist::PersistError& e) {
    fprintf(stderr, "restart drill failed: %s\n", e.what());
    return false;
  }
  printf("  %-16s restart drill: %s — %s\n", engine_spec.c_str(),
         outcome.identical ? "OK" : "DIVERGED", outcome.detail.c_str());

  bench::JsonRow row;
  row.Set("engine", engine_spec)
      .Set("spec", outcome.cold.canonical_spec)
      .Set("latency_metric", outcome.cold.latency_metric)
      .Set("mode", "restart")
      .Set("kill_after_batches", kill_at)
      .Set("restored_at", static_cast<size_t>(outcome.restored_at))
      .Set("wal_batches_replayed",
           static_cast<size_t>(outcome.wal_batches_replayed))
      .Set("identical", outcome.identical ? "yes" : "no");
  bench::JsonSink::Instance().Add(std::move(row));
  return outcome.identical;
}

/// The --failover-at drill for one (scenario, engine): uninterrupted
/// unreplicated run vs replicated prefix + leader kill + promoted
/// follower finishing the stream, verified batch for batch with the
/// staleness bound asserted.  Returns false on divergence.
bool RunFailoverDrill(const ScenarioSpec& spec, uint64_t seed,
                      const std::string& engine_spec, size_t kill_at,
                      const EngineOptions& options) {
  replica::FailoverOutcome outcome;
  try {
    outcome = replica::RunFailoverScenario(spec, seed, engine_spec, kill_at,
                                           options);
  } catch (const EngineSpecError& e) {
    fprintf(stderr, "failover drill cannot replicate \"%s\": %s\n",
            engine_spec.c_str(), e.what());
    return false;
  } catch (const persist::PersistError& e) {
    fprintf(stderr, "failover drill failed: %s\n", e.what());
    return false;
  }
  printf("  %-16s failover drill: %s — %s\n", engine_spec.c_str(),
         outcome.identical ? "OK" : "DIVERGED", outcome.detail.c_str());

  // Replication throughput under the critical-path clock: the slowest
  // follower's applied ops over its modeled ship + apply seconds
  // (followers run in parallel, so the group drains at the slowest
  // chain's rate).
  double replication_ops_per_s = 0.0;
  uint64_t max_lag = 0, resyncs = 0;
  bool first = true;
  for (const ReplicaStats& r : outcome.stats.replicas) {
    const double s = r.transport_seconds + r.apply_seconds;
    if (s > 0.0) {
      const double rate = static_cast<double>(r.applied_ops) / s;
      if (first || rate < replication_ops_per_s) {
        replication_ops_per_s = rate;
      }
      first = false;
    }
    max_lag = std::max(max_lag, r.max_lag_batches);
    resyncs += r.resyncs;
  }

  bench::JsonRow row;
  row.Set("engine", engine_spec)
      .Set("spec", outcome.prefix.canonical_spec)
      .Set("mode", "failover")
      .Set("latency_metric", "critical_path_seconds")
      .Set("kill_after_batches", outcome.killed_at)
      // Zero-tolerance gate columns: deterministic in (spec, scenario,
      // seed) — `total_matches` is the uninterrupted run's count and
      // `matches` the stitched prefix+tail count; CI diffs both at 0%.
      .Set("total_matches", outcome.cold.total_matches)
      .Set("matches",
           outcome.prefix.total_matches + outcome.tail.total_matches)
      .Set("shipped_batches",
           outcome.prefix.shipped_batches + outcome.tail.shipped_batches)
      .Set("shipped_bytes",
           outcome.prefix.shipped_bytes + outcome.tail.shipped_bytes)
      .Set("lag_bound_batches", outcome.lag_bound)
      .Set("max_lag_batches", static_cast<size_t>(max_lag))
      .Set("resyncs", static_cast<size_t>(resyncs))
      .Set("wal_batches_replayed",
           static_cast<size_t>(outcome.stats.last_failover_replayed))
      .Set("failover_modeled_s", outcome.stats.last_failover_seconds)
      .Set("replication_ops_per_s", replication_ops_per_s)
      .Set("identical", outcome.identical ? "yes" : "no")
      .Set("lag_bounded", outcome.lag_bounded ? "yes" : "no");
  bench::JsonSink::Instance().Add(std::move(row));
  return outcome.identical;
}

/// Writes the --metrics-json / --trace-out artifacts (no-op for empty
/// paths).  Returns false, after complaining, when a file cannot be
/// written.
bool WriteObsArtifacts(const std::string& metrics_path,
                       const std::string& trace_path,
                       const obs::RunProvenance& prov) {
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << obs::MetricsRegistry::Instance().Snapshot().ToJson(&prov);
    if (!out) {
      fprintf(stderr, "cannot write metrics JSON %s\n",
              metrics_path.c_str());
      return false;
    }
    printf("wrote metrics JSON to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!obs::TraceRecorder::Instance().WriteChromeJson(trace_path, prov)) {
      fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return false;
    }
    printf("wrote chrome trace to %s (load in chrome://tracing or "
           "ui.perfetto.dev)\n",
           trace_path.c_str());
  }
  return true;
}

void RunOne(const ScenarioRunner& runner, const std::string& engine_spec,
            const EngineOptions& options,
            persist::Checkpointer* checkpointer) {
  ScenarioRunner::RunControls controls;
  controls.checkpointer = checkpointer;
  ScenarioReport r = runner.Run(engine_spec, options, controls);
  double p50 = r.LatencyPercentile(50), p95 = r.LatencyPercentile(95),
         p99 = r.LatencyPercentile(99);
  // Ingest observability (queue wait under the engine's clock, pending
  // depth at formation): worst case over the run's batches.
  double queue_wait_max = 0.0;
  size_t queue_depth_max = 0;
  for (const ScenarioBatchMetric& b : r.batches) {
    queue_wait_max = std::max(queue_wait_max, b.queue_wait_seconds);
    queue_depth_max = std::max(queue_depth_max, b.queue_depth);
  }
  printf(
      "  %-16s %zu batches | latency (%s) p50 %.4g ms  p95 %.4g ms  "
      "p99 %.4g ms | %.4g ops/s | matches %zu | truncated %zu queries / "
      "%zu batches\n",
      engine_spec.c_str(), r.batches.size(), r.latency_metric.c_str(),
      p50 * 1e3, p95 * 1e3, p99 * 1e3, r.ThroughputOpsPerSec(),
      r.total_matches, r.truncated_queries, r.truncated_batches);

  bench::JsonRow row;
  row.Set("engine", engine_spec)
      .Set("spec", r.canonical_spec)
      .Set("latency_metric", r.latency_metric)
      .Set("num_queries", r.num_queries)
      .Set("batches", r.batches.size())
      .Set("total_ops", r.total_ops)
      .Set("total_matches", r.total_matches)
      .Set("latency_p50_s", p50)
      .Set("latency_p95_s", p95)
      .Set("latency_p99_s", p99)
      .Set("latency_mean_s", r.MeanLatencySeconds())
      .Set("throughput_ops_per_s", r.ThroughputOpsPerSec())
      .Set("truncated_queries", r.truncated_queries)
      .Set("truncated_batches", r.truncated_batches)
      .Set("queue_wait_max_s", queue_wait_max)
      .Set("queue_depth_max", queue_depth_max);
  if (!r.tenants.empty()) row.Set("fairness", r.fairness);
  if (!r.replicas.empty()) {
    row.Set("shipped_batches", r.shipped_batches)
        .Set("shipped_bytes", r.shipped_bytes)
        .Set("failovers", r.failovers);
  }
  bench::JsonSink::Instance().Add(std::move(row));

  // Replica accounting (replicated(...) runs only): one printed line
  // and one JSON row per follower — lag under the group's modeled
  // critical-path clock, drained at end of stream by the runner.
  for (const ScenarioReplicaMetric& rep : r.replicas) {
    printf(
        "    replica %d: applied %zu batches / %zu ops | ship %.4g ms + "
        "apply %.4g ms (critical path) | lag %zu (max %zu) | resyncs "
        "%zu\n",
        rep.replica, rep.applied_batches, rep.applied_ops,
        rep.transport_seconds * 1e3, rep.apply_seconds * 1e3,
        rep.lag_batches, rep.max_lag_batches, rep.resyncs);
    bench::JsonRow rrow;
    // Same provenance header as the top-level engine row (spec +
    // clock), so tree-mode bench_diff keys replica rows identically
    // (tests/python/test_provenance_rows.py asserts this).
    rrow.Set("engine", engine_spec)
        .Set("spec", r.canonical_spec)
        .Set("latency_metric", r.latency_metric)
        .Set("replica", static_cast<size_t>(rep.replica))
        .Set("applied_batches", rep.applied_batches)
        .Set("applied_ops", rep.applied_ops)
        .Set("lag_batches", rep.lag_batches)
        .Set("max_lag_batches", rep.max_lag_batches)
        .Set("resyncs", rep.resyncs)
        .Set("transport_s", rep.transport_seconds)
        .Set("apply_s", rep.apply_seconds);
    bench::JsonSink::Instance().Add(std::move(rrow));
  }

  // Per-tenant accounting (multi-tenant runs only): one printed line
  // and one JSON row per tenant — the "tenant" field keys the rows
  // apart in bench_diff.py; no throughput field, so they inform but
  // never gate.
  for (const ScenarioTenantMetric& t : r.tenants) {
    printf(
        "    tenant %-10s [%s] offered %zu admitted %zu shed %zu "
        "degraded %zu | sojourn p50 %.4g ms  p95 %.4g ms  p99 %.4g ms | "
        "max wait %.4g ms | matches %zu\n",
        t.tenant.c_str(), t.priority.c_str(), t.offered_ops,
        t.admitted_ops, t.shed_ops, t.degraded_ops, t.sojourn_p50_s * 1e3,
        t.sojourn_p95_s * 1e3, t.sojourn_p99_s * 1e3,
        t.max_queue_wait_s * 1e3,
        t.positive_matches + t.negative_matches);
    bench::JsonRow trow;
    // Tenant rows carry the engine row's provenance header too; the
    // sojourn percentiles below are under the same declared clock.
    trow.Set("engine", engine_spec)
        .Set("spec", r.canonical_spec)
        .Set("latency_metric", r.latency_metric)
        .Set("tenant", t.tenant)
        .Set("priority", t.priority)
        .Set("offered_ops", t.offered_ops)
        .Set("admitted_ops", t.admitted_ops)
        .Set("shed_ops", t.shed_ops)
        .Set("degraded_ops", t.degraded_ops)
        .Set("batches", t.batches)
        .Set("matches", t.positive_matches + t.negative_matches)
        .Set("sojourn_p50_s", t.sojourn_p50_s)
        .Set("sojourn_p95_s", t.sojourn_p95_s)
        .Set("sojourn_p99_s", t.sojourn_p99_s)
        .Set("max_queue_wait_s", t.max_queue_wait_s);
    bench::JsonSink::Instance().Add(std::move(trow));
  }
  if (!r.tenants.empty()) {
    printf("    fairness (Jain, admitted/offered shares): %.4f\n",
           r.fairness);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "smoke";
  std::string engines_arg = "gamma";
  std::string record_path, replay_path, checkpoint_dir;
  std::string metrics_json_path, trace_out_path;
  uint64_t seed = kDefaultScenarioSeed;
  double budget_s = 0.0;
  size_t checkpoint_every = 4;
  long restart_at = -1;
  long failover_at = -1;
  bool list_only = false;
  long tenants_n = 0;
  std::string priority_mix_arg;
  bool admission_on = true, have_admission = false;
  double slo_s = 0.0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs an argument\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario_name = next("--scenario");
    } else if (std::strcmp(argv[i], "--engine") == 0) {
      engines_arg = next("--engine");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record_path = next("--record");
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = next("--replay");
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      budget_s = std::atof(next("--budget"));
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
      checkpoint_dir = next("--checkpoint-dir");
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      checkpoint_every = std::strtoull(next("--checkpoint-every"),
                                       nullptr, 10);
    } else if (std::strcmp(argv[i], "--restart-at") == 0) {
      restart_at = std::atol(next("--restart-at"));
      if (restart_at < 1) {
        fprintf(stderr, "--restart-at wants a kill point >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--failover-at") == 0) {
      failover_at = std::atol(next("--failover-at"));
      if (failover_at < 1) {
        fprintf(stderr, "--failover-at wants a kill point >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      tenants_n = std::atol(next("--tenants"));
      if (tenants_n < 1) {
        fprintf(stderr, "--tenants wants a tenant count >= 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--priority-mix") == 0) {
      priority_mix_arg = next("--priority-mix");
    } else if (std::strcmp(argv[i], "--admission") == 0) {
      const char* v = next("--admission");
      if (std::strcmp(v, "on") == 0) {
        admission_on = true;
      } else if (std::strcmp(v, "off") == 0) {
        admission_on = false;
      } else {
        fprintf(stderr, "--admission wants on|off, got \"%s\"\n", v);
        return 2;
      }
      have_admission = true;
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      slo_s = std::atof(next("--slo"));
      if (slo_s <= 0.0) {
        fprintf(stderr, "--slo wants a latency target in seconds > 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json_path = next("--metrics-json");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out_path = next("--trace-out");
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--out-dir") == 0 ||
               std::strcmp(argv[i], "--cell-id") == 0 ||
               std::strcmp(argv[i], "--cell-key") == 0) {
      ++i;  // consumed by InitBench
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      ListScenarios();
      return 2;
    }
  }
  if (list_only) {
    ListScenarios();
    return 0;
  }
  bench::InitBench("bench_scenarios", argc, argv);

  std::vector<const ScenarioSpec*> scenarios;
  if (scenario_name == "all") {
    // One trace file cannot serve several scenarios: --record would
    // silently keep only the last scenario's stream and --replay would
    // feed one scenario's stream to graphs it is invalid against.
    // One checkpoint directory cannot either (one manifest = one
    // stream).
    if (!record_path.empty() || !replay_path.empty() ||
        !checkpoint_dir.empty() || restart_at >= 0 || failover_at >= 0) {
      fprintf(stderr,
              "--record/--replay/--checkpoint-dir/--restart-at/"
              "--failover-at need a single --scenario, not all\n");
      return 2;
    }
    for (const ScenarioSpec& s : AllScenarios()) scenarios.push_back(&s);
  } else {
    const ScenarioSpec* s = FindScenario(scenario_name);
    if (s == nullptr) {
      fprintf(stderr, "unknown scenario \"%s\"\n", scenario_name.c_str());
      ListScenarios();
      return 2;
    }
    scenarios.push_back(s);
  }

  // Fail fast: every engine spec is parsed and validated (names,
  // nesting arity, option keys/values, recursively) before the first
  // run starts — a sweep must never die on a typo mid-way through.
  std::vector<std::string> engines = SplitSpecList(engines_arg);
  if (engines.empty()) {
    fprintf(stderr, "--engine needs at least one spec\n");
    return 2;
  }
  for (const std::string& e : engines) {
    if (std::optional<std::string> err =
            EngineRegistry::Instance().Validate(e)) {
      fprintf(stderr, "bad --engine spec \"%s\": %s\n", e.c_str(),
              err->c_str());
      return 2;
    }
  }
  // One checkpoint directory holds one checkpoint: measuring several
  // engines through the same --checkpoint-dir would leave only the
  // last engine's state restorable, silently.  (The restart drill is
  // exempt — each drill restores and verifies before the next engine
  // reuses the directory.)
  // Each drill runs its engines one at a time, so they cannot be
  // combined — the two modes disagree on who owns the checkpoint tee.
  if (restart_at >= 0 && failover_at >= 0) {
    fprintf(stderr,
            "--restart-at and --failover-at are separate drills; run "
            "them as two invocations\n");
    return 2;
  }
  // A replica group ships its own WAL; attaching the measurement
  // loop's Checkpointer on top would tee the stream twice.
  if (!checkpoint_dir.empty() && restart_at < 0 && failover_at < 0) {
    for (const std::string& e : engines) {
      if (EngineRegistry::Instance().Canonicalize(EngineSpec::Parse(e))
              .name == "replicated") {
        fprintf(stderr,
                "--checkpoint-dir conflicts with the replicated(...) "
                "spec \"%s\" (the group ships its own WAL; point "
                "EngineOptions::replica.dir — or --failover-at's "
                "--checkpoint-dir — at it instead)\n",
                e.c_str());
        return 2;
      }
    }
  }
  if (!checkpoint_dir.empty() && restart_at < 0 && failover_at < 0 &&
      engines.size() > 1) {
    fprintf(stderr,
            "--checkpoint-dir needs a single --engine (one manifest = "
            "one engine's checkpoint); run the engines separately with "
            "their own directories\n");
    return 2;
  }

  // ---- multi-tenant flag surface (docs/SERVING.md) ----
  // Every unknown or conflicting combination is rejected up front with
  // a message naming what is valid, mirroring EngineSpecError style.
  std::vector<PriorityClass> mix_cycle;
  if (!priority_mix_arg.empty()) {
    if (tenants_n == 0) {
      fprintf(stderr,
              "--priority-mix needs --tenants N (it rotates priorities "
              "across the synthesized tenants)\n");
      return 2;
    }
    std::string err;
    if (!ParsePriorityMix(priority_mix_arg, &mix_cycle, &err)) {
      fprintf(stderr, "bad --priority-mix \"%s\": %s\n",
              priority_mix_arg.c_str(), err.c_str());
      return 2;
    }
  }
  if (tenants_n > 0) {
    if (scenario_name == "all") {
      fprintf(stderr,
              "--tenants needs a single --scenario (the synthesized mix "
              "would collide with the tenant-mix scenarios in the "
              "catalog)\n");
      return 2;
    }
    const ScenarioSpec* s = scenarios.front();
    if (s->tenants.Enabled()) {
      std::string roles;
      for (const TenantRole& r : s->tenants.roles) {
        if (!roles.empty()) roles += ", ";
        roles += r.name;
      }
      fprintf(stderr,
              "scenario \"%s\" defines its own tenant mix (roles: %s); "
              "--tenants only applies to scenarios without one\n",
              s->name.c_str(), roles.c_str());
      return 2;
    }
  }
  bool any_mix = tenants_n > 0;
  for (const ScenarioSpec* s : scenarios) {
    any_mix = any_mix || s->tenants.Enabled();
  }
  if ((have_admission || slo_s > 0.0) && !any_mix) {
    fprintf(stderr,
            "--admission/--slo only apply to multi-tenant runs — pick a "
            "tenant-mix scenario (tenant-skew, noisy-neighbor, "
            "overload-storm) or pass --tenants N\n");
    return 2;
  }
  // Explicit tenant(...) specs are taken verbatim; wrap flags on top of
  // one would be silently ignored, so the combination is an error.
  if (tenants_n > 0 || have_admission || slo_s > 0.0) {
    for (const std::string& e : engines) {
      if (EngineSpec::Parse(e).name == "tenant") {
        fprintf(stderr,
                "--tenants/--priority-mix/--admission/--slo conflict "
                "with the explicit tenant(...) spec \"%s\"; set "
                "tenants=/admission=/slo= keys inside the spec instead\n",
                e.c_str());
        return 2;
      }
    }
  }
  if (any_mix && (!checkpoint_dir.empty() || restart_at >= 0 ||
                  failover_at >= 0)) {
    fprintf(stderr,
            "multi-tenant runs cannot be checkpointed, restart-drilled, "
            "or replicated (batch formation re-draws the batch "
            "boundaries a WAL would have to record; docs/SERVING.md); "
            "drop --checkpoint-dir/--restart-at/--failover-at or use a "
            "single-tenant scenario\n");
    return 2;
  }

  EngineOptions options;
  if (budget_s > 0.0) {
    options.gamma.device.host_budget_seconds = budget_s;
    options.csm_budget_seconds = budget_s;
  }

  // Run provenance (docs/OBSERVABILITY.md): printed on every run,
  // embedded in the --metrics-json / --trace-out artifact headers.
  obs::RunProvenance prov;
  prov.tool = "bench_scenarios";
  prov.scenario = scenario_name;
  prov.engine = engines_arg;
  prov.seed = seed;
  prov.obs_compiled = BDSM_OBS != 0;
  if (!metrics_json_path.empty() || !trace_out_path.empty()) {
    obs::SetEnabled(true);
    if (!trace_out_path.empty()) {
      obs::TraceRecorder::Instance().SetEnabled(true);
    }
  }

  printf("=== scenario driver ===\nseed %llu (default %llu; see "
         "docs/WORKLOADS.md)\ngit %s | obs %s\n\n",
         static_cast<unsigned long long>(seed),
         static_cast<unsigned long long>(kDefaultScenarioSeed),
         obs::GitDescribe(),
         prov.obs_compiled
             ? (obs::Enabled() ? "enabled" : "compiled, off")
             : "compiled out");

  // The restart drill is its own mode: it runs the scenario several
  // times (cold / killed / restored) per engine, so the plain
  // measurement loop below does not apply.
  if (restart_at >= 0) {
    const ScenarioSpec* spec = scenarios.front();
    if (checkpoint_dir.empty()) checkpoint_dir = "ckpt_restart";
    printf("scenario %-10s — restart drill: kill after %ld batches, "
           "checkpoint dir %s\n",
           spec->name.c_str(), restart_at, checkpoint_dir.c_str());
    bench::JsonContext("scenario", spec->name);
    bench::JsonContext("seed", static_cast<size_t>(seed));
    bool all_ok = true;
    for (const std::string& e : engines) {
      all_ok = RunRestartDrill(*spec, seed, e,
                               static_cast<size_t>(restart_at),
                               checkpoint_dir, options) &&
               all_ok;
    }
    if (!WriteObsArtifacts(metrics_json_path, trace_out_path, prov)) {
      return 1;
    }
    if (!all_ok) return 1;
    bench::FinishBench();
    return 0;
  }

  // The failover drill mirrors it for the replica layer: the group
  // owns its own WAL tee, so --checkpoint-dir/--checkpoint-every
  // configure the group instead of attaching a Checkpointer.
  if (failover_at >= 0) {
    const ScenarioSpec* spec = scenarios.front();
    EngineOptions drill_options = options;
    drill_options.replica.dir = checkpoint_dir;  // "" = fresh temp dir
    drill_options.replica.checkpoint_every = checkpoint_every;
    printf("scenario %-10s — failover drill: kill the leader after %ld "
           "batches, shipping dir %s\n",
           spec->name.c_str(), failover_at,
           checkpoint_dir.empty() ? "(temp)" : checkpoint_dir.c_str());
    bench::JsonContext("scenario", spec->name);
    bench::JsonContext("seed", static_cast<size_t>(seed));
    bool all_ok = true;
    for (const std::string& e : engines) {
      all_ok = RunFailoverDrill(*spec, seed, e,
                                static_cast<size_t>(failover_at),
                                drill_options) &&
               all_ok;
    }
    if (!WriteObsArtifacts(metrics_json_path, trace_out_path, prov)) {
      return 1;
    }
    if (!all_ok) return 1;
    bench::FinishBench();
    return 0;
  }

  for (const ScenarioSpec* spec : scenarios) {
    ScenarioSpec eff = *spec;
    if (tenants_n > 0) {
      eff.tenants =
          MakeUniformTenantMix(static_cast<size_t>(tenants_n), mix_cycle);
    }
    ScenarioRunner runner(eff, seed);
    if (!replay_path.empty()) {
      if (!runner.ReplayTrace(replay_path)) {
        fprintf(stderr, "cannot replay trace %s\n", replay_path.c_str());
        return 1;
      }
    }
    if (!record_path.empty()) {
      if (!runner.RecordTrace(record_path)) {
        fprintf(stderr, "cannot record trace %s\n", record_path.c_str());
        return 1;
      }
      printf("recorded %zu batches to %s\n", runner.stream().size(),
             record_path.c_str());
    }
    printf("scenario %-10s [%s] — %s\n  graph |V|=%zu |E|=%zu, "
           "%zu queries, %zu batches%s\n",
           spec->name.c_str(), StreamKindName(spec->stream.kind),
           spec->description.c_str(), runner.graph().NumVertices(),
           runner.graph().NumEdges(), runner.queries().size(),
           runner.stream().size(),
           replay_path.empty() ? "" : " (replayed)");
    bench::JsonContext("scenario", spec->name);
    bench::JsonContext("seed", static_cast<size_t>(seed));
    std::optional<persist::Checkpointer> checkpointer;
    if (!checkpoint_dir.empty()) {
      persist::CheckpointPolicy policy;
      policy.every_batches = checkpoint_every;
      checkpointer.emplace(checkpoint_dir, policy);
      printf("  checkpointing into %s (snapshot every %zu batches)\n",
             checkpoint_dir.c_str(), checkpoint_every);
    }
    // Tenant-mix runs drive bare specs through a composed tenant(...)
    // wrap (explicit tenant specs pass through verbatim); the composed
    // spec is printed so the JSON "spec" provenance is no surprise.
    std::vector<std::string> run_engines = engines;
    if (eff.tenants.Enabled()) {
      for (std::string& e : run_engines) {
        EngineSpec parsed = EngineSpec::Parse(e);
        if (parsed.name == "tenant") continue;
        EngineSpec wrapped;
        wrapped.name = "tenant";
        wrapped.children.push_back(std::move(parsed));
        if (have_admission && !admission_on) {
          wrapped.options.emplace_back("admission", "off");
        }
        if (slo_s > 0.0) {
          char buf[32];
          snprintf(buf, sizeof buf, "%g", slo_s);
          wrapped.options.emplace_back("slo", buf);
        }
        std::string w = wrapped.ToString();
        printf("  note: driving \"%s\" as %s (tenant mix)\n", e.c_str(),
               w.c_str());
        e = std::move(w);
      }
    }
    for (const std::string& e : run_engines) {
      try {
        RunOne(runner, e, options,
               checkpointer ? &*checkpointer : nullptr);
      } catch (const persist::PersistError& err) {
        fprintf(stderr, "checkpointing failed: %s\n", err.what());
        return 1;
      }
    }
    printf("\n");
  }
  if (!WriteObsArtifacts(metrics_json_path, trace_out_path, prov)) {
    return 1;
  }
  bench::FinishBench();
  return 0;
}
