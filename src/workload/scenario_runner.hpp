/// \file scenario_runner.hpp
/// Binds a named scenario to any registry engine spec and measures it.
///
/// The ScenarioRunner is the SLO-style driver behind `bench_scenarios`
/// and `example_cli --scenario`: it materializes a scenario (dataset
/// twin + extracted query set + generated or replayed update stream),
/// runs the stream through an engine built from any spec — "gamma",
/// "tf", "sharded(gamma, shards=4)", anything the EngineRegistry
/// resolves — and reports per-batch latency percentiles (p50/p95/p99),
/// throughput, and truncation counts.
///
/// Latency metric (one core, no wall-clock parallelism claims — see
/// docs/BENCHMARKS.md): each batch's `BatchReport::latency_seconds`,
/// stamped by the engine on its `Engine::Describe()` clock — modeled
/// device seconds (`BatchReport::ModeledSeconds`) for device engines,
/// the per-batch *critical path* (`BatchReport::critical_path_seconds`)
/// for sharded CPU engines, host wall seconds otherwise.
/// `ScenarioReport::latency_metric` names which clock produced the
/// numbers.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace bdsm::persist {
class Checkpointer;
}

namespace bdsm::workload {

/// One batch's measurement.
struct ScenarioBatchMetric {
  size_t ops = 0;                ///< sanitized ops the engine digested
  size_t positive_matches = 0;   ///< summed over queries
  size_t negative_matches = 0;
  size_t truncated_queries = 0;  ///< queries with partial results
  double latency_seconds = 0.0;  ///< per the runner's latency metric
  /// Ingest observability: 0 on the direct ProcessBatch path (there is
  /// no queue to wait in); on the tenant drive path, the worst
  /// virtual-clock wait among the formed batch's ops and the pending-op
  /// depth when it was formed.
  double queue_wait_seconds = 0.0;
  size_t queue_depth = 0;
};

/// One tenant's share of a multi-tenant run (tenant-mix scenarios
/// driven through a tenancy-capable engine; see docs/SERVING.md).
struct ScenarioTenantMetric {
  std::string tenant;
  std::string priority;        ///< "gold" | "silver" | "best_effort"
  size_t offered_ops = 0;
  size_t admitted_ops = 0;
  size_t shed_ops = 0;
  size_t degraded_ops = 0;
  size_t batches = 0;          ///< formed batches carrying its ops
  size_t positive_matches = 0;
  size_t negative_matches = 0;
  /// Sojourn latency (queue wait + service, both under the engine's
  /// clock / the pump's virtual clock) percentiles over the tenant's
  /// formed batches.
  double sojourn_p50_s = 0.0;
  double sojourn_p95_s = 0.0;
  double sojourn_p99_s = 0.0;
  double max_queue_wait_s = 0.0;
};

/// One follower replica's share of a replicated run (engines built
/// from a `replicated(...)` spec; see docs/REPLICATION.md).  Lag is
/// read *after* the end-of-run drain, so nonzero lag means the leader
/// applied batches that never became durable.
struct ScenarioReplicaMetric {
  int replica = -1;
  size_t applied_batches = 0;
  size_t applied_ops = 0;
  size_t lag_batches = 0;
  size_t lag_updates = 0;
  size_t max_lag_batches = 0;  ///< worst staleness observed mid-stream
  size_t resyncs = 0;          ///< snapshot resyncs (generation gaps)
  /// Modeled critical-path split: link seconds vs apply seconds.
  double transport_seconds = 0.0;
  double apply_seconds = 0.0;
};

/// Everything one (scenario, engine) run produced.
struct ScenarioReport {
  std::string scenario;
  std::string engine;          ///< the spec string the caller passed
  std::string canonical_spec;  ///< Engine::Describe() provenance
  uint64_t seed = 0;
  std::string latency_metric;  ///< ClockDomainName of the engine's clock

  size_t num_queries = 0;
  size_t total_ops = 0;
  size_t total_matches = 0;
  size_t truncated_queries = 0;  ///< summed over batches
  size_t truncated_batches = 0;  ///< batches with >= 1 truncated query
  std::vector<ScenarioBatchMetric> batches;

  /// Multi-tenant runs only (scenario has a tenant mix AND the engine
  /// supports tenancy): one row per tenant role, in role order, plus
  /// the Jain fairness index over admitted/offered shares.  Empty /
  /// 1.0 on single-tenant runs.
  std::vector<ScenarioTenantMetric> tenants;
  double fairness = 1.0;

  /// Replicated runs only (Describe().supports_replication): one row
  /// per follower after the end-of-run drain, plus the group's modeled
  /// shipping volume.  Empty / zero otherwise.
  std::vector<ScenarioReplicaMetric> replicas;
  size_t shipped_batches = 0;  ///< batch x follower deliveries
  size_t shipped_bytes = 0;    ///< trace-format bytes over the link
  size_t failovers = 0;
  /// Modeled duration of the last failover (election + tail shipping +
  /// catch-up replay); 0 when no failover happened.
  double failover_seconds = 0.0;

  double TotalLatencySeconds() const;
  double MeanLatencySeconds() const;
  /// Per-batch latency percentile, p in [0, 100].
  double LatencyPercentile(double p) const;
  /// Ops per second under the report's latency metric.
  double ThroughputOpsPerSec() const;
};

/// Verdict on a run stitched from `prefix` and `tail` (a run interrupted
/// and resumed, as the restart and failover drills do) against the
/// uninterrupted `cold` run: "" when prefix+tail ran as many batches as
/// cold and every batch agrees in ops, match counts and truncations;
/// otherwise the first divergence, naming the batch index and field.
/// Timing is never part of the verdict.
std::string StitchedRunDivergence(const ScenarioReport& cold,
                                  const ScenarioReport& prefix,
                                  const ScenarioReport& tail);

class ScenarioRunner {
 public:
  /// Materializes the scenario: loads the dataset twin, extracts the
  /// query set (DeriveSeed(seed, kSeedQueryExtract)), and generates the
  /// stream (DeriveSeed(seed, kSeedStreamGen)).  Deterministic in
  /// (spec, seed).
  ScenarioRunner(const ScenarioSpec& spec,
                 uint64_t seed = kDefaultScenarioSeed);

  /// Swaps the generated stream for a recorded trace (replay); the
  /// dataset and query set still come from the spec, so the trace's
  /// header must name this scenario (that pins the dataset twin the
  /// stream is valid against) — a mismatch is refused with a warning.
  /// Seed mismatches are accepted: same graph, different draw.  False
  /// when the trace cannot be read or names another scenario.
  bool ReplayTrace(const std::string& path);
  /// Writes the current stream as a trace artifact; false on I/O error.
  bool RecordTrace(const std::string& path) const;

  /// Persistence/recovery controls for Run (persist/checkpoint.hpp).
  /// Defaults reproduce the plain full-stream run.
  struct RunControls {
    /// First stream batch to process (a restored engine resumes at
    /// RestoredEngine::next_batch).
    size_t first_batch = 0;
    /// Process at most this many batches — the "kill point" of the
    /// restart scenario; the report then covers the prefix only.
    size_t max_batches = static_cast<size_t>(-1);
    /// Drive this pre-built engine (not owned; its registered queries
    /// are kept — the restored-engine path) instead of building one
    /// from the spec and registering the scenario's query set.
    Engine* engine = nullptr;
    /// When set, the runner Begin()s a checkpoint of the engine at
    /// `first_batch` (base snapshot + manifest) and tees every applied
    /// batch through OnBatchApplied.  Do not combine with an engine
    /// that already has its own attached checkpointer.
    persist::Checkpointer* checkpointer = nullptr;
  };

  /// Runs the whole stream through a freshly built engine.  `options`
  /// tunes budgets/caps (EngineOptions defaults otherwise; inline
  /// spec overrides win).  Throws EngineSpecError on a bad spec —
  /// validate upfront with EngineRegistry::Validate to fail fast.
  /// `controls` scopes the run to a stream window, substitutes a
  /// pre-built (e.g. restored) engine, and/or tees batches into a
  /// checkpoint (PersistError propagates on checkpoint I/O failure).
  ///
  /// Tenant drive: when the scenario has a tenant mix AND the engine
  /// supports tenancy (Describe().supports_tenancy), the runner
  /// registers the roles, splits each stream batch across them
  /// (AssignTenants, DeriveSeed(seed, kSeedTenantAssign)), ingests,
  /// and pumps SLO-formed batches instead of calling ProcessBatch —
  /// filling ScenarioReport::tenants/fairness.  Formation re-draws
  /// batch boundaries, so this mode cannot be combined with
  /// `controls.checkpointer` (the WAL must record the batches the
  /// engine actually processed as the driver saw them) — refused.
  /// A tenant-mix scenario on a tenancy-less engine falls back to the
  /// flat drive (no per-tenant rows).
  ScenarioReport Run(const std::string& engine_spec,
                     const EngineOptions& options = {}) const {
    return Run(engine_spec, options, RunControls{});
  }
  ScenarioReport Run(const std::string& engine_spec,
                     const EngineOptions& options,
                     const RunControls& controls) const;

  const ScenarioSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  const LabeledGraph& graph() const { return graph_; }
  const std::vector<QueryGraph>& queries() const { return queries_; }
  const std::vector<UpdateBatch>& stream() const { return stream_; }

 private:
  /// The tenant drive loop (see Run's docs): registers roles and
  /// queries on a fresh engine, splits + ingests the stream window
  /// [first, last), pumps formed batches, drains, and fills the
  /// per-tenant rows + fairness of `out`.
  ScenarioReport RunTenantDrive(TenantControl* tc, Engine* engine,
                                bool fresh, size_t first, size_t last,
                                const RunControls& controls,
                                ScenarioReport out) const;

  ScenarioSpec spec_;
  uint64_t seed_;
  /// The seed the *stream* was generated from: == seed_ unless a trace
  /// was replayed, in which case the trace header's seed carries over
  /// so RecordTrace preserves provenance.
  uint64_t stream_seed_;
  LabeledGraph graph_;
  std::vector<QueryGraph> queries_;
  std::vector<UpdateBatch> stream_;
};

}  // namespace bdsm::workload
