/// \file scenario.hpp
/// Named workload scenarios: (dataset, stream shape, query set) triples.
///
/// A scenario is the unit the serving benchmarks speak — "run engine X
/// on scenario Y" — binding a Table-II dataset twin, one stream
/// generator (workload/stream_gen.hpp), and a query-set recipe into a
/// single named, seeded, fully reproducible workload.  The catalog
/// (AllScenarios) is what `bench_scenarios --scenario <name>` and
/// `example_cli --scenario <name>` dispatch on; docs/WORKLOADS.md is
/// the human-readable index.
///
/// Everything is derived from one master seed through DeriveSeed
/// (util/rng.hpp): stream and query extraction use independent
/// sub-seeds, so changing the query recipe never perturbs the stream
/// and vice versa.
#pragma once

#include <string>
#include <vector>

#include "core/tenant.hpp"
#include "graph/datasets.hpp"
#include "graph/query_graph.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm::workload {

/// Default master seed for every scenario surface (bench_scenarios,
/// example_cli --scenario); matches bench::Scale::seed so scenario rows
/// and figure-bench rows in a perf trajectory share provenance.
inline constexpr uint64_t kDefaultScenarioSeed = 2024;

/// Stable sub-seed stream ids (DeriveSeed's second argument).
inline constexpr uint64_t kSeedStreamGen = 1;    ///< update stream
inline constexpr uint64_t kSeedQueryExtract = 2; ///< query extraction
inline constexpr uint64_t kSeedTenantAssign = 3; ///< op -> tenant split

/// One tenant's part in a multi-tenant scenario: its serving contract
/// (core/tenant.hpp) plus its relative share of the stream's ops.
struct TenantRole {
  std::string name;
  TenantPolicy policy;
  /// Relative traffic weight: each stream op is attributed to a role
  /// with probability share/sum(shares), seeded by kSeedTenantAssign —
  /// so the same (scenario, seed) always produces the same split.
  double traffic_share = 1.0;
};

/// A scenario's tenant population.  Empty = classic single-tenant
/// scenario (the stream is driven through ProcessBatch unsplit).
struct TenantMixSpec {
  std::vector<TenantRole> roles;
  bool Enabled() const { return !roles.empty(); }
};

/// Attributes `num_ops` consecutive stream ops to roles by
/// traffic_share; out[i] is the role index of op i.  Pure function of
/// (mix, rng state) — the runner feeds one rng across all batches.
std::vector<size_t> AssignTenants(const TenantMixSpec& mix, size_t num_ops,
                                  Rng* rng);

/// Parses a `--priority-mix` value — "gold:1,silver:2,best_effort:1"
/// (weights optional, default 1) — into an expanded rotation cycle,
/// e.g. [gold, silver, silver, best_effort].  On a malformed entry,
/// returns false and fills `error` with an EngineSpecError-style
/// message listing the valid class names.
bool ParsePriorityMix(const std::string& text,
                      std::vector<PriorityClass>* cycle,
                      std::string* error);

/// Synthesizes an N-tenant mix ("t0".."tN-1", equal traffic shares,
/// permissive policies) with priorities rotating through `cycle`
/// (empty = all silver) — the `--tenants N --priority-mix ...` surface
/// for scenarios that do not define their own mix.
TenantMixSpec MakeUniformTenantMix(size_t n,
                                   const std::vector<PriorityClass>& cycle);

struct ScenarioSpec {
  std::string name;         ///< registry key ("smoke", "churn", ...)
  std::string description;  ///< one line for --list / docs
  DatasetId dataset = DatasetId::kGithub;
  StreamSpec stream;

  // Query-set recipe: connected patterns extracted from the data graph
  // by seeded random walks (graph/query_extractor.hpp).
  size_t num_queries = 4;
  size_t query_size = 5;  ///< |V(Q)|
  /// Rotate Sparse/Tree/Dense across the set (stresses "multi"'s
  /// cross-query launch fusion and ShardedEngine placement with heterogeneous
  /// per-query cost); when false, all queries use `query_class`.
  bool mixed_classes = true;
  QueryGraph::StructureClass query_class =
      QueryGraph::StructureClass::kSparse;

  /// Multi-tenant scenarios (tenant-skew, noisy-neighbor,
  /// overload-storm) populate this; the runner then drives a
  /// tenancy-capable engine through Ingest/PumpFormedBatch instead of
  /// flat ProcessBatch, and reports per-tenant rows + fairness.
  TenantMixSpec tenants;
};

/// The built-in catalog, stable order.  Guaranteed >= 6 entries with
/// unique names (tested).
const std::vector<ScenarioSpec>& AllScenarios();

/// Lookup by name; nullptr when unknown.
const ScenarioSpec* FindScenario(const std::string& name);

/// Extracts the scenario's query set from `g` (deterministic in
/// `seed`).  Classes that the dataset cannot supply (e.g. Dense on a
/// very sparse twin) fall back Sparse -> Tree, so the returned set can
/// be smaller than `spec.num_queries` only when even trees of the
/// requested size are unsamplable.
std::vector<QueryGraph> BuildQuerySet(const LabeledGraph& g,
                                      const ScenarioSpec& spec,
                                      uint64_t seed);

}  // namespace bdsm::workload
