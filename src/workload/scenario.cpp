#include "workload/scenario.hpp"

#include "graph/query_extractor.hpp"

namespace bdsm::workload {

namespace {

size_t DatasetElabels(DatasetId id) {
  for (const DatasetSpec& s : AllDatasets()) {
    if (s.id == id) return s.edge_labels > 1 ? s.edge_labels : 0;
  }
  return 0;
}

ScenarioSpec MakeSpec(std::string name, std::string description,
                      DatasetId dataset, StreamKind kind,
                      size_t num_batches, size_t ops_per_batch,
                      size_t num_queries, size_t query_size,
                      bool mixed_classes) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.dataset = dataset;
  s.stream.kind = kind;
  s.stream.num_batches = num_batches;
  s.stream.ops_per_batch = ops_per_batch;
  s.stream.elabels = DatasetElabels(dataset);
  s.num_queries = num_queries;
  s.query_size = query_size;
  s.mixed_classes = mixed_classes;
  return s;
}

TenantRole MakeRole(std::string name, PriorityClass priority, double share,
                    double rate, size_t queue_limit, size_t result_budget) {
  TenantRole r;
  r.name = std::move(name);
  r.policy.priority = priority;
  r.policy.rate_ops_per_batch = rate;
  r.policy.queue_limit_ops = queue_limit;
  r.policy.result_budget = result_budget;
  r.traffic_share = share;
  return r;
}

}  // namespace

std::vector<size_t> AssignTenants(const TenantMixSpec& mix, size_t num_ops,
                                  Rng* rng) {
  std::vector<size_t> out(num_ops, 0);
  if (mix.roles.size() < 2) return out;
  double total = 0.0;
  for (const TenantRole& r : mix.roles) total += r.traffic_share;
  for (size_t i = 0; i < num_ops; ++i) {
    double draw = rng->UniformReal() * total;
    size_t role = mix.roles.size() - 1;
    for (size_t r = 0; r < mix.roles.size(); ++r) {
      draw -= mix.roles[r].traffic_share;
      if (draw < 0.0) {
        role = r;
        break;
      }
    }
    out[i] = role;
  }
  return out;
}

bool ParsePriorityMix(const std::string& text,
                      std::vector<PriorityClass>* cycle,
                      std::string* error) {
  cycle->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    // Tolerate stray spaces around entries ("gold, silver:2").
    while (!entry.empty() && entry.front() == ' ') entry.erase(0, 1);
    while (!entry.empty() && entry.back() == ' ') entry.pop_back();
    if (entry.empty()) {
      if (error != nullptr) {
        *error = "empty entry in priority mix \"" + text +
                 "\"; expected CLASS[:WEIGHT][,CLASS[:WEIGHT]...] with "
                 "classes: " +
                 ValidPriorityClassNames();
      }
      return false;
    }
    const size_t colon = entry.find(':');
    const std::string name = entry.substr(0, colon);
    size_t weight = 1;
    if (colon != std::string::npos) {
      const std::string w = entry.substr(colon + 1);
      weight = 0;
      bool digits = !w.empty();
      for (char c : w) digits = digits && c >= '0' && c <= '9';
      if (digits) weight = static_cast<size_t>(std::stoull(w));
      if (!digits || weight == 0) {
        if (error != nullptr) {
          *error = "bad weight \"" + w + "\" for class \"" + name +
                   "\" in priority mix; expected a positive integer";
        }
        return false;
      }
    }
    PriorityClass pc;
    if (!PriorityClassFromName(name, &pc)) {
      if (error != nullptr) {
        *error = "unknown priority class \"" + name +
                 "\" in priority mix; valid classes: " +
                 ValidPriorityClassNames();
      }
      return false;
    }
    for (size_t i = 0; i < weight; ++i) cycle->push_back(pc);
  }
  return true;
}

TenantMixSpec MakeUniformTenantMix(size_t n,
                                   const std::vector<PriorityClass>& cycle) {
  TenantMixSpec mix;
  for (size_t i = 0; i < n; ++i) {
    TenantRole r;
    r.name = "t" + std::to_string(i);
    r.policy.priority =
        cycle.empty() ? PriorityClass::kSilver : cycle[i % cycle.size()];
    mix.roles.push_back(std::move(r));
  }
  return mix;
}

const std::vector<ScenarioSpec>& AllScenarios() {
  static const std::vector<ScenarioSpec> kScenarios = [] {
    std::vector<ScenarioSpec> v;

    // CI's scenario: small enough for seconds on one core, still
    // exercising mixed inserts+deletes and a real extracted query.
    ScenarioSpec smoke =
        MakeSpec("smoke", "tiny uniform mix on GH (CI gate)",
                 DatasetId::kGithub, StreamKind::kUniform,
                 /*batches=*/3, /*ops=*/48, /*queries=*/2,
                 /*qsize=*/4, /*mixed=*/false);
    v.push_back(smoke);

    v.push_back(MakeSpec(
        "uniform", "uniform endpoint mix on GH (baseline shape)",
        DatasetId::kGithub, StreamKind::kUniform, 8, 200, 4, 5, true));

    v.push_back(MakeSpec(
        "powerlaw",
        "Chung-Lu degree-skewed growth on ST (preferential attachment)",
        DatasetId::kSkitter, StreamKind::kPowerLaw, 8, 200, 4, 5, true));

    ScenarioSpec temporal = MakeSpec(
        "temporal",
        "sliding-window insert/expire on NF (edge-labeled, window 3)",
        DatasetId::kNetflow, StreamKind::kTemporal, 10, 150, 3, 4, false);
    temporal.stream.window_batches = 3;
    v.push_back(temporal);

    ScenarioSpec burst = MakeSpec(
        "burst", "flash-crowd spikes on GH (every 4th batch 6x, crowded)",
        DatasetId::kGithub, StreamKind::kBurst, 8, 100, 4, 5, true);
    burst.stream.burst_factor = 6.0;
    burst.stream.burst_period = 4;
    v.push_back(burst);

    v.push_back(MakeSpec(
        "churn", "deletion-heavy turnover on AZ (65% deletes)",
        DatasetId::kAmazon, StreamKind::kChurn, 8, 200, 4, 5, true));

    // The replica layer's drill workload (docs/REPLICATION.md): a
    // churn-mix stream long enough that a mid-stream leader kill
    // leaves real WAL tail on both sides — checkpoint generations
    // switch and segments roll under the default replica policy
    // (checkpoint_every=8, segment_batches=256 — override via the
    // replicated(...) spec keys to stress rotation harder).  Drive it
    // with `bench_scenarios --scenario failover --failover-at K`.
    v.push_back(MakeSpec(
        "failover",
        "12-batch churn mix on GH for the leader-kill drill",
        DatasetId::kGithub, StreamKind::kChurn, 12, 120, 3, 4, true));

    v.push_back(MakeSpec(
        "hotspot", "hot-vertex concentration on LJ (1% of V, p=0.8)",
        DatasetId::kLiveJournal, StreamKind::kHotspot, 8, 200, 4, 5,
        true));

    // Many small heterogeneous queries: the stressor of "multi"'s fused
    // launches and of ShardedEngine placement.
    v.push_back(MakeSpec(
        "multishare",
        "12 mixed-class queries on GH (multi/sharding stressor)",
        DatasetId::kGithub, StreamKind::kUniform, 6, 150, 12, 4, true));

    // ---- multi-tenant scenarios (serve/tenant_front_door.hpp) ----
    // These populate ScenarioSpec::tenants; drive them through a
    // tenancy-capable engine spec — bench_scenarios auto-wraps bare
    // specs in tenant(...) when the scenario has a mix.

    // Skewed but equally-entitled tenants: 8:4:2:1 traffic against
    // identical rate limits, so the heavy tenants overrun their
    // buckets and the fairness index shows how evenly service tracked
    // entitlement rather than demand.
    ScenarioSpec skew =
        MakeSpec("tenant-skew",
                 "4 tenants, 8:4:2:1 traffic, equal rate limits on GH",
                 DatasetId::kGithub, StreamKind::kUniform, 6, 120, 4, 4,
                 true);
    skew.tenants.roles = {
        MakeRole("t-heavy", PriorityClass::kSilver, 8.0, /*rate=*/40,
                 /*queue=*/256, /*budget=*/0),
        MakeRole("t-mid", PriorityClass::kSilver, 4.0, 40, 256, 0),
        MakeRole("t-low", PriorityClass::kSilver, 2.0, 40, 256, 0),
        MakeRole("t-tail", PriorityClass::kSilver, 1.0, 40, 256, 0),
    };
    v.push_back(skew);

    // The acceptance experiment: a small gold victim sharing the door
    // with a best-effort hog at ~6x its traffic.  Admission ON must
    // bound the victim's sojourn p99 near its solo run; admission OFF
    // (global FIFO) lets the hog's backlog stall it.
    ScenarioSpec noisy =
        MakeSpec("noisy-neighbor",
                 "gold victim vs 6x best-effort hog on GH (admission demo)",
                 DatasetId::kGithub, StreamKind::kUniform, 8, 160, 4, 4,
                 true);
    noisy.tenants.roles = {
        MakeRole("victim", PriorityClass::kGold, 1.0, /*rate=*/0,
                 /*queue=*/512, /*budget=*/0),
        MakeRole("hog", PriorityClass::kBestEffort, 6.0, /*rate=*/48,
                 /*queue=*/256, /*budget=*/0),
    };
    v.push_back(noisy);

    // Everyone bursts at once: flash-crowd stream against tight queue
    // bounds — the pump must shed deterministically instead of
    // blocking, and the SLO controller gets real pressure to adapt.
    ScenarioSpec storm =
        MakeSpec("overload-storm",
                 "3 tenants under 8x flash crowds on GH (shed/degrade)",
                 DatasetId::kGithub, StreamKind::kBurst, 9, 80, 3, 4,
                 true);
    storm.stream.burst_factor = 8.0;
    storm.stream.burst_period = 3;
    storm.tenants.roles = {
        MakeRole("s-gold", PriorityClass::kGold, 1.0, /*rate=*/64,
                 /*queue=*/192, /*budget=*/0),
        MakeRole("s-silver", PriorityClass::kSilver, 1.0, 64, 192, 0),
        MakeRole("s-floor", PriorityClass::kBestEffort, 1.0, 64, 192, 0),
    };
    v.push_back(storm);

    return v;
  }();
  return kScenarios;
}

const ScenarioSpec* FindScenario(const std::string& name) {
  for (const ScenarioSpec& s : AllScenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<QueryGraph> BuildQuerySet(const LabeledGraph& g,
                                      const ScenarioSpec& spec,
                                      uint64_t seed) {
  QueryExtractor ex(g, DeriveSeed(seed, kSeedQueryExtract));
  static const QueryGraph::StructureClass kRotation[] = {
      QueryGraph::StructureClass::kSparse,
      QueryGraph::StructureClass::kTree,
      QueryGraph::StructureClass::kDense};
  std::vector<QueryGraph> queries;
  queries.reserve(spec.num_queries);
  for (size_t i = 0; i < spec.num_queries; ++i) {
    QueryGraph::StructureClass cls =
        spec.mixed_classes ? kRotation[i % 3] : spec.query_class;
    auto q = ex.Extract(spec.query_size, cls);
    // Dense (and occasionally Sparse) can be unsamplable on sparse
    // twins; degrade gracefully rather than shrink the set.
    if (!q && cls != QueryGraph::StructureClass::kSparse) {
      q = ex.Extract(spec.query_size, QueryGraph::StructureClass::kSparse);
    }
    if (!q) {
      q = ex.Extract(spec.query_size, QueryGraph::StructureClass::kTree);
    }
    if (q) queries.push_back(std::move(*q));
  }
  return queries;
}

}  // namespace bdsm::workload
