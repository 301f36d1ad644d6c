/// System extension bench: multi-pattern registration.
/// The paper evaluates per-query latency; production monitors register
/// many patterns against one graph.  This bench measures the benefit of
/// fusing all queries' seeds into one kernel launch and charging the
/// device-graph update once, versus a launch and an update charge per
/// query.
///
/// Both contenders are the same device engine over one shared GPMA:
/// "multi" (fused launches) and "gamma" (one launch per query) — the
/// comparison is literally the same loop with a different registry
/// name.
///
/// Expected shape: fused launches amortize device occupancy — modeled
/// makespan grows sub-linearly in the number of registered queries,
/// while "gamma" pays a full launch per query.
#include <cstdio>

#include "bench_common.hpp"

using namespace bdsm;
using namespace bdsm::bench;

namespace {

/// Update + matching makespan of one ProcessBatch, in ticks.
uint64_t ReportTicks(const BatchReport& report) {
  return report.update_stats.makespan_ticks +
         report.match_stats.makespan_ticks;
}

}  // namespace

int main(int argc, char** argv) {
  InitBench("bench_multiquery", argc, argv);
  Scale scale;
  PrintHeader("Multi-query registration (extension)",
              "Fused multi-pattern launches (\"multi\") vs one engine "
              "per pattern (\"gamma\"), modeled device us per batch",
              scale);

  const DatasetSpec& spec = DatasetByName("GH");
  const LabeledGraph& g = CachedDataset(spec.id);
  auto pool = MakeQuerySet(g, QueryGraph::StructureClass::kSparse,
                           scale.default_query_size, 8, scale.seed);
  if (pool.size() < 8) {
    auto extra = MakeQuerySet(g, QueryGraph::StructureClass::kTree,
                              scale.default_query_size, 8 - pool.size(),
                              scale.seed + 1);
    pool.insert(pool.end(), extra.begin(), extra.end());
  }
  UpdateBatch batch =
      MakeRateBatch(g, spec, scale.default_rate, scale, scale.seed + 2);

  // One host budget per match phase for both contenders: "multi" runs
  // one fused grid per phase, "gamma" its per-query grids in one region
  // that shares the budget clock.
  EngineOptions opts;
  opts.gamma.device.host_budget_seconds = scale.query_budget_s;
  double tick_us = opts.gamma.device.TickSeconds() * 1e6;

  // Row provenance: the measured system is the fused "multi" engine
  // (modeled-device clock); the per-engine contender it is compared
  // against rides along as baseline_spec.
  JsonProvenance(MakeEngine("multi", g, opts)->Describe());
  JsonContext("baseline_spec", "gamma");

  printf("%8s | %14s %14s | %8s\n", "#queries", "fused(us)",
         "per-engine(us)", "ratio");
  for (size_t nq : {1, 2, 4, 8}) {
    if (pool.size() < nq) break;

    uint64_t ticks[2] = {0, 0};
    const char* const contenders[2] = {"multi", "gamma"};
    for (int c = 0; c < 2; ++c) {
      auto engine = MakeEngine(contenders[c], g, opts);
      for (size_t i = 0; i < nq; ++i) engine->AddQuery(pool[i]);
      ticks[c] = ReportTicks(engine->ProcessBatch(batch));
    }

    double fused_us = double(ticks[0]) * tick_us;
    double sep_us = double(ticks[1]) * tick_us;
    printf("%8zu | %14.2f %14.2f | %7.2fx\n", nq, fused_us, sep_us,
           fused_us > 0 ? sep_us / fused_us : 0.0);
    fflush(stdout);

    JsonRow row;
    row.Set("num_queries", nq)
        .Set("fused_us", fused_us)
        .Set("per_engine_us", sep_us)
        .Set("fused_speedup", fused_us > 0 ? sep_us / fused_us : 0.0);
    JsonSink::Instance().Add(std::move(row));
  }

  // Dynamic query churn: register 8 patterns, retire half mid-stream —
  // the engine keeps serving the survivors without a rebuild.
  if (pool.size() >= 8) {
    auto engine = MakeEngine("multi", g, opts);
    std::vector<QueryId> ids;
    for (size_t i = 0; i < 8; ++i) ids.push_back(engine->AddQuery(pool[i]));
    uint64_t before = ReportTicks(engine->ProcessBatch(batch));
    for (size_t i = 0; i < 8; i += 2) engine->RemoveQuery(ids[i]);
    workload::StreamSpec growth = workload::PreferentialSpec(
        batch.size(), 1, spec.edge_labels > 1 ? spec.edge_labels : 0);
    UpdateBatch batch2 = workload::StreamGenerator(growth, scale.seed + 3)
                             .Next(engine->host_graph());
    uint64_t after = ReportTicks(engine->ProcessBatch(batch2));
    printf("\nchurn: 8 -> %zu live queries mid-stream; fused makespan "
           "%llu -> %llu ticks\n",
           engine->NumQueries(), static_cast<unsigned long long>(before),
           static_cast<unsigned long long>(after));
  }

  printf("\nShape check: the fused makespan grows sub-linearly with the "
         "number of registered patterns (shared update, shared launch "
         "occupancy); per-engine cost is ~linear.\n");
  FinishBench();
  return 0;
}
