/// Reproduces **Fig. 12** — preprocessing analysis: GPMA graph-update
/// time (ms) and its ratio to the total running time, per dataset, at
/// the default 10% update rate.
///
/// Paper shape: update time scales with the update volume (larger
/// datasets -> more time), and stays a modest fraction of the total
/// (the matching kernel dominates).
#include <cstdio>

#include "bench_common.hpp"

using namespace bdsm;
using namespace bdsm::bench;

int main(int argc, char** argv) {
  InitBench("bench_fig12", argc, argv);
  Scale scale;
  PrintHeader("Figure 12",
              "Graph-update (GPMA) time and ratio of total, 10% rate",
              scale);

  printf("%-4s | %10s %10s %8s | %18s\n", "DS", "update(ms)", "match(ms)",
         "ratio%", "preprocess-host(ms)");
  for (const DatasetSpec& spec : AllDatasets()) {
    const LabeledGraph& g = CachedDataset(spec.id);
    auto queries = MakeQuerySet(
        g, QueryGraph::StructureClass::kSparse, scale.default_query_size,
        1, scale.seed);
    if (queries.empty()) {
      queries = MakeQuerySet(g, QueryGraph::StructureClass::kTree,
                             scale.default_query_size, 1, scale.seed);
    }
    if (queries.empty()) {
      printf("%-4s | (no extractable queries)\n", spec.short_name);
      continue;
    }
    UpdateBatch batch = MakeRateBatch(g, spec, scale.default_rate, scale,
                                      scale.seed + 1);
    EngineOptions opts;
    opts.gamma.device.host_budget_seconds = scale.query_budget_s;
    auto engine = MakeEngine("gamma", g, opts);
    JsonProvenance(engine->Describe());
    QueryId id = engine->AddQuery(queries[0]);
    BatchReport report = engine->ProcessBatch(batch);
    const QueryReport& res = *report.Find(id);
    double tick_ms = opts.gamma.device.TickSeconds() * 1e3;
    double update_ms = double(res.update_stats.makespan_ticks) * tick_ms;
    double match_ms = double(res.match_stats.makespan_ticks) * tick_ms;
    double ratio = update_ms + match_ms > 0
                       ? 100.0 * update_ms / (update_ms + match_ms)
                       : 0.0;
    printf("%-4s | %10.4f %10.4f %7.1f%% | %18.3f\n", spec.short_name,
           update_ms, match_ms, ratio,
           res.preprocess_host_seconds * 1e3);

    JsonRow row;
    row.Set("dataset", spec.short_name)
        .Set("update_ms", update_ms)
        .Set("match_ms", match_ms)
        .Set("update_ratio_pct", ratio)
        .Set("preprocess_host_ms", res.preprocess_host_seconds * 1e3);
    JsonSink::Instance().Add(std::move(row));
  }
  printf("\nShape checks (paper): update time grows with dataset size / "
         "update volume; ratio stays below ~40%%; CPU-side preprocessing "
         "(host mirror + label-count deltas) is small and overlappable.\n");
  FinishBench();
  return 0;
}
