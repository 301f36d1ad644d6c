/// Reproduces **Fig. 10** — latency vs update-region density on LS:
/// insertion endpoints sampled from k-cores of increasing k (the paper
/// uses k in {4,8,12} labeled Low/Middle/High; the scaled twin's
/// degeneracy is smaller, so k is scaled proportionally and printed).
///
/// Paper shape: all methods slow down in denser regions; GAMMA
/// accelerates relatively more (more parallel work, better balance).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "graph/kcore.hpp"

using namespace bdsm;
using namespace bdsm::bench;

int main(int argc, char** argv) {
  InitBench("bench_fig10", argc, argv);
  Scale scale;
  PrintHeader("Figure 10",
              "Latency vs density of update regions (k-core sampled "
              "insertions) on LS",
              scale);

  const DatasetSpec& spec = DatasetByName("LS");
  const LabeledGraph& g = CachedDataset(spec.id);
  uint32_t degen = Degeneracy(g);
  // Scale the paper's {4, 8, 12} onto the twin's core spectrum.
  std::vector<std::pair<const char*, uint32_t>> levels = {
      {"Low", std::max(1u, degen / 3)},
      {"Middle", std::max(2u, 2 * degen / 3)},
      {"High", degen}};
  printf("twin degeneracy = %u; density levels use k = {%u, %u, %u}\n\n",
         degen, levels[0].second, levels[1].second, levels[2].second);

  for (auto cls : AllClasses()) {
    auto queries = MakeQuerySet(g, cls, scale.default_query_size,
                                scale.queries_per_set, scale.seed);
    printf("--- %s ---\n", ToString(cls));
    if (queries.empty()) {
      printf("(no extractable queries)\n");
      continue;
    }
    printf("%-8s | %12s %12s %12s %12s %12s\n", "density", "TF", "SYM",
           "RF", "CL", "GAMMA");
    for (auto [name, k] : levels) {
      workload::StreamSpec core = workload::PreferentialSpec(
          scale.max_batch_ops / 2, 1,
          spec.edge_labels > 1 ? spec.edge_labels : 0);
      core.kind = workload::StreamKind::kCore;
      core.core_k = k;
      UpdateBatch batch =
          workload::StreamGenerator(core, scale.seed + k).Next(g);
      JsonContext("dataset", "LS");
      JsonContext("structure", ToString(cls));
      JsonContext("density", name);
      printf("%-8s |", name);
      RunMethodRow(g, queries, batch, scale);
      printf("\n");
    }
  }
  printf("\nShape checks (paper): runtime increases with density for all "
         "methods; GAMMA's relative advantage is largest at High.\n");
  FinishBench();
  return 0;
}
