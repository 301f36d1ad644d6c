/// Reproduces **Fig. 11** — mixed workloads (insertion:deletion = 2:1)
/// on GH and ST, per structure class, all five methods.
///
/// Paper shape: same ordering as the pure-insertion workloads (Fig. 9);
/// runtime rises as the query class gets sparser; GAMMA lowest.
#include <cstdio>

#include "bench_common.hpp"

using namespace bdsm;
using namespace bdsm::bench;

int main(int argc, char** argv) {
  InitBench("bench_fig11", argc, argv);
  Scale scale;
  PrintHeader("Figure 11",
              "Mixed workloads, insert:delete = 2:1 (paper follows "
              "CaLiG's setup)",
              scale);

  for (const char* ds : {"GH", "ST"}) {
    const DatasetSpec& spec = DatasetByName(ds);
    const LabeledGraph& g = CachedDataset(spec.id);
    size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
    workload::StreamSpec mix =
        workload::PreferentialSpec(scale.max_batch_ops, 2.0 / 3, elabels);
    UpdateBatch batch = workload::StreamGenerator(mix, scale.seed + 5).Next(g);
    printf("--- %s ---\n", ds);
    printf("%-7s | %12s %12s %12s %12s %12s\n", "class", "TF", "SYM", "RF",
           "CL", "GAMMA");
    for (auto cls : AllClasses()) {
      auto queries = MakeQuerySet(g, cls, scale.default_query_size,
                                  scale.queries_per_set, scale.seed);
      if (queries.empty()) {
        printf("%-7s | (no extractable queries)\n", ToString(cls));
        continue;
      }
      JsonContext("dataset", ds);
      JsonContext("structure", ToString(cls));
      printf("%-7s |", ToString(cls));
      RunMethodRow(g, queries, batch, scale);
      printf("\n");
    }
  }
  printf("\nShape checks (paper): ordering matches the single-polarity "
         "workloads; runtime rises Dense -> Sparse -> Tree; GAMMA "
         "lowest.\n");
  FinishBench();
  return 0;
}
