/// RebuildContainer tests: the cost-model asymmetry the ablation bench
/// relies on, over the same |E| GPMA holds.
#include <gtest/gtest.h>

#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpma/rebuild_container.hpp"
#include "graph/graph_generator.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

TEST(RebuildContainerTest, RebuildCostIsFlatGpmaCostScales) {
  LabeledGraph g = GenerateUniformGraph(800, 6000, 2, 1, 83);
  workload::StreamSpec spec = workload::PreferentialSpec(16, 1);
  UpdateBatch small = workload::StreamGenerator(spec, 84).Next(g);
  spec.ops_per_batch = 1024;
  UpdateBatch large = workload::StreamGenerator(spec, 84).Next(g);

  auto price = [&](auto& container, const UpdateBatch& batch) {
    container.BuildFrom(g);
    Device dev;
    return SimulateGpmaUpdate(dev, container.ApplyBatch(batch));
  };
  Gpma g1(32), g2(32);
  RebuildContainer r1, r2;
  DeviceStats gpma_small = price(g1, small);
  DeviceStats gpma_large = price(g2, large);
  DeviceStats rebuild_small = price(r1, small);
  DeviceStats rebuild_large = price(r2, large);
  // The rebuild prices the same |E| the GPMA holds after the batch.
  EXPECT_EQ(r1.NumEdges(), g1.NumEdges());
  EXPECT_EQ(r2.NumEdges(), g2.NumEdges());

  // Total device *work* (busy ticks): GPMA's grows with the batch, the
  // rebuild's stays ~flat at 2|E| moves.  (Makespan hides the growth
  // while blocks are unsaturated — the throughput-vs-latency GPU story.)
  EXPECT_GT(gpma_large.total_busy_ticks, gpma_small.total_busy_ticks * 4);
  EXPECT_LT(rebuild_large.total_busy_ticks,
            rebuild_small.total_busy_ticks * 2);
  // And GPMA wins decisively on the small batch, in work and makespan.
  EXPECT_LT(gpma_small.total_busy_ticks * 4,
            rebuild_small.total_busy_ticks);
  EXPECT_LT(gpma_small.makespan_ticks, rebuild_small.makespan_ticks);
}

}  // namespace
}  // namespace bdsm
