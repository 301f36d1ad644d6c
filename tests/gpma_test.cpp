/// GPMA tests: differential testing against LabeledGraph as the
/// reference adjacency structure, PMA invariants after every mutation
/// burst, growth/shrink behaviour, and the update-kernel cost model.
#include <gtest/gtest.h>

#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "graph/graph_generator.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

// One-op batches: each returns whether the op changed the edge count,
// i.e. whether the edge was absent / present respectively.
bool InsertOne(Gpma* gpma, VertexId u, VertexId v, Label elabel) {
  size_t before = gpma->NumEdges();
  gpma->ApplyBatch(UpdateBatch{UpdateOp{true, u, v, elabel}});
  return gpma->NumEdges() == before + 1;
}

bool RemoveOne(Gpma* gpma, VertexId u, VertexId v) {
  size_t before = gpma->NumEdges();
  gpma->ApplyBatch(UpdateBatch{UpdateOp{false, u, v, kNoLabel}});
  return gpma->NumEdges() + 1 == before;
}

Label LabelOf(const Gpma& gpma, VertexId u, VertexId v) {
  Label el = kNoLabel;
  return gpma.FindEdge(u, v, &el) ? el : kNoLabel;
}

std::vector<Neighbor> NeighborsOf(const Gpma& gpma, VertexId v) {
  std::vector<Neighbor> out;
  gpma.NeighborsInto(v, &out);
  return out;
}

void ExpectSameAdjacency(const Gpma& gpma, const LabeledGraph& g) {
  ASSERT_EQ(gpma.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto got = NeighborsOf(gpma, v);
    auto want = g.Neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].v, want[i].v) << "vertex " << v;
      EXPECT_EQ(got[i].elabel, want[i].elabel) << "vertex " << v;
    }
  }
}

TEST(GpmaTest, EmptyStructure) {
  Gpma gpma(32);
  EXPECT_EQ(gpma.NumEdges(), 0u);
  EXPECT_EQ(gpma.NumSegments(), 1u);
  EXPECT_FALSE(gpma.HasEdge(0, 1));
  EXPECT_TRUE(NeighborsOf(gpma, 0).empty());
  gpma.CheckInvariants();
}

TEST(GpmaTest, SingleInsertAndLookup) {
  Gpma gpma(32);
  EXPECT_TRUE(InsertOne(&gpma, 3, 7, 5));
  EXPECT_FALSE(InsertOne(&gpma, 3, 7, 5));
  EXPECT_FALSE(InsertOne(&gpma, 7, 3, 5));
  EXPECT_TRUE(gpma.HasEdge(3, 7));
  EXPECT_TRUE(gpma.HasEdge(7, 3));
  EXPECT_EQ(LabelOf(gpma, 3, 7), 5u);
  EXPECT_EQ(LabelOf(gpma, 7, 3), 5u);
  EXPECT_EQ(gpma.NumEdges(), 1u);
  gpma.CheckInvariants();
}

TEST(GpmaTest, RemoveEdge) {
  Gpma gpma(32);
  InsertOne(&gpma, 1, 2, 0);
  InsertOne(&gpma, 2, 3, 1);
  EXPECT_TRUE(RemoveOne(&gpma, 1, 2));
  EXPECT_FALSE(RemoveOne(&gpma, 1, 2));
  EXPECT_FALSE(gpma.HasEdge(1, 2));
  EXPECT_TRUE(gpma.HasEdge(2, 3));
  EXPECT_EQ(gpma.NumEdges(), 1u);
  gpma.CheckInvariants();
}

TEST(GpmaTest, GrowsUnderInsertions) {
  Gpma gpma(8);  // tiny segments force early growth
  size_t before = gpma.NumSegments();
  for (VertexId i = 0; i < 200; ++i) {
    ASSERT_TRUE(InsertOne(&gpma, i, i + 1000, i % 5));
    gpma.CheckInvariants();
  }
  EXPECT_GT(gpma.NumSegments(), before);
  EXPECT_EQ(gpma.NumEdges(), 200u);
  for (VertexId i = 0; i < 200; ++i) {
    EXPECT_TRUE(gpma.HasEdge(i, i + 1000));
    EXPECT_EQ(LabelOf(gpma, i, i + 1000), i % 5);
  }
}

TEST(GpmaTest, BuildFromMatchesGraph) {
  LabeledGraph g = GenerateUniformGraph(300, 1200, 4, 3, 42);
  Gpma gpma(32);
  gpma.BuildFrom(g);
  gpma.CheckInvariants();
  ExpectSameAdjacency(gpma, g);
}

TEST(GpmaTest, BatchInsertionsMatchReference) {
  LabeledGraph g = GenerateUniformGraph(200, 600, 3, 2, 7);
  Gpma gpma(32);
  gpma.BuildFrom(g);
  StreamGenerator gen(PreferentialSpec(80, 1, 2), 11);
  for (int round = 0; round < 5; ++round) {
    UpdateBatch batch = gen.Next(g);
    gpma.ApplyBatch(batch);
    ApplyBatch(&g, batch);
    gpma.CheckInvariants();
    ExpectSameAdjacency(gpma, g);
  }
}

TEST(GpmaTest, BatchDeletionsMatchReference) {
  LabeledGraph g = GenerateUniformGraph(200, 1000, 3, 2, 8);
  Gpma gpma(32);
  gpma.BuildFrom(g);
  StreamGenerator gen(PreferentialSpec(120, 0), 12);
  for (int round = 0; round < 5; ++round) {
    UpdateBatch batch = gen.Next(g);
    gpma.ApplyBatch(batch);
    ApplyBatch(&g, batch);
    gpma.CheckInvariants();
    ExpectSameAdjacency(gpma, g);
  }
}

TEST(GpmaTest, MixedBatchesMatchReference) {
  LabeledGraph g = GenerateUniformGraph(250, 900, 4, 3, 9);
  Gpma gpma(16);
  gpma.BuildFrom(g);
  StreamGenerator gen(PreferentialSpec(100, 2.0 / 3, 3), 13);
  for (int round = 0; round < 8; ++round) {
    UpdateBatch batch = gen.Next(g);
    gpma.ApplyBatch(batch);
    ApplyBatch(&g, batch);
    gpma.CheckInvariants();
    ExpectSameAdjacency(gpma, g);
  }
}

TEST(GpmaTest, ShrinksAfterMassDeletion) {
  LabeledGraph g = GenerateUniformGraph(300, 2000, 3, 1, 10);
  Gpma gpma(16);
  gpma.BuildFrom(g);
  size_t peak_segments = gpma.NumSegments();
  UpdateBatch all_dels;
  for (const Edge& e : g.CollectEdges()) {
    all_dels.push_back(UpdateOp{false, e.u, e.v, kNoLabel});
  }
  gpma.ApplyBatch(all_dels);
  gpma.CheckInvariants();
  EXPECT_EQ(gpma.NumEdges(), 0u);
  EXPECT_LT(gpma.NumSegments(), peak_segments);
}

TEST(GpmaTest, NeighborsSortedAndComplete) {
  Gpma gpma(8);
  Rng rng(55);
  std::vector<VertexId> targets;
  for (int i = 0; i < 60; ++i) {
    VertexId t = static_cast<VertexId>(1 + rng.Uniform(500));
    if (InsertOne(&gpma, 0, t, 1)) targets.push_back(t);
  }
  std::sort(targets.begin(), targets.end());
  auto nbrs = NeighborsOf(gpma, 0);
  ASSERT_EQ(nbrs.size(), targets.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(nbrs[i].v, targets[i]);
  }
}

TEST(GpmaTest, TreeHeightGrowsLogarithmically) {
  Gpma gpma(8);
  uint32_t h0 = gpma.TreeHeight();
  for (VertexId i = 0; i < 500; ++i) InsertOne(&gpma, i, i + 1000, 0);
  EXPECT_GT(gpma.TreeHeight(), h0);
  EXPECT_LE(gpma.TreeHeight(), 16u);
}

TEST(GpmaPlanTest, PlanDescribesWork) {
  LabeledGraph g = GenerateUniformGraph(200, 800, 3, 1, 14);
  Gpma gpma(32);
  gpma.BuildFrom(g);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(100, 1), 15).Next(g);
  UpdatePlan plan = gpma.ApplyBatch(batch);
  // Every directed entry needs a locate; 2 per undirected insert.
  EXPECT_GE(plan.locate_searches, batch.size());
  EXPECT_FALSE(plan.ops.empty());
  EXPECT_GT(plan.tree_height, 0u);
  uint64_t inserted = 0;
  for (const SegmentOp& op : plan.ops) inserted += op.inserted;
  EXPECT_GE(inserted, 2 * batch.size() / 2);  // both directions counted
}

TEST(GpmaKernelTest, CooperativeGroupsSpeedUpSmallSegments) {
  // A plan of many tiny segment ops: CG should shorten the makespan.
  UpdatePlan plan;
  plan.tree_height = 6;
  plan.locate_searches = 64;
  for (int i = 0; i < 200; ++i) {
    plan.AddOp(SegmentOp{8, 1, 4, 0, SegmentStrategy::kWarp});
  }
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 4;
  Device dev_cg(cfg), dev_plain(cfg);
  GpmaKernelOptions with_cg{true, 3};
  GpmaKernelOptions without_cg{false, 3};
  DeviceStats s_cg = SimulateGpmaUpdate(dev_cg, plan, with_cg);
  DeviceStats s_plain = SimulateGpmaUpdate(dev_plain, plan, without_cg);
  EXPECT_LE(s_cg.makespan_ticks, s_plain.makespan_ticks);
}

TEST(GpmaKernelTest, CachedLayersCutGlobalTraffic) {
  UpdatePlan plan;
  plan.tree_height = 8;
  plan.locate_searches = 4096;
  DeviceConfig cfg;
  cfg.num_sms = 4;
  cfg.warps_per_block = 4;
  Device dev_cached(cfg), dev_uncached(cfg);
  DeviceStats cached =
      SimulateGpmaUpdate(dev_cached, plan, GpmaKernelOptions{true, 4});
  DeviceStats uncached =
      SimulateGpmaUpdate(dev_uncached, plan, GpmaKernelOptions{true, 0});
  EXPECT_LT(cached.global_transactions, uncached.global_transactions);
  EXPECT_GT(cached.shared_accesses, uncached.shared_accesses);
  EXPECT_LT(cached.makespan_ticks, uncached.makespan_ticks);
}

TEST(GpmaKernelTest, ResizePricedWhenPlanResizes) {
  Gpma gpma(8);
  // Seed live entries first: a resize of an empty array is free (the
  // direct-to-target grow sizes the array before any entry lands), so
  // the plan only prices moved entries once there is something to move.
  for (VertexId i = 0; i < 50; ++i) {
    ASSERT_TRUE(InsertOne(&gpma, i, i + 5000, 0));
  }
  UpdateBatch batch;
  for (VertexId i = 0; i < 300; ++i) {
    batch.push_back(UpdateOp{true, i, i + 1000, 0});
  }
  UpdatePlan plan = gpma.ApplyBatch(batch);
  EXPECT_GT(plan.resizes, 0u);
  EXPECT_GT(plan.resized_entries, 0u);
  Device dev;
  DeviceStats stats = SimulateGpmaUpdate(dev, plan);
  EXPECT_GT(stats.makespan_ticks, 0u);
}

}  // namespace
}  // namespace bdsm
