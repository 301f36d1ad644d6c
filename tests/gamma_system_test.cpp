/// System-level GAMMA tests: option interplay (parameterized matrix),
/// device budget/result-cap behaviour, utilization/stat plausibility,
/// per-dataset smoke runs, and heavier randomized property sweeps.
#include <gtest/gtest.h>

#include <set>

#include "baselines/enumerate.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_generator.hpp"
#include "graph/query_extractor.hpp"
#include "single_query.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

TEST(GammaSystemTest, AllDatasetTwinsSmoke) {
  // Every dataset twin must run end-to-end with an extracted query.
  for (const DatasetSpec& spec : AllDatasets()) {
    LabeledGraph g = LoadDataset(spec.id);
    QueryExtractor ex(g, 5);
    auto q = ex.Extract(5, QueryGraph::StructureClass::kTree);
    ASSERT_TRUE(q.has_value()) << spec.short_name;
    const size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
    UpdateBatch batch =
        StreamGenerator(PreferentialSpec(50, 1, elabels), 6).Next(g);
    GammaOptions opts;
    opts.device.host_budget_seconds = 5.0;
    QueryReport res = RunGammaBatch(g, *q, opts, batch);
    EXPECT_FALSE(res.Truncated()) << spec.short_name;
    EXPECT_GT(res.match_stats.makespan_ticks, 0u) << spec.short_name;
  }
}

TEST(GammaSystemTest, ResultCapMarksUnsolved) {
  // A clique query over a clique batch explodes; a tiny cap must trip.
  std::vector<Label> labels(30, 0);
  LabeledGraph g(labels);
  UpdateBatch batch;
  for (VertexId a = 0; a < 30; ++a) {
    for (VertexId b = a + 1; b < 30; ++b) {
      batch.push_back(UpdateOp{true, a, b, kNoLabel});
    }
  }
  QueryGraph tri({0, 0, 0});  // matches the clique's uniform label
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  GammaOptions opts;
  opts.result_cap = 1000;
  QueryReport res = RunGammaBatch(g, tri, opts, batch);
  EXPECT_TRUE(res.overflowed);
  EXPECT_TRUE(res.Truncated());
  EXPECT_LE(res.TotalMatches(), 1200u);  // cap plus in-flight slack
}

TEST(GammaSystemTest, HostBudgetMarksUnsolved) {
  std::vector<Label> labels(60, 0);
  LabeledGraph g(labels);
  UpdateBatch batch;
  for (VertexId a = 0; a < 60; ++a) {
    for (VertexId b = a + 1; b < 60; ++b) {
      batch.push_back(UpdateOp{true, a, b, kNoLabel});
    }
  }
  QueryGraph q({0, 0, 0, 0, 0});
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) q.AddEdge(a, b);
  }
  GammaOptions opts;
  opts.result_cap = 0;  // unlimited: force the *time* budget to trip
  opts.device.host_budget_seconds = 0.02;
  QueryReport res = RunGammaBatch(g, q, opts, batch);
  EXPECT_TRUE(res.Truncated());
}

TEST(GammaSystemTest, UtilizationWithinBounds) {
  LabeledGraph g = LoadDataset(DatasetId::kAmazon);
  QueryExtractor ex(g, 8);
  auto q = ex.Extract(6, QueryGraph::StructureClass::kSparse);
  ASSERT_TRUE(q.has_value());
  UpdateBatch batch = StreamGenerator(PreferentialSpec(100, 1), 9).Next(g);
  GammaOptions opts;
  opts.device.num_sms = 8;
  QueryReport res = RunGammaBatch(g, *q, opts, batch);
  double util = res.match_stats.Utilization();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
  EXPECT_GT(res.match_stats.total_busy_ticks, 0u);
  EXPECT_GE(res.match_stats.total_warp_ticks,
            res.match_stats.total_busy_ticks);
}

TEST(GammaSystemTest, StealEventsOnlyWithStealing) {
  LabeledGraph g = LoadDataset(DatasetId::kGithub);
  QueryExtractor ex(g, 10);
  auto q = ex.Extract(6, QueryGraph::StructureClass::kSparse);
  ASSERT_TRUE(q.has_value());
  UpdateBatch batch = StreamGenerator(PreferentialSpec(120, 1), 11).Next(g);
  GammaOptions none, active;
  none.device.steal_policy = StealPolicy::kNone;
  active.device.steal_policy = StealPolicy::kActive;
  none.device.num_sms = active.device.num_sms = 4;
  QueryReport r1 = RunGammaBatch(g, *q, none, batch);
  QueryReport r2 = RunGammaBatch(g, *q, active, batch);
  EXPECT_EQ(r1.match_stats.steal_events, 0u);
  EXPECT_EQ(r1.TotalMatches(), r2.TotalMatches());
}

/// Heavier randomized sweep across option matrix on dataset twins: the
/// engine's total match count must equal the oracle's delta count.
class GammaMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(GammaMatrixTest, CountsMatchOracleOnTwins) {
  auto [ds_idx, cs, aggressive] = GetParam();
  const DatasetSpec& spec = AllDatasets()[static_cast<size_t>(ds_idx)];
  // Shrink the twin for oracle tractability.
  GeneratorParams p;
  p.num_vertices = 400;
  p.avg_degree = std::min(spec.avg_degree, 8.0);
  p.vertex_labels = spec.vertex_labels;
  p.edge_labels = spec.edge_labels;
  p.seed = 1000 + static_cast<uint64_t>(ds_idx);
  LabeledGraph g = GeneratePowerLawGraph(p);

  QueryExtractor ex(g, 17);
  auto q = ex.Extract(4, QueryGraph::StructureClass::kSparse);
  if (!q) q = ex.Extract(4, QueryGraph::StructureClass::kTree);
  ASSERT_TRUE(q.has_value()) << spec.short_name;

  const size_t elabels = spec.edge_labels > 1 ? spec.edge_labels : 0;
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(40, 2.0 / 3, elabels), 18).Next(g);

  LabeledGraph after = g;
  ApplyBatch(&after, batch);
  auto keyset = [&](const LabeledGraph& gg) {
    std::set<std::string> ks;
    for (auto& m : EnumerateAllMatches(gg, *q)) ks.insert(m.Key());
    return ks;
  };
  auto kb = keyset(g), ka = keyset(after);
  size_t want_pos = 0, want_neg = 0;
  for (const auto& k : ka) want_pos += !kb.count(k);
  for (const auto& k : kb) want_neg += !ka.count(k);

  GammaOptions opts;
  opts.coalesced_search = cs;
  opts.aggressive_coalescing = aggressive;
  opts.device.num_sms = 4;
  QueryReport res = RunGammaBatch(g, *q, opts, batch);
  EXPECT_EQ(res.positive_matches.size(), want_pos) << spec.short_name;
  EXPECT_EQ(res.negative_matches.size(), want_neg) << spec.short_name;
}

INSTANTIATE_TEST_SUITE_P(
    Twins, GammaMatrixTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(
                 AllDatasets()[static_cast<size_t>(
                                   std::get<0>(info.param))]
                     .short_name) +
             (std::get<1>(info.param) ? "_cs" : "_nocs") +
             (std::get<2>(info.param) ? "_aggr" : "_safe");
    });

}  // namespace
}  // namespace bdsm
