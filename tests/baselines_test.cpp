/// Baseline-engine correctness: every CSM engine's *net* batch effect
/// must equal the oracle match-set difference (and hence GAMMA's
/// output), on vertex-labeled and edge-labeled graphs, across engines
/// and seeds (parameterized sweep).
#include <gtest/gtest.h>

#include <set>

#include "baselines/csm_common.hpp"
#include "baselines/enumerate.hpp"
#include "graph/graph_generator.hpp"
#include "single_query.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

std::pair<std::vector<std::string>, std::vector<std::string>> OracleDelta(
    const LabeledGraph& before, const UpdateBatch& batch,
    const QueryGraph& q) {
  LabeledGraph after = before;
  ApplyBatch(&after, batch);
  auto keys = [](std::vector<MatchRecord> ms, bool pos) {
    std::set<std::string> out;
    for (MatchRecord& m : ms) {
      m.positive = pos;
      out.insert(m.Key());
    }
    return out;
  };
  auto bp = keys(EnumerateAllMatches(before, q), true);
  auto ap = keys(EnumerateAllMatches(after, q), true);
  auto bn = keys(EnumerateAllMatches(before, q), false);
  auto an = keys(EnumerateAllMatches(after, q), false);
  std::vector<std::string> pos, neg;
  for (const auto& k : ap) {
    if (!bp.count(k)) pos.push_back(k);
  }
  for (const auto& k : bn) {
    if (!an.count(k)) neg.push_back(k);
  }
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  return {pos, neg};
}

void ExpectEngineMatchesOracle(const std::string& engine,
                               const LabeledGraph& g,
                               const UpdateBatch& raw,
                               const QueryGraph& q) {
  UpdateBatch batch = SanitizeBatch(g, raw);
  auto [want_pos, want_neg] = OracleDelta(g, batch, q);
  auto eng = MakeCsmEngine(engine, g, q);
  std::vector<MatchRecord> net = NetEffect(eng->ProcessBatch(batch));
  std::vector<std::string> pos, neg;
  for (const MatchRecord& m : net) {
    (m.positive ? pos : neg).push_back(m.Key());
  }
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  EXPECT_EQ(pos, want_pos) << engine;
  EXPECT_EQ(neg, want_neg) << engine;
}

class CsmEngineTest
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(CsmEngineTest, NetEffectEqualsOracle) {
  const char* engine = std::get<0>(GetParam());
  uint64_t seed = std::get<1>(GetParam());
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, seed);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), seed + 100).Next(g);

  QueryGraph tri({0, 0, 1});
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  ExpectEngineMatchesOracle(engine, g, batch, tri);

  QueryGraph star({0, 1, 1, 2});  // exercises RF's query reduction
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);
  ExpectEngineMatchesOracle(engine, g, batch, star);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CsmEngineTest,
    ::testing::Combine(::testing::Values("GF", "TF", "SYM", "RF", "CL"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CsmEngineTest, EdgeLabeledOracleAgreement) {
  // Edge labels force CaLiG onto its transformed-graph path.
  for (const char* engine : {"GF", "TF", "SYM", "RF", "CL"}) {
    LabeledGraph g = GenerateUniformGraph(100, 360, 2, 3, 17);
    UpdateBatch batch =
        StreamGenerator(PreferentialSpec(24, 2.0 / 3, 3), 18).Next(g);
    QueryGraph q({0, 1, 0});
    q.AddEdge(0, 1, 0);
    q.AddEdge(1, 2, 1);
    q.AddEdge(0, 2, 0);
    ExpectEngineMatchesOracle(engine, g, batch, q);
  }
}

TEST(CsmEngineTest, AgreesWithGamma) {
  LabeledGraph g = GenerateUniformGraph(130, 450, 3, 1, 23);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), 24).Next(g);
  QueryGraph q({0, 1, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);

  GammaOptions opts;
  opts.device.num_sms = 2;
  QueryReport res = RunGammaBatch(g, q, opts, batch);
  std::vector<std::string> gamma_keys;
  for (const auto& m : res.positive_matches) gamma_keys.push_back(m.Key());
  for (const auto& m : res.negative_matches) gamma_keys.push_back(m.Key());
  std::sort(gamma_keys.begin(), gamma_keys.end());

  auto rf = MakeCsmEngine("RF", g, q);
  std::vector<MatchRecord> net = NetEffect(rf->ProcessBatch(batch));
  std::vector<std::string> rf_keys;
  for (const auto& m : net) rf_keys.push_back(m.Key());
  std::sort(rf_keys.begin(), rf_keys.end());
  EXPECT_EQ(gamma_keys, rf_keys);
}

TEST(CsmEngineTest, TimeoutReported) {
  // A clique data graph + clique query with a tiny budget must trip the
  // timeout guard (the paper's 30-minute cap, scaled down).
  std::vector<Label> labels(40, 0);
  LabeledGraph g(labels);
  UpdateBatch batch;
  for (VertexId a = 0; a < 40; ++a) {
    for (VertexId b = a + 1; b < 40; ++b) {
      batch.push_back(UpdateOp{true, a, b, kNoLabel});
    }
  }
  QueryGraph q({0, 0, 0, 0, 0, 0});
  for (VertexId a = 0; a < 6; ++a) {
    for (VertexId b = a + 1; b < 6; ++b) q.AddEdge(a, b);
  }
  auto gf = MakeCsmEngine("GF", g, q);
  gf->ProcessBatch(batch, /*budget_seconds=*/0.05);
  EXPECT_TRUE(gf->timed_out());
  EXPECT_TRUE(gf->Truncated());
}

TEST(CsmEngineTest, ResultCapReportsOverflowNotTimeout) {
  // Hitting the result cap is a memory condition, not a deadline one;
  // the two abort causes are reported separately.
  std::vector<Label> labels(30, 0);
  LabeledGraph g(labels);
  UpdateBatch batch;
  for (VertexId a = 0; a < 30; ++a) {
    for (VertexId b = a + 1; b < 30; ++b) {
      batch.push_back(UpdateOp{true, a, b, kNoLabel});
    }
  }
  QueryGraph q({0, 0});
  q.AddEdge(0, 1);
  auto gf = MakeCsmEngine("GF", g, q);
  gf->set_result_cap(5);
  gf->ProcessBatch(batch);
  EXPECT_TRUE(gf->overflowed());
  EXPECT_FALSE(gf->timed_out());
  EXPECT_TRUE(gf->Truncated());
}

TEST(NetEffectTest, CancelsFlips) {
  MatchRecord a;
  a.n = 2;
  a.m[0] = 1;
  a.m[1] = 2;
  a.positive = true;
  MatchRecord b = a;
  b.positive = false;
  MatchRecord c = a;
  c.m[1] = 3;
  auto net = NetEffect({a, b, c});
  ASSERT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].m[1], 3u);
  EXPECT_TRUE(net[0].positive);
}

}  // namespace
}  // namespace bdsm
