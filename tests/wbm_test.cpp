/// WBM kernel + "gamma" engine correctness: differential testing against
/// the from-scratch oracle (matches(G') \ matches(G) and the reverse),
/// the paper's Fig. 1 running example, dedup across batch updates,
/// work-stealing result invariance, and coalesced-search equivalence.
#include <gtest/gtest.h>

#include <set>

#include "baselines/enumerate.hpp"
#include "core/query_context.hpp"
#include "graph/datasets.hpp"
#include "graph/graph_generator.hpp"
#include "graph/query_extractor.hpp"
#include "single_query.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

/// Oracle incremental matches: set difference of full enumerations.
struct OracleDelta {
  std::vector<std::string> positive;  // canonical keys
  std::vector<std::string> negative;
};

OracleDelta OracleIncremental(const LabeledGraph& before,
                              const UpdateBatch& batch,
                              const QueryGraph& q) {
  LabeledGraph after = before;
  ApplyBatch(&after, batch);
  auto keys_of = [](std::vector<MatchRecord> ms, bool positive) {
    std::set<std::string> keys;
    for (MatchRecord& m : ms) {
      m.positive = positive;
      keys.insert(m.Key());
    }
    return keys;
  };
  std::set<std::string> kb = keys_of(EnumerateAllMatches(before, q), true);
  std::set<std::string> ka = keys_of(EnumerateAllMatches(after, q), true);
  OracleDelta delta;
  for (const std::string& k : ka) {
    if (!kb.count(k)) delta.positive.push_back(k);
  }
  // Negative keys are stamped '-' by the engines.
  std::set<std::string> kbn =
      keys_of(EnumerateAllMatches(before, q), false);
  std::set<std::string> kan = keys_of(EnumerateAllMatches(after, q), false);
  for (const std::string& k : kbn) {
    if (!kan.count(k)) delta.negative.push_back(k);
  }
  std::sort(delta.positive.begin(), delta.positive.end());
  std::sort(delta.negative.begin(), delta.negative.end());
  return delta;
}

void ExpectMatchesOracle(const LabeledGraph& before,
                         const UpdateBatch& batch, const QueryGraph& q,
                         const GammaOptions& opts,
                         const char* context) {
  UpdateBatch clean = SanitizeBatch(before, batch);
  OracleDelta oracle = OracleIncremental(before, clean, q);
  QueryReport res = RunGammaBatch(before, q, opts, clean);
  EXPECT_EQ(CanonicalKeys(res.positive_matches), oracle.positive)
      << context;
  EXPECT_EQ(CanonicalKeys(res.negative_matches), oracle.negative)
      << context;
}

GammaOptions SmallDevice() {
  GammaOptions o;
  o.device.num_sms = 2;
  o.device.warps_per_block = 4;
  return o;
}

TEST(WbmTest, PaperFigure1Example) {
  // Data graph G of Fig. 1(b): labels A=0 (v0, v1), B=1 (v2..v6),
  // C=2 (v7, v8, v9).
  LabeledGraph g({0, 0, 1, 1, 1, 1, 1, 2, 2, 2});
  // Edges before the update (read off the figure; the update edges
  // (v0,v2), (v1,v4), (v4,v5) are applied as the batch).
  g.InsertEdge(0, 3);
  g.InsertEdge(0, 4);
  g.InsertEdge(2, 3);
  g.InsertEdge(2, 4);
  g.InsertEdge(2, 7);
  g.InsertEdge(3, 8);
  g.InsertEdge(4, 8);
  g.InsertEdge(1, 5);
  g.InsertEdge(5, 6);
  g.InsertEdge(5, 9);
  g.InsertEdge(6, 9);
  g.InsertEdge(4, 5);  // will be deleted by the batch
  QueryGraph q({0, 1, 1, 2});  // Fig. 1(a)
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(1, 2);
  q.AddEdge(1, 3);

  UpdateBatch batch = {
      {true, 0, 2, kNoLabel},   // +(v0, v2)
      {true, 1, 4, kNoLabel},   // +(v1, v4)
      {false, 4, 5, kNoLabel},  // -(v4, v5)
  };
  // BDSM semantics (Example 1): four positive matches, and the negative
  // matches of -(v4,v5) are cancelled... the figure reports the *net*
  // batch effect; our oracle computes it exactly.
  ExpectMatchesOracle(g, batch, q, SmallDevice(), "fig1");

  // Cross-check the headline number: the paper's BDSM column shows 4
  // positive matches for this batch.
  QueryReport res =
      RunGammaBatch(g, q, SmallDevice(), SanitizeBatch(g, batch));
  EXPECT_EQ(res.positive_matches.size(), 4u);
}

class WbmDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, int>> {};

TEST_P(WbmDifferentialTest, MatchesOracleOnRandomInstances) {
  auto [seed, cs, steal] = GetParam();
  GammaOptions opts = SmallDevice();
  opts.coalesced_search = cs;
  // Exercise the harder (relaxed-filter) coalescing path in the sweep.
  opts.aggressive_coalescing = cs;
  opts.device.steal_policy = static_cast<StealPolicy>(steal);

  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, seed);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(40, 2.0 / 3), seed * 31 + 7).Next(g);

  // A symmetric query (triangle + tail) to exercise coalesced search.
  QueryGraph q({0, 0, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  q.AddEdge(2, 3);
  ExpectMatchesOracle(g, batch, q, opts, "triangle+tail");

  // A path query (no automorphic subgraph pressure).
  QueryGraph path({0, 1, 0, 1});
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  ExpectMatchesOracle(g, batch, path, opts, "path");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WbmDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool(),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cs" : "_nocs") + "_steal" +
             std::to_string(std::get<2>(info.param));
    });

TEST(WbmTest, EdgeLabeledGraphs) {
  for (uint64_t seed : {11ull, 12ull}) {
    LabeledGraph g = GenerateUniformGraph(120, 420, 2, 3, seed);
    UpdateBatch batch =
        StreamGenerator(PreferentialSpec(30, 2.0 / 3, 3), seed).Next(g);
    QueryGraph q({0, 1, 0});
    q.AddEdge(0, 1, 0);
    q.AddEdge(1, 2, 1);
    q.AddEdge(0, 2, 2);
    ExpectMatchesOracle(g, batch, q, SmallDevice(), "edge-labeled");
  }
}

TEST(WbmTest, NoDuplicateMatchesAcrossBatch) {
  // Dense insert batch in a small region: many matches share several
  // inserted edges; the total-order rule must attribute each exactly
  // once.
  LabeledGraph g({0, 0, 0, 0, 0, 0});
  UpdateBatch batch;
  for (VertexId a = 0; a < 6; ++a) {
    for (VertexId b = a + 1; b < 6; ++b) {
      batch.push_back(UpdateOp{true, a, b, kNoLabel});
    }
  }
  QueryGraph q({0, 0, 0});  // triangle
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  QueryReport res = RunGammaBatch(g, q, SmallDevice(), batch);
  auto keys = CanonicalKeys(res.positive_matches);
  std::set<std::string> uniq(keys.begin(), keys.end());
  EXPECT_EQ(uniq.size(), keys.size()) << "duplicate incremental matches";
  // C(6,3) triangles x 6 automorphic mappings each.
  EXPECT_EQ(res.positive_matches.size(), 20u * 6u);
  ExpectMatchesOracle(g, batch, q, SmallDevice(), "clique-batch");
}

TEST(WbmTest, StealingPoliciesAgreeOnResults) {
  LabeledGraph g = LoadDataset(DatasetId::kGithub);
  QueryExtractor ex(g, 3);
  auto qopt = ex.Extract(5, QueryGraph::StructureClass::kSparse);
  ASSERT_TRUE(qopt.has_value());
  UpdateBatch batch = StreamGenerator(PreferentialSpec(60, 1), 9).Next(g);

  std::vector<std::vector<std::string>> all_keys;
  for (StealPolicy p :
       {StealPolicy::kNone, StealPolicy::kPassive, StealPolicy::kActive}) {
    GammaOptions opts = SmallDevice();
    opts.device.steal_policy = p;
    QueryReport res = RunGammaBatch(g, *qopt, opts, batch);
    all_keys.push_back(CanonicalKeys(res.positive_matches));
  }
  EXPECT_EQ(all_keys[0], all_keys[1]);
  EXPECT_EQ(all_keys[0], all_keys[2]);
}

TEST(WbmTest, CoalescedSearchEquivalence) {
  // cs on/off must agree on a strongly symmetric query where coalesced
  // plans actually fire.
  LabeledGraph g = GenerateUniformGraph(150, 700, 2, 1, 21);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(40, 1), 22).Next(g);
  QueryGraph q({0, 0, 0, 0});  // square
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 3);
  q.AddEdge(3, 0);
  GammaOptions on = SmallDevice(), off = SmallDevice();
  on.coalesced_search = true;
  on.aggressive_coalescing = true;
  off.coalesced_search = false;
  QueryReport ra = RunGammaBatch(g, q, on, batch);
  QueryReport rb = RunGammaBatch(g, q, off, batch);
  EXPECT_EQ(CanonicalKeys(ra.positive_matches),
            CanonicalKeys(rb.positive_matches));
  // The engine builds its query context the same way.
  EXPECT_GT(BuildQueryContext(q, on.coalesced_search, on.aggressive_coalescing)
                .coalesced_pairs,
            0u);
}

TEST(WbmTest, SequentialBatchesStayConsistent) {
  // Stream of batches: the engine's internal graph/encoder state must
  // track the truth across rounds.
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 33);
  QueryGraph q({0, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  EngineOptions options;
  options.gamma = SmallDevice();
  auto engine = MakeEngine("gamma", g, options);
  const QueryId id = engine->AddQuery(q);
  StreamGenerator gen(PreferentialSpec(30, 2.0 / 3), 34);
  for (int round = 0; round < 5; ++round) {
    UpdateBatch batch = gen.Next(g);
    OracleDelta oracle = OracleIncremental(g, batch, q);
    BatchReport report = engine->ProcessBatch(batch);
    const QueryReport& res = *report.Find(id);
    EXPECT_EQ(CanonicalKeys(res.positive_matches), oracle.positive)
        << "round " << round;
    EXPECT_EQ(CanonicalKeys(res.negative_matches), oracle.negative)
        << "round " << round;
    ApplyBatch(&g, batch);  // keep the reference in sync
  }
}

TEST(WbmTest, EmptyBatchYieldsNothing) {
  LabeledGraph g = GenerateUniformGraph(50, 150, 2, 1, 44);
  QueryGraph q({0, 1});
  q.AddEdge(0, 1);
  QueryReport res = RunGammaBatch(g, q, SmallDevice(), {});
  EXPECT_TRUE(res.positive_matches.empty());
  EXPECT_TRUE(res.negative_matches.empty());
}

TEST(WbmTest, TwoVertexQuery) {
  // |V(Q)| = 2 exercises the InitPlan fast path.
  LabeledGraph g = GenerateUniformGraph(80, 240, 2, 1, 45);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(20, 0.5), 46).Next(g);
  QueryGraph q({0, 1});
  q.AddEdge(0, 1);
  ExpectMatchesOracle(g, batch, q, SmallDevice(), "2-vertex");
  QueryGraph qsym({0, 0});  // symmetric: both orientations per edge
  qsym.AddEdge(0, 1);
  ExpectMatchesOracle(g, batch, qsym, SmallDevice(), "2-vertex-sym");
}

}  // namespace
}  // namespace bdsm
