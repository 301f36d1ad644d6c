/// MatchStore tests: the maintained view must track the true match set
/// of the evolving graph across a stream of batches (differential test
/// against full enumeration), plus unit semantics of deltas.
#include <gtest/gtest.h>

#include <set>

#include "baselines/enumerate.hpp"
#include "core/engine.hpp"
#include "core/match_store.hpp"
#include "graph/graph_generator.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

MatchRecord Rec(std::initializer_list<VertexId> vs, bool positive) {
  MatchRecord m;
  m.n = static_cast<uint8_t>(vs.size());
  m.positive = positive;
  size_t i = 0;
  for (VertexId v : vs) m.m[i++] = v;
  return m;
}

TEST(MatchStoreTest, InsertRemoveCycle) {
  MatchStore store;
  store.ApplyDelta(Rec({1, 2, 3}, true));
  store.ApplyDelta(Rec({4, 5, 6}, true));
  EXPECT_EQ(store.LiveCount(), 2u);
  EXPECT_TRUE(store.Contains(Rec({1, 2, 3}, true)));
  EXPECT_EQ(store.ParticipationCount(2), 1u);

  store.ApplyDelta(Rec({1, 2, 3}, false));
  EXPECT_EQ(store.LiveCount(), 1u);
  EXPECT_FALSE(store.Contains(Rec({1, 2, 3}, true)));
  EXPECT_EQ(store.ParticipationCount(2), 0u);
  EXPECT_EQ(store.applied_positive(), 2u);
  EXPECT_EQ(store.applied_negative(), 1u);
}

TEST(MatchStoreTest, ParticipationCounts) {
  MatchStore store;
  store.ApplyDelta(Rec({7, 8}, true));
  store.ApplyDelta(Rec({7, 9}, true));
  store.ApplyDelta(Rec({7, 10}, true));
  EXPECT_EQ(store.ParticipationCount(7), 3u);
  EXPECT_EQ(store.ParticipationCount(9), 1u);
  store.ApplyDelta(Rec({7, 9}, false));
  EXPECT_EQ(store.ParticipationCount(7), 2u);
}

TEST(MatchStoreTest, DuplicateInsertAborts) {
  MatchStore store;
  store.ApplyDelta(Rec({1, 2}, true));
  EXPECT_DEATH(store.ApplyDelta(Rec({1, 2}, true)), "duplicate");
  EXPECT_DEATH(store.ApplyDelta(Rec({5, 6}, false)), "unknown");
}

TEST(MatchStoreTest, TracksTruthAcrossStream) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 2, 1, 71);
  QueryGraph q({0, 1, 0});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);

  EngineOptions opts;
  opts.gamma.device.num_sms = 2;
  auto gamma = MakeEngine("gamma", g, opts);
  const QueryId id = gamma->AddQuery(q);
  MatchStore store;
  // Seed the store with the initial matches.
  for (const MatchRecord& m : EnumerateAllMatches(g, q)) {
    MatchRecord pos = m;
    pos.positive = true;
    store.ApplyDelta(pos);
  }

  workload::StreamGenerator gen(workload::PreferentialSpec(30, 2.0 / 3), 72);
  for (int round = 0; round < 5; ++round) {
    UpdateBatch batch = gen.Next(gamma->host_graph());
    BatchReport report = gamma->ProcessBatch(batch);
    // Negatives first: a batch may retract a match and (through other
    // edges) create a structurally identical one.
    const QueryReport& res = *report.Find(id);
    for (const MatchRecord& m : res.negative_matches) store.ApplyDelta(m);
    for (const MatchRecord& m : res.positive_matches) store.ApplyDelta(m);

    // Ground truth on the evolved graph.
    auto truth = EnumerateAllMatches(gamma->host_graph(), q);
    ASSERT_EQ(store.LiveCount(), truth.size()) << "round " << round;
    std::set<std::string> live_keys;
    for (const MatchRecord& m : store.Snapshot()) {
      MatchRecord k = m;
      k.positive = true;
      live_keys.insert(k.Key());
    }
    for (MatchRecord m : truth) {
      m.positive = true;
      EXPECT_TRUE(live_keys.count(m.Key())) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace bdsm
