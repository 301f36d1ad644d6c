/// Device-engine tests: "gamma" and "multi" are one engine over one host
/// graph, one GPMA and one device, differing only in launch fusion.
/// Every query of a multi-query engine must behave exactly like a
/// single-query engine that saw the same batches, through late
/// registration and removal, and "multi" must find the same matches as
/// "gamma" while charging the shared GPMA update once.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph_generator.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

QueryGraph TriangleQuery() {
  QueryGraph q({0, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  return q;
}

QueryGraph PathQuery() {
  QueryGraph q({0, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

QueryGraph SquareQuery() {
  QueryGraph q({0, 1, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(2, 3);
  q.AddEdge(3, 0);
  return q;
}

QueryGraph WedgeQuery() {
  QueryGraph q({1, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

/// One query of the engines under test together with its exact
/// reference: a single-query "gamma" engine that has processed every
/// batch since the start of the stream.
struct Tracked {
  std::unique_ptr<Engine> single;
  QueryId single_id = kInvalidQueryId;
  /// Ids in the "gamma" / "multi" engines under test; invalid until the
  /// query is registered there.
  QueryId gamma_id = kInvalidQueryId;
  QueryId multi_id = kInvalidQueryId;
};

Tracked MakeTracked(const LabeledGraph& g, const QueryGraph& q,
                    const EngineOptions& opts) {
  Tracked t;
  t.single = MakeEngine("gamma", g, opts);
  t.single_id = t.single->AddQuery(q);
  return t;
}

// A 3-query "gamma" engine against one single-query "gamma" engine per
// query, over 32 churn and 32 growth batches.  Per query and per batch
// the two agree exactly: match vectors in order, both DeviceStats and
// the host graph.  A "multi" engine driven alongside finds the same
// match sets and charges each query the same update kernel.
//
// A wedge registered late, at batch 10, must agree exactly with a
// reference that registered it at batch 0: both see the same evolved
// GPMA layout (it does not depend on which queries exist), and a
// delta-maintained encoding equals a BuildAll of the same graph
// (encoder_test).  Its match set must also equal that of a fresh engine
// built from the host graph at batch 10.  Removing a query at batch 20
// leaves the others unchanged.
TEST(DeviceEngineParityTest, EveryQueryEqualsItsSingleQueryEngine) {
  const QueryGraph wedge = WedgeQuery();
  for (const bool churn : {true, false}) {
    SCOPED_TRACE(churn ? "churn" : "growth");
    LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, churn ? 81 : 82);
    EngineOptions opts;
    opts.gamma.device.num_sms = 2;
    auto gamma = MakeEngine("gamma", g, opts);
    auto multi = MakeEngine("multi", g, opts);

    std::vector<Tracked> tracked;
    for (const QueryGraph& q : {TriangleQuery(), PathQuery(), SquareQuery()}) {
      Tracked t = MakeTracked(g, q, opts);
      t.gamma_id = gamma->AddQuery(q);
      t.multi_id = multi->AddQuery(q);
      tracked.push_back(std::move(t));
    }
    tracked.push_back(MakeTracked(g, wedge, opts));  // registered at 10
    QueryId late_id = kInvalidQueryId;
    std::unique_ptr<Engine> fresh;  // built from the graph at batch 10
    QueryId fresh_id = kInvalidQueryId;

    StreamGenerator gen(churn ? PreferentialSpec(40, 1.0 / 3)
                              : PreferentialSpec(30, 1),
                        churn ? 83 : 84);
    size_t matches = 0;
    for (size_t b = 0; b < 32; ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      if (b == 10) {
        Tracked& w = tracked.back();
        late_id = w.gamma_id = gamma->AddQuery(wedge);
        w.multi_id = multi->AddQuery(wedge);
        fresh = MakeEngine("gamma", gamma->host_graph(), opts);
        fresh_id = fresh->AddQuery(wedge);
      }
      if (b == 20) {
        ASSERT_TRUE(gamma->RemoveQuery(tracked[1].gamma_id));
        ASSERT_TRUE(multi->RemoveQuery(tracked[1].multi_id));
        EXPECT_FALSE(gamma->RemoveQuery(tracked[1].gamma_id));
        tracked.erase(tracked.begin() + 1);
      }
      const UpdateBatch raw = gen.Next(gamma->host_graph());
      const BatchReport got = gamma->ProcessBatch(raw);
      const BatchReport fused = multi->ProcessBatch(raw);
      const size_t live = b < 10 ? 3 : (b < 20 ? 4 : 3);
      ASSERT_EQ(got.queries.size(), live);
      ASSERT_EQ(fused.queries.size(), live);
      EXPECT_EQ(multi->host_graph(), gamma->host_graph());

      for (Tracked& t : tracked) {
        const BatchReport ref = t.single->ProcessBatch(raw);
        EXPECT_EQ(t.single->host_graph(), gamma->host_graph());
        if (t.gamma_id == kInvalidQueryId) continue;  // not yet registered
        const QueryReport& want = *ref.Find(t.single_id);
        const QueryReport* g_q = got.Find(t.gamma_id);
        const QueryReport* m_q = fused.Find(t.multi_id);
        ASSERT_NE(g_q, nullptr);
        ASSERT_NE(m_q, nullptr);
        EXPECT_EQ(g_q->positive_matches, want.positive_matches);
        EXPECT_EQ(g_q->negative_matches, want.negative_matches);
        EXPECT_EQ(g_q->update_stats, want.update_stats);
        EXPECT_EQ(g_q->match_stats, want.match_stats);
        EXPECT_EQ(CanonicalKeys(m_q->positive_matches),
                  CanonicalKeys(want.positive_matches));
        EXPECT_EQ(CanonicalKeys(m_q->negative_matches),
                  CanonicalKeys(want.negative_matches));
        EXPECT_EQ(m_q->update_stats, want.update_stats);
        matches += want.TotalMatches();
      }

      // "gamma" charges the one update kernel once per query, "multi"
      // once.
      DeviceStats per_query;
      for (const QueryReport& qr : got.queries) {
        per_query.MergeSequential(qr.update_stats);
      }
      EXPECT_EQ(got.update_stats, per_query);
      EXPECT_EQ(fused.update_stats, fused.queries[0].update_stats);

      if (fresh != nullptr) {
        const BatchReport fr = fresh->ProcessBatch(raw);
        const QueryReport* w = got.Find(late_id);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(CanonicalKeys(w->positive_matches),
                  CanonicalKeys(fr.Find(fresh_id)->positive_matches));
        EXPECT_EQ(CanonicalKeys(w->negative_matches),
                  CanonicalKeys(fr.Find(fresh_id)->negative_matches));
      }
    }
    EXPECT_GT(matches, 0u);
  }
}

// "gamma" simulates its per-query grids together in one host region
// per match phase.  A 4-query engine must still
// report, per query, what a 1-query engine reports: the same match
// multisets and the same match and update DeviceStats, batch by batch
// over a churn stream.
TEST(DeviceEngineTest, FourQueryGammaEqualsFourSingleQueryEngines) {
  LabeledGraph g = GenerateUniformGraph(200, 700, 3, 1, 71);
  const std::vector<QueryGraph> queries = {TriangleQuery(), PathQuery(),
                                           SquareQuery(), WedgeQuery()};
  auto gamma = MakeEngine("gamma", g);
  std::vector<std::unique_ptr<Engine>> singles;
  for (const QueryGraph& q : queries) {
    gamma->AddQuery(q);
    singles.push_back(MakeEngine("gamma", g));
    singles.back()->AddQuery(q);
  }
  workload::StreamSpec spec;
  spec.kind = workload::StreamKind::kChurn;
  spec.num_batches = 12;
  spec.ops_per_batch = 60;
  const std::vector<UpdateBatch> stream =
      StreamGenerator(spec, 72).Generate(g);
  size_t matches = 0;
  for (size_t b = 0; b < stream.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const BatchReport got = gamma->ProcessBatch(stream[b]);
    ASSERT_EQ(got.queries.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const BatchReport ref = singles[i]->ProcessBatch(stream[b]);
      const QueryReport& want = ref.queries[0];
      const QueryReport& have = got.queries[i];
      EXPECT_EQ(CanonicalKeys(have.positive_matches),
                CanonicalKeys(want.positive_matches))
          << "query " << i;
      EXPECT_EQ(CanonicalKeys(have.negative_matches),
                CanonicalKeys(want.negative_matches))
          << "query " << i;
      EXPECT_EQ(have.match_stats, want.match_stats) << "query " << i;
      EXPECT_EQ(have.update_stats, want.update_stats) << "query " << i;
      matches += want.TotalMatches();
    }
  }
  EXPECT_GT(matches, 0u);
}

TEST(DeviceEngineTest, SharedUpdateChargedOnce) {
  LabeledGraph g = GenerateUniformGraph(100, 300, 2, 1, 93);
  QueryGraph q({0, 0});
  q.AddEdge(0, 1);
  auto multi = MakeEngine("multi", g);
  auto gamma = MakeEngine("gamma", g);
  for (Engine* e : {multi.get(), gamma.get()}) {
    e->AddQuery(q);
    e->AddQuery(q);
  }
  UpdateBatch batch = StreamGenerator(PreferentialSpec(30, 1), 94).Next(g);
  BatchReport m = multi->ProcessBatch(batch);
  BatchReport gr = gamma->ProcessBatch(batch);
  // Both queries report the same shared update stats, charged once.
  EXPECT_EQ(m.queries[0].update_stats, m.queries[1].update_stats);
  EXPECT_EQ(m.update_stats, m.queries[0].update_stats);
  EXPECT_GT(m.update_stats.makespan_ticks, 0u);
  // "gamma" charges the same kernel once per query.
  EXPECT_EQ(gr.queries[0].update_stats, m.queries[0].update_stats);
  EXPECT_EQ(gr.update_stats.makespan_ticks,
            2 * m.update_stats.makespan_ticks);
  // Per-query preprocess: "multi" reports the batch total (mirror plus
  // every query's deltas), "gamma" the mirror plus that query's own.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(m.queries[i].preprocess_host_seconds,
              m.preprocess_host_seconds);
    EXPECT_LT(gr.queries[i].preprocess_host_seconds,
              gr.preprocess_host_seconds);
  }
}

TEST(DeviceEngineTest, RemoveQueryKeepsOthersCorrect) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 97);
  QueryGraph tri({0, 1, 1});
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  const QueryGraph path = PathQuery();
  const QueryGraph wedge = WedgeQuery();

  auto multi = MakeEngine("multi", g);
  QueryId id_tri = multi->AddQuery(tri);
  QueryId id_path = multi->AddQuery(path);
  QueryId id_wedge = multi->AddQuery(wedge);
  ASSERT_TRUE(multi->RemoveQuery(id_path));
  EXPECT_FALSE(multi->RemoveQuery(id_path));  // ids never reused
  EXPECT_FALSE(multi->RemoveQuery(999));
  EXPECT_EQ(multi->NumQueries(), 2u);
  EXPECT_EQ(multi->QueryIds(), (std::vector<QueryId>{id_tri, id_wedge}));

  // The survivors behave exactly like an engine that never saw the
  // removed query, across a stream of batches.
  auto witness = MakeEngine("multi", g);
  witness->AddQuery(tri);
  witness->AddQuery(wedge);

  StreamGenerator gen(PreferentialSpec(35, 2.0 / 3), 98);
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch = gen.Next(multi->host_graph());
    BatchReport got = multi->ProcessBatch(batch);
    BatchReport want = witness->ProcessBatch(batch);
    ASSERT_EQ(got.queries.size(), 2u);
    for (size_t qi = 0; qi < 2; ++qi) {
      EXPECT_EQ(CanonicalKeys(got.queries[qi].positive_matches),
                CanonicalKeys(want.queries[qi].positive_matches))
          << "round " << round << " query " << qi;
      EXPECT_EQ(CanonicalKeys(got.queries[qi].negative_matches),
                CanonicalKeys(want.queries[qi].negative_matches))
          << "round " << round << " query " << qi;
    }
  }

  // Removing the last queries empties the engine but keeps it usable.
  ASSERT_TRUE(multi->RemoveQuery(id_tri));
  ASSERT_TRUE(multi->RemoveQuery(id_wedge));
  EXPECT_EQ(multi->NumQueries(), 0u);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(10, 1), 98).Next(multi->host_graph());
  EXPECT_TRUE(multi->ProcessBatch(batch).queries.empty());
}

// With no queries the engine still keeps its device graph in step with
// the host graph: a query registered afterwards finds exactly what a
// fresh engine over the evolved graph finds, deletions included.
TEST(DeviceEngineTest, NoQueriesIsFine) {
  LabeledGraph g = GenerateUniformGraph(50, 120, 2, 1, 95);
  for (const char* name : {"gamma", "multi"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    BatchReport empty = engine->ProcessBatch(
        StreamGenerator(PreferentialSpec(10, 1), 96).Next(g));
    EXPECT_TRUE(empty.queries.empty());
    EXPECT_EQ(engine->host_graph().NumEdges(), g.NumEdges() + 10);

    auto fresh = MakeEngine(name, engine->host_graph());
    QueryId id = engine->AddQuery(WedgeQuery());
    QueryId fresh_id = fresh->AddQuery(WedgeQuery());
    UpdateBatch batch = StreamGenerator(PreferentialSpec(30, 2.0 / 3), 96)
                            .Next(engine->host_graph());
    BatchReport got = engine->ProcessBatch(batch);
    BatchReport want = fresh->ProcessBatch(batch);
    EXPECT_GT(want.TotalMatches(), 0u);
    EXPECT_EQ(CanonicalKeys(got.Find(id)->positive_matches),
              CanonicalKeys(want.Find(fresh_id)->positive_matches));
    EXPECT_EQ(CanonicalKeys(got.Find(id)->negative_matches),
              CanonicalKeys(want.Find(fresh_id)->negative_matches));
    EXPECT_EQ(engine->host_graph(), fresh->host_graph());
  }
}

}  // namespace
}  // namespace bdsm
