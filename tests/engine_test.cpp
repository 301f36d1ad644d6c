/// Unified-engine-layer tests: registry round-trip over every engine
/// name, cross-engine result parity on one identical batch (GAMMA's net
/// matches == each CSM baseline's NetEffect), streaming-sink vs
/// materialized equivalence, dynamic AddQuery/RemoveQuery, and the
/// unified truncation reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "baselines/enumerate.hpp"
#include "core/engine.hpp"
#include "core/match_store.hpp"
#include "graph/graph_generator.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

const char* const kAllEngines[] = {"gamma", "multi", "tf", "sym",
                                   "rf",    "cl",    "gf"};

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

/// Signed canonical keys of a report's net effect.  Device engines
/// already emit the batch delta; CSM engines emit the raw sequential
/// stream, which NetDelta reduces to the same delta.
std::vector<std::string> NetKeys(const QueryReport& qr) {
  std::vector<std::string> keys;
  for (const MatchRecord& m : NetDelta(qr)) keys.push_back(m.Key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(EngineRegistryTest, AllNamesConstructAndRoundTrip) {
  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 11);
  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    ASSERT_NE(engine, nullptr);
    EXPECT_STREQ(engine->Name(), name);
    EXPECT_EQ(engine->NumQueries(), 0u);
    EXPECT_EQ(engine->host_graph().NumEdges(), g.NumEdges());

    QueryId a = engine->AddQuery(TriangleQuery());
    QueryId b = engine->AddQuery(PathQuery());
    EXPECT_NE(a, b);
    EXPECT_EQ(engine->QueryIds(), (std::vector<QueryId>{a, b}));

    EXPECT_TRUE(engine->RemoveQuery(a));
    EXPECT_FALSE(engine->RemoveQuery(a));  // ids are never reused
    EXPECT_EQ(engine->QueryIds(), (std::vector<QueryId>{b}));

    QueryId c = engine->AddQuery(TriangleQuery());
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_EQ(engine->NumQueries(), 2u);
  }
}

TEST(EngineRegistryTest, AliasesAndCaseInsensitivity) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 12);
  EXPECT_STREQ(MakeEngine("TF", g)->Name(), "tf");
  EXPECT_STREQ(MakeEngine("turboflux", g)->Name(), "tf");
  EXPECT_STREQ(MakeEngine("RapidFlow", g)->Name(), "rf");
  EXPECT_STREQ(MakeEngine("GAMMA", g)->Name(), "gamma");
  EXPECT_STREQ(MakeEngine("multigamma", g)->Name(), "multi");
  EXPECT_TRUE(EngineRegistry::Instance().Has("sym"));
  EXPECT_FALSE(EngineRegistry::Instance().Has("no-such-engine"));

  std::vector<std::string> names = EngineNames();
  for (const char* name : kAllEngines) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(EngineRegistryTest, DescribeSplitsClockDomains) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 13);
  for (const char* name : {"gamma", "multi"}) {
    EngineInfo info = MakeEngine(name, g)->Describe();
    EXPECT_EQ(info.clock, ClockDomain::kModeledDevice) << name;
    EXPECT_EQ(info.canonical_spec, name);
    EXPECT_EQ(info.num_shards, 1u);
  }
  for (const char* name : {"tf", "sym", "rf", "cl", "gf"}) {
    EngineInfo info = MakeEngine(name, g)->Describe();
    EXPECT_EQ(info.clock, ClockDomain::kHostWall) << name;
    EXPECT_EQ(info.canonical_spec, name);
  }
  // Aliases canonicalize in the provenance spec.
  EXPECT_EQ(MakeEngine("TurboFlux", g)->Describe().canonical_spec, "tf");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kModeledDevice),
               "modeled-device");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kCriticalPath),
               "critical-path");
  EXPECT_STREQ(ClockDomainName(ClockDomain::kHostWall), "host-wall");
}

TEST(EngineRegistryTest, CustomRegistration) {
  LabeledGraph g = GenerateUniformGraph(40, 90, 2, 1, 14);
  EngineRegistry::Instance().Register(
      "gamma-aggressive",
      [](const EngineSpec&, const LabeledGraph& graph,
         const EngineOptions& options) {
        EngineOptions tuned = options;
        tuned.gamma.aggressive_coalescing = true;
        return EngineRegistry::Instance().Make("gamma", graph, tuned);
      });
  auto engine = MakeEngine("gamma-aggressive", g);
  EXPECT_STREQ(engine->Name(), "gamma");
  // Provenance names the spec that rebuilds this engine — the
  // delegating factory's nested Make("gamma") stamp must not leak.
  EXPECT_EQ(engine->Describe().canonical_spec, "gamma-aggressive");
  EXPECT_TRUE(EngineRegistry::Instance().Has("gamma-aggressive"));
  // The shorthand registration accepts no inline options or children.
  EXPECT_FALSE(EngineRegistry::Instance().Has("gamma-aggressive(x=1)"));
  EXPECT_FALSE(EngineRegistry::Instance().Has("gamma-aggressive(gamma)"));
}

// Acceptance bar: one identical fixed-seed batch through every engine
// via the uniform interface; GAMMA's net matches equal each baseline's
// NetEffect, per query.
TEST(EngineParityTest, IdenticalBatchAcrossAllEngines) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, 2024);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), 2025).Next(g);

  std::vector<QueryGraph> queries = {TriangleQuery(), PathQuery()};

  // Reference: the GAMMA engine.
  auto reference = MakeEngine("gamma", g);
  std::vector<QueryId> ref_ids;
  for (const QueryGraph& q : queries) ref_ids.push_back(reference->AddQuery(q));
  BatchReport ref = reference->ProcessBatch(batch);

  std::vector<std::vector<std::string>> want;
  for (QueryId id : ref_ids) want.push_back(NetKeys(*ref.Find(id)));
  ASSERT_FALSE(want[0].empty());  // the workload must exercise matching

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    std::vector<QueryId> ids;
    for (const QueryGraph& q : queries) ids.push_back(engine->AddQuery(q));
    BatchReport report = engine->ProcessBatch(batch);
    ASSERT_EQ(report.queries.size(), queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryReport* qr = report.Find(ids[qi]);
      ASSERT_NE(qr, nullptr);
      EXPECT_EQ(NetKeys(*qr), want[qi]) << "query " << qi;
    }
  }
}

// Streaming-sink delivery must produce the same match multiset as the
// materialized report vectors, for every engine family.
TEST(EngineSinkTest, SinkEqualsMaterialized) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 31);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(25, 2.0 / 3), 32).Next(g);

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto materialized = MakeEngine(name, g);
    auto streaming = MakeEngine(name, g);
    QueryId mq = materialized->AddQuery(TriangleQuery());
    QueryId sq = streaming->AddQuery(TriangleQuery());

    BatchReport mr = materialized->ProcessBatch(batch);

    CollectingSink sink;
    BatchOptions bo;
    bo.sink = &sink;
    bo.materialize = false;
    BatchReport sr = streaming->ProcessBatch(batch, bo);

    const QueryReport* mqr = mr.Find(mq);
    const QueryReport* sqr = sr.Find(sq);
    ASSERT_NE(mqr, nullptr);
    ASSERT_NE(sqr, nullptr);

    // Counts survive non-materialization; vectors do not.
    EXPECT_EQ(sqr->num_positive, mqr->num_positive);
    EXPECT_EQ(sqr->num_negative, mqr->num_negative);
    EXPECT_TRUE(sqr->positive_matches.empty());
    EXPECT_TRUE(sqr->negative_matches.empty());

    // Same multiset through the sink as in the materialized vectors.
    std::vector<MatchRecord> all = mqr->positive_matches;
    all.insert(all.end(), mqr->negative_matches.begin(),
               mqr->negative_matches.end());
    std::vector<std::string> want = CanonicalKeys(all);
    std::vector<std::string> got = CanonicalKeys(sink.MatchesFor(sq));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

// Delta ordering end-to-end: a MatchStore-backed sink (which aborts on
// out-of-order deltas) maintained purely from streamed matches must
// arrive at exactly the oracle's post-batch match set — for the device
// family (batch-level delta) and the CSM family (raw interleaved
// stream, whose emission order DeliverDirect preserves).
TEST(EngineSinkTest, StoreSinkTracksOracleAcrossFamilies) {
  LabeledGraph g = GenerateUniformGraph(80, 260, 2, 1, 35);
  QueryGraph wedge({1, 0, 1});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), 36).Next(g);

  struct StoreSink final : ResultSink {
    MatchStore store;
    void OnMatch(QueryId, const MatchRecord& m) override {
      store.ApplyDelta(m);
    }
  };

  for (const char* name : {"gamma", "multi", "gf", "rf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    QueryId q = engine->AddQuery(wedge);

    StoreSink sink;
    for (MatchRecord m : EnumerateAllMatches(g, wedge)) {
      m.positive = true;
      sink.OnMatch(q, m);
    }

    BatchOptions bo;
    bo.sink = &sink;
    bo.materialize = false;
    engine->ProcessBatch(batch, bo);

    std::vector<std::string> got = CanonicalKeys(sink.store.Snapshot());
    std::vector<MatchRecord> after_ms =
        EnumerateAllMatches(engine->host_graph(), wedge);
    for (MatchRecord& m : after_ms) m.positive = true;
    std::vector<std::string> want = CanonicalKeys(after_ms);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

// Sink alongside materialization: both delivery paths active at once.
TEST(EngineSinkTest, SinkAndMaterializeTogether) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 33);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(20, 1), 34).Next(g);

  auto engine = MakeEngine("multi", g);
  QueryId q1 = engine->AddQuery(TriangleQuery());
  QueryId q2 = engine->AddQuery(PathQuery());

  CollectingSink sink;
  BatchOptions bo;
  bo.sink = &sink;  // materialize stays true
  BatchReport report = engine->ProcessBatch(batch, bo);

  for (QueryId q : {q1, q2}) {
    const QueryReport* qr = report.Find(q);
    ASSERT_NE(qr, nullptr);
    EXPECT_EQ(qr->positive_matches.size() + qr->negative_matches.size(),
              sink.MatchesFor(q).size());
    EXPECT_EQ(qr->TotalMatches(), sink.MatchesFor(q).size());
  }
}

// Queries registered/removed mid-stream: a query added after batch 1
// sees exactly what a fresh engine over the evolved graph sees.
TEST(EngineDynamicTest, AddQueryMidStream) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 41);
  StreamGenerator gen(PreferentialSpec(25, 2.0 / 3), 42);
  UpdateBatch batch1 = gen.Next(g);

  for (const char* name : {"gamma", "multi", "rf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    engine->AddQuery(TriangleQuery());
    engine->ProcessBatch(batch1);

    // Register a second pattern against the evolved graph.
    QueryId late = engine->AddQuery(PathQuery());
    UpdateBatch batch2 = gen.Next(engine->host_graph());
    BatchReport got = engine->ProcessBatch(batch2);

    // host_graph() already includes batch2; rebuild the pre-batch state.
    LabeledGraph before = g;
    ApplyBatch(&before, SanitizeBatch(g, batch1));
    auto witness = MakeEngine(name, before);
    QueryId wq = witness->AddQuery(PathQuery());
    BatchReport want = witness->ProcessBatch(batch2);

    EXPECT_EQ(NetKeys(*got.Find(late)), NetKeys(*want.Find(wq)));
  }
}

TEST(EngineDynamicTest, RemoveQueryDropsItsResults) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 43);
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(25, 2.0 / 3), 44).Next(g);

  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    QueryId keep = engine->AddQuery(TriangleQuery());
    QueryId drop = engine->AddQuery(PathQuery());
    ASSERT_TRUE(engine->RemoveQuery(drop));

    BatchReport report = engine->ProcessBatch(batch);
    EXPECT_EQ(report.queries.size(), 1u);
    EXPECT_NE(report.Find(keep), nullptr);
    EXPECT_EQ(report.Find(drop), nullptr);

    // The survivor's results equal a never-shared engine's.
    auto witness = MakeEngine(name, g);
    QueryId wq = witness->AddQuery(TriangleQuery());
    BatchReport want = witness->ProcessBatch(batch);
    EXPECT_EQ(NetKeys(*report.Find(keep)), NetKeys(*want.Find(wq)));
  }
}

// The unified truncation story: a tiny result cap reports Truncated()
// through the same flag set for both engine families.
TEST(EngineReportTest, TruncationIsUnified) {
  LabeledGraph g = GenerateUniformGraph(150, 600, 2, 1, 51);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(120, 1), 52).Next(g);

  EngineOptions tiny;
  tiny.gamma.result_cap = 1;
  tiny.csm_result_cap = 1;

  // A 2-label wedge so the 2-label graph actually produces matches.
  QueryGraph wedge({1, 0, 1});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);

  for (const char* name : {"gamma", "multi", "gf"}) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g, tiny);
    QueryId q = engine->AddQuery(wedge);
    BatchReport report = engine->ProcessBatch(batch);
    const QueryReport* qr = report.Find(q);
    ASSERT_NE(qr, nullptr);
    EXPECT_TRUE(qr->Truncated());
    EXPECT_TRUE(report.Truncated());
  }
}

// Ops naming a vertex outside the graph are dropped by SanitizeBatch:
// a batch carrying them reports exactly what the batch without them
// does, and the engine's graph never sees the bad edge.
TEST(EngineDynamicTest, OutOfRangeEndpointsAreDropped) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 55);
  const UpdateBatch clean =
      StreamGenerator(PreferentialSpec(30, 2.0 / 3), 56).Next(g);
  const VertexId n = static_cast<VertexId>(g.NumVertices());
  UpdateBatch dirty = clean;
  dirty.insert(dirty.begin() + 3, UpdateOp{true, 3, 100000});
  dirty.push_back(UpdateOp{true, n, 0});
  dirty.push_back(UpdateOp{false, 2, n + 7});

  for (const char* name : {"gamma", "multi", "rf"}) {
    SCOPED_TRACE(name);
    auto with_bad = MakeEngine(name, g);
    auto without = MakeEngine(name, g);
    QueryId qa = with_bad->AddQuery(TriangleQuery());
    QueryId qb = without->AddQuery(TriangleQuery());
    BatchReport got = with_bad->ProcessBatch(dirty);
    BatchReport want = without->ProcessBatch(clean);

    EXPECT_EQ(with_bad->host_graph(), without->host_graph());
    const QueryReport& a = *got.Find(qa);
    const QueryReport& b = *want.Find(qb);
    EXPECT_EQ(a.positive_matches, b.positive_matches);
    EXPECT_EQ(a.negative_matches, b.negative_matches);
    EXPECT_EQ(a.num_positive, b.num_positive);
    EXPECT_EQ(a.num_negative, b.num_negative);
    EXPECT_EQ(got.update_stats, want.update_stats);
    EXPECT_EQ(got.match_stats, want.match_stats);
  }
}

// A deletion's op label is not trusted: negative matching seeds on the
// label the graph stores, as the CSM engines do.  Both batches delete a
// label-1 triangle edge; the first op carries the default label.
TEST(EngineDynamicTest, DeletionSeedsOnStoredEdgeLabel) {
  LabeledGraph g({0, 0, 0});
  g.InsertEdge(0, 1, 1);
  g.InsertEdge(1, 2, 1);
  g.InsertEdge(0, 2, 1);
  QueryGraph q({0, 0, 0});
  q.AddEdge(0, 1, 1);
  q.AddEdge(1, 2, 1);
  q.AddEdge(0, 2, 1);
  const UpdateBatch batches[] = {
      {UpdateOp{false, 0, 1}},
      {UpdateOp{false, 0, 1}, UpdateOp{false, 1, 2, 1}},
  };
  for (const UpdateBatch& batch : batches) {
    SCOPED_TRACE(batch.size());
    auto reference = MakeEngine("rf", g);
    QueryId ref_id = reference->AddQuery(q);
    const std::vector<std::string> want =
        NetKeys(*reference->ProcessBatch(batch).Find(ref_id));
    ASSERT_EQ(want.size(), 6u);  // the triangle's six embeddings
    for (const char* name : {"gamma", "multi", "sharded(gamma, shards=2)"}) {
      SCOPED_TRACE(name);
      auto engine = MakeEngine(name, g);
      QueryId id = engine->AddQuery(q);
      BatchReport report = engine->ProcessBatch(batch);
      const QueryReport& qr = *report.Find(id);
      EXPECT_EQ(qr.num_negative, 6u);
      EXPECT_EQ(qr.num_positive, 0u);
      EXPECT_EQ(NetKeys(qr), want);
    }
  }
}

TEST(EngineReportTest, EmptyEngineStillAdvancesGraph) {
  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 53);
  UpdateBatch batch = StreamGenerator(PreferentialSpec(10, 1), 54).Next(g);
  for (const char* name : kAllEngines) {
    SCOPED_TRACE(name);
    auto engine = MakeEngine(name, g);
    BatchReport report = engine->ProcessBatch(batch);
    EXPECT_TRUE(report.queries.empty());
    EXPECT_EQ(report.TotalMatches(), 0u);
    EXPECT_EQ(engine->host_graph().NumEdges(), g.NumEdges() + 10);
  }
}

}  // namespace
}  // namespace bdsm
