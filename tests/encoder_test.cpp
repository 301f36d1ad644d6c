/// Encoder tests: thermometer semantics, GSI AND-test soundness (the
/// filter must never prune a vertex that participates in a real match),
/// and equivalence of the batch delta path with a full rebuild.
#include <gtest/gtest.h>

#include <string>

#include "baselines/enumerate.hpp"
#include "core/encoder.hpp"
#include "graph/graph_generator.hpp"
#include "graph/update_stream.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

QueryGraph PaperQuery() {
  // Fig. 1(a): u0(A) - u1(B), u0 - u2(B), u1 - u2, u1 - u3(C).
  QueryGraph q({0, 1, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(1, 2);
  q.AddEdge(1, 3);
  return q;
}

/// `inc` (maintained incrementally) must hold exactly the codes and
/// table rows a fresh BuildAll over g produces.
void ExpectEqualsRebuild(const CandidateEncoder& inc, const LabeledGraph& g,
                         const QueryGraph& q, const std::string& where) {
  CandidateEncoder full(q);
  full.BuildAll(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(inc.VertexCode(v), full.VertexCode(v))
        << where << " vertex " << v;
    ASSERT_EQ(inc.CandidateMask(v), full.CandidateMask(v))
        << where << " vertex " << v;
  }
}

/// Three shapes over a 4-label graph: a 4-cycle over every label, a
/// triangle with a pendant (repeated label, so a counter must reach
/// "11"), and a wedge that uses only labels {1, 3}.
std::vector<QueryGraph> DeltaQueries() {
  std::vector<QueryGraph> qs;
  QueryGraph cycle({0, 1, 2, 3});
  cycle.AddEdge(0, 1);
  cycle.AddEdge(1, 2);
  cycle.AddEdge(2, 3);
  cycle.AddEdge(3, 0);
  qs.push_back(cycle);
  QueryGraph tri({0, 0, 1, 2});
  tri.AddEdge(0, 1);
  tri.AddEdge(1, 2);
  tri.AddEdge(0, 2);
  tri.AddEdge(2, 3);
  qs.push_back(tri);
  QueryGraph wedge({3, 1, 3});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);
  qs.push_back(wedge);
  return qs;
}

/// Runs `stream` through ApplyBatch + ApplyBatchDirty for every query
/// and compares against a rebuild after each batch.
void CheckStreamAgainstRebuild(const LabeledGraph& initial,
                               const std::vector<UpdateBatch>& stream) {
  const std::vector<QueryGraph> queries = DeltaQueries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryGraph& q = queries[qi];
    LabeledGraph g = initial;
    CandidateEncoder inc(q);
    inc.BuildAll(g);
    for (size_t b = 0; b < stream.size(); ++b) {
      ASSERT_EQ(ApplyBatch(&g, stream[b]), stream[b].size());
      inc.ApplyBatchDirty(g, stream[b]);
      ExpectEqualsRebuild(inc, g, q,
                          "query " + std::to_string(qi) + " batch " +
                              std::to_string(b));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EncoderTest, ThermometerBits) {
  EXPECT_EQ(ThermometerBits2(0), 0b00u);
  EXPECT_EQ(ThermometerBits2(1), 0b01u);
  EXPECT_EQ(ThermometerBits2(2), 0b11u);
  EXPECT_EQ(ThermometerBits2(7), 0b11u);
}

TEST(EncoderTest, QueryCodesReflectStructure) {
  QueryGraph q = PaperQuery();
  CandidateEncoder enc(q);
  EXPECT_EQ(enc.CodeBits(), 9u);  // 3 labels -> 3 + 6 bits
  // u0 has label A (index 0) and two B neighbors: label bit 0, B-counter
  // (label index 1) = 11.
  uint64_t u0 = enc.QueryCode(0);
  EXPECT_EQ(u0 & 0b111u, 0b001u);
  EXPECT_EQ((u0 >> (3 + 2)) & 0b11u, 0b11u);  // B neighbors saturated
  EXPECT_EQ((u0 >> (3 + 4)) & 0b11u, 0b00u);  // no C neighbor
  // u1 (B): one A, one B, one C neighbor.
  uint64_t u1 = enc.QueryCode(1);
  EXPECT_EQ(u1 & 0b111u, 0b010u);
  EXPECT_EQ((u1 >> 3) & 0b11u, 0b01u);
  EXPECT_EQ((u1 >> 5) & 0b11u, 0b01u);
  EXPECT_EQ((u1 >> 7) & 0b11u, 0b01u);
}

TEST(EncoderTest, CandidateRequiresLabelAndCounts) {
  QueryGraph q = PaperQuery();
  // Data: v0(A) with two B nbrs (v1, v2) which are connected; v3(C) on v1.
  LabeledGraph g({0, 1, 1, 2, 1});
  g.InsertEdge(0, 1);
  g.InsertEdge(0, 2);
  g.InsertEdge(1, 2);
  g.InsertEdge(1, 3);
  g.InsertEdge(2, 4);  // v4: B neighbor of v2
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  EXPECT_TRUE(enc.IsCandidate(0, 0));   // v0 matches u0
  EXPECT_FALSE(enc.IsCandidate(1, 0));  // wrong label
  EXPECT_TRUE(enc.IsCandidate(1, 1));   // v1 has A, B, C neighbors
  EXPECT_FALSE(enc.IsCandidate(2, 1));  // v2 lacks a C neighbor
  EXPECT_TRUE(enc.IsCandidate(2, 2));   // u2 needs A+B neighbors only
  EXPECT_FALSE(enc.IsCandidate(4, 2));  // v4 has no A neighbor
}

TEST(EncoderTest, FilterIsSound) {
  // Soundness: every vertex participating in a real match at position u
  // must be in C(u).  Randomized over labeled-edge graphs.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    LabeledGraph g = GenerateUniformGraph(120, 500, 3, 2, seed);
    QueryGraph q({0, 1, 2, 0});
    q.AddEdge(0, 1, 0);
    q.AddEdge(1, 2, 1);
    q.AddEdge(2, 3, 0);
    q.AddEdge(3, 0, 1);
    CandidateEncoder enc(q);
    enc.BuildAll(g);
    auto matches = EnumerateAllMatches(g, q, 500);
    for (const MatchRecord& m : matches) {
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        EXPECT_TRUE(enc.IsCandidate(m.m[u], u))
            << "seed " << seed << " pruned a true match";
      }
    }
  }
}

TEST(EncoderTest, IncrementalEqualsFullRebuild) {
  // Fig. 11's 2:1 insert:delete mix with labeled edges.
  const LabeledGraph g = GenerateUniformGraph(200, 700, 4, 2, 77);
  workload::StreamSpec spec = workload::PreferentialSpec(60, 2.0 / 3, 2);
  spec.num_batches = 6;
  CheckStreamAgainstRebuild(g,
                            workload::StreamGenerator(spec, 5).Generate(g));
}

TEST(EncoderTest, SaturationTradeoff) {
  // The paper's Fig. 4 note: inserting e(v0, v2) does not change v0's
  // encoding because its B-counter is already saturated at "11".
  QueryGraph q = PaperQuery();
  LabeledGraph g({0, 1, 1, 1});
  g.InsertEdge(0, 1);
  g.InsertEdge(0, 2);
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  uint64_t before = enc.VertexCode(0);
  g.InsertEdge(0, 3);  // third B neighbor
  enc.UpdateDirty(g, std::vector<VertexId>{0, 3});
  EXPECT_EQ(enc.VertexCode(0), before);
}

TEST(EncoderTest, CountCandidates) {
  QueryGraph q({0, 0});
  q.AddEdge(0, 1);
  LabeledGraph g({0, 0, 0, 1});
  g.InsertEdge(0, 1);
  g.InsertEdge(1, 2);
  g.InsertEdge(2, 3);
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  // u0/u1 need one 0-labeled neighbor: v0 (nbr v1), v1 (v0, v2), v2 (v1).
  EXPECT_EQ(enc.CountCandidates(0), 3u);
  EXPECT_EQ(enc.CountCandidates(1), 3u);
}

TEST(EncoderDeltaTest, ChurnStreamEqualsRebuild) {
  LabeledGraph g = GenerateUniformGraph(300, 1400, 4, 2, 91);
  workload::StreamSpec spec;
  spec.kind = workload::StreamKind::kChurn;
  spec.churn_insert_fraction = 0.35;
  spec.num_batches = 60;
  spec.ops_per_batch = 40;
  spec.elabels = 2;
  std::vector<UpdateBatch> stream =
      workload::StreamGenerator(spec, 17).Generate(g);
  ASSERT_EQ(stream.size(), 60u);
  CheckStreamAgainstRebuild(g, stream);
}

TEST(EncoderDeltaTest, GrowthStreamEqualsRebuild) {
  LabeledGraph g = GenerateUniformGraph(300, 600, 4, 0, 92);
  workload::StreamSpec spec;
  spec.kind = workload::StreamKind::kPowerLaw;  // degree-skewed growth
  spec.insert_fraction = 1.0;
  spec.num_batches = 30;
  spec.ops_per_batch = 50;
  std::vector<UpdateBatch> stream =
      workload::StreamGenerator(spec, 18).Generate(g);
  CheckStreamAgainstRebuild(g, stream);
}

TEST(EncoderDeltaTest, HubWalksDownThroughSaturatedCounter) {
  // u0 (label 0) needs two label-1 neighbors.  The hub v0 gains three
  // label-1 leaves, then loses them.  Its counter reads "11" at 3 and at
  // 2, so only an exact count knows that the second deletion drops it
  // to "01" and out of C(u0).
  QueryGraph q({0, 1, 1});
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  LabeledGraph g({0, 1, 1, 1});
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  const size_t shift = 2 + 2 * 1;  // 2 used labels; label 1's counter
  auto counter = [&] { return (enc.VertexCode(0) >> shift) & 0b11u; };
  auto step = [&](bool insert, VertexId leaf) {
    UpdateBatch batch{UpdateOp{insert, 0, leaf}};
    ApplyBatch(&g, batch);
    enc.ApplyBatchDirty(g, batch);
    ExpectEqualsRebuild(enc, g, q, "leaf " + std::to_string(leaf));
  };
  EXPECT_EQ(counter(), 0b00u);
  for (VertexId leaf : {1u, 2u, 3u}) step(true, leaf);
  EXPECT_EQ(counter(), 0b11u);
  EXPECT_TRUE(enc.IsCandidate(0, 0));

  step(false, 3);  // 3 -> 2
  EXPECT_EQ(counter(), 0b11u);
  EXPECT_TRUE(enc.IsCandidate(0, 0));
  step(false, 2);  // 2 -> 1
  EXPECT_EQ(counter(), 0b01u);
  EXPECT_FALSE(enc.IsCandidate(0, 0));
  step(false, 1);  // 1 -> 0
  EXPECT_EQ(counter(), 0b00u);
}

TEST(EncoderDeltaTest, VertexAddedAfterBuildAll) {
  QueryGraph q({0, 1});
  q.AddEdge(0, 1);
  LabeledGraph g({0, 1});
  g.InsertEdge(0, 1);
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  VertexId a = g.AddVertex(1);
  VertexId b = g.AddVertex(0);
  UpdateBatch batch{UpdateOp{true, 0, a}, UpdateOp{true, a, b}};
  ApplyBatch(&g, batch);
  enc.ApplyBatchDirty(g, batch);
  EXPECT_TRUE(enc.IsCandidate(b, 0));
  EXPECT_TRUE(enc.IsCandidate(a, 1));
  ExpectEqualsRebuild(enc, g, q, "grown");
}

TEST(EncoderDeathTest, DeletingTwiceTripsUnderflowCheck) {
  QueryGraph q({0, 1});
  q.AddEdge(0, 1);
  LabeledGraph g({0, 1});
  g.InsertEdge(0, 1);
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  UpdateBatch del{UpdateOp{false, 0, 1}};
  ApplyBatch(&g, del);
  enc.ApplyBatchDirty(g, del);
  EXPECT_DEATH(enc.ApplyBatchDirty(g, del), "underflow");
}

}  // namespace
}  // namespace bdsm
