/// Unit tests for the graph substrate: LabeledGraph, QueryGraph, CSR,
/// k-core, generators, update streams, I/O round-trips.
#include <gtest/gtest.h>

#include <filesystem>

#include "graph/datasets.hpp"
#include "graph/graph_generator.hpp"
#include "graph/graph_io.hpp"
#include "graph/kcore.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/query_extractor.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

LabeledGraph MakeTriangleWithTail() {
  // 0-1-2 triangle, 2-3 tail.  Labels: 0,1,1,2.
  LabeledGraph g({0, 1, 1, 2});
  EXPECT_TRUE(g.InsertEdge(0, 1));
  EXPECT_TRUE(g.InsertEdge(1, 2));
  EXPECT_TRUE(g.InsertEdge(0, 2));
  EXPECT_TRUE(g.InsertEdge(2, 3));
  return g;
}

TEST(LabeledGraphTest, BasicInsertAndQuery) {
  LabeledGraph g = MakeTriangleWithTail();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.VertexLabel(3), 2u);
}

TEST(LabeledGraphTest, DuplicateAndSelfLoopRejected) {
  LabeledGraph g({0, 0});
  EXPECT_TRUE(g.InsertEdge(0, 1));
  EXPECT_FALSE(g.InsertEdge(0, 1));
  EXPECT_FALSE(g.InsertEdge(1, 0));
  EXPECT_FALSE(g.InsertEdge(1, 1));
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(LabeledGraphTest, RemoveEdge) {
  LabeledGraph g = MakeTriangleWithTail();
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(LabeledGraphTest, AdjacencySorted) {
  LabeledGraph g({0, 0, 0, 0, 0});
  g.InsertEdge(0, 4);
  g.InsertEdge(0, 2);
  g.InsertEdge(0, 3);
  g.InsertEdge(0, 1);
  auto nbrs = g.Neighbors(0);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1].v, nbrs[i].v);
  }
}

TEST(LabeledGraphTest, EdgeLabels) {
  LabeledGraph g({0, 0, 0});
  g.InsertEdge(0, 1, 7);
  g.InsertEdge(1, 2, 3);
  EXPECT_EQ(g.EdgeLabel(0, 1), 7u);
  EXPECT_EQ(g.EdgeLabel(1, 0), 7u);
  EXPECT_EQ(g.EdgeLabel(1, 2), 3u);
  EXPECT_EQ(g.EdgeLabel(0, 2), kNoLabel);
  EXPECT_EQ(g.EdgeLabelAlphabet(), 8u);
}

TEST(LabeledGraphTest, CountNeighborsWithLabel) {
  LabeledGraph g = MakeTriangleWithTail();
  EXPECT_EQ(g.CountNeighborsWithLabel(0, 1), 2u);  // v1, v2 have label 1
  EXPECT_EQ(g.CountNeighborsWithLabel(2, 2), 1u);  // v3 has label 2
  EXPECT_EQ(g.CountNeighborsWithLabel(3, 0), 0u);
}

TEST(LabeledGraphTest, CollectEdgesCanonical) {
  LabeledGraph g = MakeTriangleWithTail();
  auto edges = g.CollectEdges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(QueryGraphTest, MasksAndDegrees) {
  QueryGraph q({0, 1, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(1, 2);
  q.AddEdge(2, 3);
  EXPECT_TRUE(q.HasEdge(0, 1));
  EXPECT_TRUE(q.HasEdge(1, 0));
  EXPECT_FALSE(q.HasEdge(0, 3));
  EXPECT_EQ(q.AdjacencyMask(0), 0b0110u);
  EXPECT_EQ(q.AdjacencyMask(2), 0b1011u);
  EXPECT_EQ(q.Degree(2), 3u);
  EXPECT_TRUE(q.IsConnected());
  EXPECT_FALSE(q.IsTree());
}

TEST(QueryGraphTest, Classification) {
  QueryGraph tree({0, 0, 0, 0});
  tree.AddEdge(0, 1);
  tree.AddEdge(1, 2);
  tree.AddEdge(2, 3);
  EXPECT_EQ(tree.Classify(), QueryGraph::StructureClass::kTree);

  QueryGraph dense({0, 0, 0, 0});
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) dense.AddEdge(a, b);
  }
  EXPECT_EQ(dense.Classify(), QueryGraph::StructureClass::kDense);

  QueryGraph sparse({0, 0, 0, 0, 0});
  sparse.AddEdge(0, 1);
  sparse.AddEdge(1, 2);
  sparse.AddEdge(2, 3);
  sparse.AddEdge(3, 4);
  sparse.AddEdge(4, 0);  // 5-cycle: davg = 2, not a tree
  EXPECT_EQ(sparse.Classify(), QueryGraph::StructureClass::kSparse);
}

TEST(QueryGraphTest, DisconnectedDetected) {
  QueryGraph q({0, 0, 0, 0});
  q.AddEdge(0, 1);
  q.AddEdge(2, 3);
  EXPECT_FALSE(q.IsConnected());
}

TEST(QueryGraphTest, UsedVertexLabels) {
  QueryGraph q({5, 2, 5, 9});
  auto used = q.UsedVertexLabels();
  EXPECT_EQ(used, (std::vector<Label>{2, 5, 9}));
}

TEST(KCoreTest, TriangleWithTail) {
  LabeledGraph g = MakeTriangleWithTail();
  auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(Degeneracy(g), 2u);
}

TEST(KCoreTest, CompleteGraph) {
  LabeledGraph g({0, 0, 0, 0, 0});
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) g.InsertEdge(a, b);
  }
  auto core = CoreNumbers(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 4u);
}

TEST(KCoreTest, CoreInvariant) {
  // Every vertex in the k-core must have >= k neighbors inside the core.
  LabeledGraph g = GenerateUniformGraph(300, 1500, 3, 1, 77);
  auto core = CoreNumbers(g);
  uint32_t k = Degeneracy(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (core[v] < k) continue;
    size_t inside = 0;
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (core[nb.v] >= k) ++inside;
    }
    EXPECT_GE(inside, k) << "vertex " << v;
  }
}

TEST(GeneratorTest, PowerLawHitsTargets) {
  GeneratorParams p;
  p.num_vertices = 2000;
  p.avg_degree = 10.0;
  p.vertex_labels = 5;
  p.edge_labels = 1;
  p.seed = 9;
  LabeledGraph g = GeneratePowerLawGraph(p);
  EXPECT_EQ(g.NumVertices(), 2000u);
  EXPECT_NEAR(g.AverageDegree(), 10.0, 2.0);
  EXPECT_LE(g.VertexLabelAlphabet(), 5u);
  // Power-law: max degree should far exceed the average.
  size_t max_deg = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    max_deg = std::max(max_deg, g.Degree(v));
  }
  EXPECT_GT(max_deg, 40u);
}

TEST(GeneratorTest, Deterministic) {
  GeneratorParams p;
  p.num_vertices = 500;
  p.seed = 31337;
  LabeledGraph a = GeneratePowerLawGraph(p);
  LabeledGraph b = GeneratePowerLawGraph(p);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
  EXPECT_EQ(a.vertex_labels(), b.vertex_labels());
}

TEST(DatasetTest, AllTwinsLoadable) {
  for (const DatasetSpec& spec : AllDatasets()) {
    LabeledGraph g = LoadDataset(spec);
    EXPECT_EQ(g.NumVertices(), spec.twin_vertices) << spec.short_name;
    EXPECT_NEAR(g.AverageDegree(), spec.avg_degree,
                spec.avg_degree * 0.35 + 1.0)
        << spec.short_name;
    EXPECT_LE(g.VertexLabelAlphabet(), spec.vertex_labels)
        << spec.short_name;
    if (spec.edge_labels > 1) {
      EXPECT_GT(g.EdgeLabelAlphabet(), 1u) << spec.short_name;
    }
  }
}

TEST(DatasetTest, LookupByName) {
  const DatasetSpec& nf = DatasetByName("NF");
  EXPECT_EQ(nf.id, DatasetId::kNetflow);
  EXPECT_EQ(nf.edge_labels, 7u);
}

TEST(UpdateStreamTest, ApplyAndRevertRoundTrip) {
  LabeledGraph g = GenerateUniformGraph(200, 600, 3, 2, 7);
  auto before = g.CollectEdges();
  UpdateBatch batch =
      workload::StreamGenerator(workload::PreferentialSpec(60, 2.0 / 3, 2), 19)
          .Next(g);
  size_t applied = ApplyBatch(&g, batch);
  EXPECT_EQ(applied, batch.size());
  RevertBatch(&g, batch);
  EXPECT_EQ(g.CollectEdges(), before);
}

TEST(UpdateStreamTest, SanitizeDropsConflicts) {
  LabeledGraph g({0, 0, 0});
  g.InsertEdge(0, 1);
  UpdateBatch dirty = {
      {true, 0, 1, kNoLabel},   // already exists
      {false, 1, 2, kNoLabel},  // does not exist
      {true, 1, 2, kNoLabel},   // fine
      {true, 2, 1, kNoLabel},   // duplicate of previous (canonical)
      {true, 2, 2, kNoLabel},   // self-loop
      {false, 0, 1, kNoLabel},  // fine
  };
  UpdateBatch clean = SanitizeBatch(g, dirty);
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_TRUE(clean[0].is_insert);
  EXPECT_FALSE(clean[1].is_insert);
}

TEST(QueryExtractorTest, ExtractsRequestedClasses) {
  LabeledGraph g = LoadDataset(DatasetId::kGithub);
  QueryExtractor ex(g, 99);
  for (auto cls : {QueryGraph::StructureClass::kDense,
                   QueryGraph::StructureClass::kSparse,
                   QueryGraph::StructureClass::kTree}) {
    auto q = ex.Extract(6, cls);
    ASSERT_TRUE(q.has_value()) << ToString(cls);
    EXPECT_EQ(q->NumVertices(), 6u);
    EXPECT_TRUE(q->IsConnected());
    EXPECT_EQ(q->Classify(), cls);
  }
}

TEST(QueryExtractorTest, QuerySetSizes) {
  LabeledGraph g = LoadDataset(DatasetId::kAmazon);
  QueryExtractor ex(g, 123);
  auto set = ex.ExtractSet(8, QueryGraph::StructureClass::kTree, 10);
  EXPECT_GE(set.size(), 8u);  // allow a couple of sampler misses
  for (const QueryGraph& q : set) {
    EXPECT_EQ(q.Classify(), QueryGraph::StructureClass::kTree);
  }
}

TEST(GraphIoTest, RoundTrip) {
  LabeledGraph g = GenerateUniformGraph(50, 120, 4, 3, 11);
  std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "gamma_io_test.graph";
  SaveGraph(g, tmp.string());
  LabeledGraph g2 = LoadGraph(tmp.string());
  EXPECT_EQ(g2.NumVertices(), g.NumVertices());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.vertex_labels(), g.vertex_labels());
  EXPECT_EQ(g2.CollectEdges(), g.CollectEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      EXPECT_EQ(g2.EdgeLabel(v, nb.v), nb.elabel);
    }
  }
  std::filesystem::remove(tmp);
}

TEST(GraphIoTest, QueryRoundTrip) {
  QueryGraph q({0, 1, 2});
  q.AddEdge(0, 1, 5);
  q.AddEdge(1, 2);
  std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "gamma_io_test.query";
  SaveQuery(q, tmp.string());
  QueryGraph q2 = LoadQuery(tmp.string());
  EXPECT_EQ(q2.NumVertices(), 3u);
  EXPECT_EQ(q2.edges().size(), 2u);
  EXPECT_EQ(q2.EdgeLabelBetween(0, 1), 5u);
  EXPECT_EQ(q2.EdgeLabelBetween(1, 2), kNoLabel);
  std::filesystem::remove(tmp);
}

}  // namespace
}  // namespace bdsm
