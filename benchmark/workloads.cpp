#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "graph/datasets.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace bdsm::bench {

namespace {

workload::StreamSpec Stream(workload::StreamKind kind, size_t batches,
                            size_t ops, double insert_fraction) {
  workload::StreamSpec s;
  s.kind = kind;
  s.num_batches = batches;
  s.ops_per_batch = ops;
  s.insert_fraction = insert_fraction;
  s.churn_insert_fraction = insert_fraction;
  return s;
}

/// Power-law twin with the dataset twins' shape conventions
/// (graph/datasets.cpp): Zipf(0.6) vertex labels, unlabeled edges.
GeneratorParams PowerLawTwin(size_t vertices, double avg_degree,
                             size_t vertex_labels, uint64_t seed) {
  GeneratorParams p;
  p.num_vertices = vertices;
  p.avg_degree = avg_degree;
  p.vertex_labels = vertex_labels;
  p.edge_labels = 1;
  p.vertex_label_skew = 0.6;
  p.triangle_prob = 0.3;
  p.seed = seed;
  return p;
}

class Hasher {
 public:
  void Add(uint64_t x) { h_ = SplitMix64(h_ ^ x); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0x6264736d62656e63ull;
};

}  // namespace

std::vector<Workload> AllWorkloads(bool quick) {
  using workload::StreamKind;
  std::vector<Workload> v;

  Workload match_heavy;
  match_heavy.name = "match-heavy";
  match_heavy.engine = "gamma";
  match_heavy.stream = Stream(StreamKind::kUniform, 300, 768, 0.5);
  v.push_back(match_heavy);

  Workload update_heavy;
  update_heavy.name = "update-heavy";
  update_heavy.engine = "gamma";
  update_heavy.github_twin = false;
  update_heavy.graph_params = PowerLawTwin(200'000, 18.0, 30, 0x1a200c);
  update_heavy.num_queries = 2;
  update_heavy.stream = Stream(StreamKind::kUniform, 300, 1536, 0.65);
  v.push_back(update_heavy);

  Workload churn;
  churn.name = "delete-churn";
  churn.engine = "gamma";
  churn.github_twin = false;
  churn.graph_params = PowerLawTwin(60'000, 12.2, 6, 0xa260c);
  churn.stream = Stream(StreamKind::kChurn, 300, 512, 0.35);
  v.push_back(churn);

  Workload many;
  many.name = "many-queries";
  many.engine = "multi";
  many.num_queries = 16;
  many.query_size = 4;
  many.stream = Stream(StreamKind::kUniform, 300, 512, 0.5);
  v.push_back(many);

  if (quick) {
    for (Workload& w : v) {
      w.graph_params.num_vertices =
          std::min<size_t>(w.graph_params.num_vertices, 4'000);
      w.stream.num_batches = 24;
      w.stream.ops_per_batch = 64;
    }
  }
  return v;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  in.graph = w.github_twin ? LoadDataset(DatasetId::kGithub)
                           : GeneratePowerLawGraph(w.graph_params);
  workload::ScenarioSpec recipe;
  recipe.num_queries = w.num_queries;
  recipe.query_size = w.query_size;
  recipe.mixed_classes = false;
  recipe.query_class = QueryGraph::StructureClass::kSparse;
  in.queries = workload::BuildQuerySet(in.graph, recipe, kQuerySeed);
  workload::StreamGenerator gen(
      w.stream, DeriveSeed(seed, workload::kSeedStreamGen));
  in.stream = gen.Generate(in.graph);
  return in;
}

Fingerprints Fingerprint(const Inputs& in) {
  Fingerprints fp;
  Hasher g;
  g.Add(in.graph.NumVertices());
  for (Label l : in.graph.vertex_labels()) g.Add(l);
  for (VertexId u = 0; u < in.graph.NumVertices(); ++u) {
    for (const Neighbor& nb : in.graph.Neighbors(u)) {
      if (nb.v < u) continue;
      g.Add(PackEdge(u, nb.v));
      g.Add(nb.elabel);
    }
  }
  fp.graph = g.Hex();

  Hasher q;
  q.Add(in.queries.size());
  for (const QueryGraph& qg : in.queries) {
    q.Add(qg.NumVertices());
    for (Label l : qg.vertex_labels()) q.Add(l);
    for (const QueryEdge& e : qg.edges()) {
      q.Add(PackEdge(e.u1, e.u2));
      q.Add(e.elabel);
    }
  }
  fp.queries = q.Hex();

  Hasher s;
  s.Add(in.stream.size());
  for (const UpdateBatch& b : in.stream) {
    s.Add(b.size());
    for (const UpdateOp& op : b) {
      s.Add(op.is_insert);
      s.Add(PackEdge(op.u, op.v));
      s.Add(op.elabel);
    }
  }
  fp.stream = s.Hex();
  return fp;
}

}  // namespace bdsm::bench
