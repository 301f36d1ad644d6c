#include "graph/update_stream.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/kcore.hpp"
#include "util/logging.hpp"

namespace bdsm {

size_t ApplyBatch(LabeledGraph* g, const UpdateBatch& batch) {
  size_t applied = 0;
  for (const UpdateOp& op : batch) {
    if (!op.is_insert) applied += g->RemoveEdge(op.u, op.v) ? 1 : 0;
  }
  for (const UpdateOp& op : batch) {
    if (op.is_insert) applied += g->InsertEdge(op.u, op.v, op.elabel) ? 1 : 0;
  }
  return applied;
}

void RevertBatch(LabeledGraph* g, const UpdateBatch& batch) {
  for (const UpdateOp& op : batch) {
    if (op.is_insert) GAMMA_CHECK(g->RemoveEdge(op.u, op.v));
  }
  for (const UpdateOp& op : batch) {
    if (!op.is_insert) {
      GAMMA_CHECK(g->InsertEdge(op.u, op.v, op.elabel));
    }
  }
}

UpdateBatch UpdateStreamGenerator::MakeInsertions(const LabeledGraph& g,
                                                  size_t count,
                                                  size_t elabels) {
  UpdateBatch batch;
  std::unordered_set<Edge, EdgeHash> used;
  const size_t n = g.NumVertices();
  if (n < 2) return batch;
  size_t attempts = 0;
  const size_t max_attempts = count * 64 + 1024;
  while (batch.size() < count && attempts++ < max_attempts) {
    // Bias endpoints towards high degree: walk one hop from a uniform
    // vertex with probability 1/2 (a cheap preferential-attachment proxy).
    auto sample_vertex = [&]() -> VertexId {
      VertexId v = static_cast<VertexId>(rng_.Uniform(n));
      auto nbrs = g.Neighbors(v);
      if (!nbrs.empty() && rng_.Chance(0.5)) {
        return nbrs[rng_.Uniform(nbrs.size())].v;
      }
      return v;
    };
    VertexId a = sample_vertex();
    VertexId b = sample_vertex();
    if (a == b) continue;
    Edge e(a, b);
    if (g.HasEdge(a, b) || used.count(e)) continue;
    used.insert(e);
    Label el = elabels == 0 ? kNoLabel
                            : static_cast<Label>(rng_.Uniform(elabels));
    batch.push_back(UpdateOp{true, e.u, e.v, el});
  }
  return batch;
}

UpdateBatch UpdateStreamGenerator::MakeDeletions(const LabeledGraph& g,
                                                 size_t count) {
  UpdateBatch batch;
  std::vector<Edge> edges = g.CollectEdges();
  if (edges.empty()) return batch;
  count = std::min(count, edges.size());
  // Partial Fisher-Yates over the edge list.
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + rng_.Uniform(edges.size() - i);
    std::swap(edges[i], edges[j]);
    Label el = g.EdgeLabel(edges[i].u, edges[i].v);
    batch.push_back(UpdateOp{false, edges[i].u, edges[i].v, el});
  }
  return batch;
}

UpdateBatch UpdateStreamGenerator::MakeMixed(const LabeledGraph& g,
                                             size_t count, size_t ins_ratio,
                                             size_t del_ratio,
                                             size_t elabels) {
  GAMMA_CHECK(ins_ratio + del_ratio > 0);
  size_t ins = count * ins_ratio / (ins_ratio + del_ratio);
  size_t del = count - ins;
  UpdateBatch batch = MakeInsertions(g, ins, elabels);
  UpdateBatch dels = MakeDeletions(g, del);
  // A deleted edge must not also be (re)inserted within the same batch.
  std::unordered_set<Edge, EdgeHash> inserted;
  for (const UpdateOp& op : batch) inserted.insert(Edge(op.u, op.v));
  for (const UpdateOp& op : dels) {
    if (!inserted.count(Edge(op.u, op.v))) batch.push_back(op);
  }
  return batch;
}

UpdateBatch UpdateStreamGenerator::MakeCoreInsertions(const LabeledGraph& g,
                                                      size_t count, size_t k,
                                                      size_t elabels) {
  std::vector<uint32_t> core = CoreNumbers(g);
  std::vector<VertexId> pool;
  size_t kk = k;
  while (pool.empty() && kk > 0) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (core[v] >= kk) pool.push_back(v);
    }
    if (pool.empty()) --kk;
  }
  if (pool.size() < 2) {
    GAMMA_LOG_WARN("k-core pool too small (k=%zu); using whole graph", k);
    return MakeInsertions(g, count, elabels);
  }
  UpdateBatch batch;
  std::unordered_set<Edge, EdgeHash> used;
  size_t attempts = 0;
  const size_t max_attempts = count * 64 + 1024;
  while (batch.size() < count && attempts++ < max_attempts) {
    VertexId a = pool[rng_.PickIndex(pool)];
    VertexId b = pool[rng_.PickIndex(pool)];
    if (a == b) continue;
    Edge e(a, b);
    if (g.HasEdge(a, b) || used.count(e)) continue;
    used.insert(e);
    Label el = elabels == 0 ? kNoLabel
                            : static_cast<Label>(rng_.Uniform(elabels));
    batch.push_back(UpdateOp{true, e.u, e.v, el});
  }
  return batch;
}

UpdateBatch SanitizeBatch(const LabeledGraph& g, const UpdateBatch& batch) {
  UpdateBatch out;
  std::unordered_set<Edge, EdgeHash> seen;
  const size_t n = g.NumVertices();
  for (const UpdateOp& op : batch) {
    if (op.u >= n || op.v >= n) continue;  // endpoint not in the graph
    Edge e(op.u, op.v);
    if (op.u == op.v || seen.count(e)) continue;
    Label stored = kNoLabel;
    bool exists = g.FindEdge(op.u, op.v, &stored);
    if (op.is_insert == exists) continue;  // no-op insert or delete
    seen.insert(e);
    out.push_back(op);
    // A deletion carries the label the graph stores, whatever the op
    // said: negative matching seeds on it.
    if (!op.is_insert) out.back().elabel = stored;
  }
  return out;
}

}  // namespace bdsm
