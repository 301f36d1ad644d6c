#include "graph/update_stream.hpp"

#include <unordered_set>

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
