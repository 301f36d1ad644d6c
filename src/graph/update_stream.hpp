/// \file update_stream.hpp
/// Graph update streams and batches (Definition 1 of the paper).
///
/// A stream is a sequence of batches; a batch is a set of edge insertions
/// and deletions applied *atomically* — BDSM only cares about the match
/// difference across the whole batch, not about intra-batch ordering.
/// This file holds the batch format and the operations on it (apply,
/// revert, sanitize).  Every stream generator — the paper's evaluation
/// workloads (Fig. 9's insertion rate, pure deletion, Fig. 11's 2:1
/// mix, Fig. 10's k-core insertions) and the scenario shapes alike —
/// and the trace record/replay format live one layer up in
/// src/workload/ (see docs/WORKLOADS.md).
#pragma once

#include <vector>

#include "graph/labeled_graph.hpp"
#include "util/common.hpp"

namespace bdsm {

/// One edge update: the paper's "(⊕, e)" with ⊕ ∈ {+, -}.
struct UpdateOp {
  bool is_insert;           ///< ⊕: true = insertion, false = deletion
  VertexId u;               ///< edge endpoint (graphs are undirected)
  VertexId v;               ///< edge endpoint
  Label elabel = kNoLabel;  ///< edge label; kNoLabel on unlabeled graphs

  friend bool operator==(const UpdateOp&, const UpdateOp&) = default;
};

/// A batch ∆B of updates; |∆B| > 1 makes the graph *batch-dynamic*.
/// Engines only guarantee the *net* match difference across the whole
/// batch; feed batches to Engine::ProcessBatch or StreamPipeline::Run,
/// which sanitize them first (see SanitizeBatch).
using UpdateBatch = std::vector<UpdateOp>;

/// Applies a batch to the host graph.  Deletions execute before
/// insertions so a batch may legally delete an edge and re-insert it with
/// a different label.  Returns the number of ops that took effect.
size_t ApplyBatch(LabeledGraph* g, const UpdateBatch& batch);

/// Reverts a previously applied batch (for oracles/tests that need the
/// pre-update graph back).
void RevertBatch(LabeledGraph* g, const UpdateBatch& batch);

/// Removes intra-batch conflicts: duplicate ops on one edge, insertion of
/// existing edges, deletion of absent edges, and ops with an endpoint
/// outside the graph's vertex range.  Keeps first occurrence.  Each kept
/// deletion is stamped with the edge's stored label.
UpdateBatch SanitizeBatch(const LabeledGraph& g, const UpdateBatch& batch);

}  // namespace bdsm
