/// \file update_stream.hpp
/// Graph update streams and batches (Definition 1 of the paper).
///
/// A stream is a sequence of batches; a batch is a set of edge insertions
/// and deletions applied *atomically* — BDSM only cares about the match
/// difference across the whole batch, not about intra-batch ordering.
/// `UpdateStreamGenerator` synthesizes the workloads used throughout the
/// evaluation: pure insertion at rate Ir, pure deletion, the 2:1 mixed
/// workload of Fig. 11, and the k-core-restricted dense-region insertions
/// of Fig. 10.  The richer scenario workloads (power-law growth,
/// sliding-window expiry, bursts, churn, hotspots) and the trace
/// record/replay format live one layer up in src/workload/ (see
/// docs/WORKLOADS.md); they emit the same `UpdateBatch` format.
#pragma once

#include <vector>

#include "graph/labeled_graph.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

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

/// Workload synthesizer.  All sampling is deterministic given the seed.
class UpdateStreamGenerator {
 public:
  explicit UpdateStreamGenerator(uint64_t seed) : rng_(seed) {}

  /// A batch of `count` edge insertions between existing vertices,
  /// avoiding duplicates of existing or already-sampled edges.  Endpoints
  /// are biased towards high-degree vertices (picked via random existing
  /// edge endpoints) to mimic preferential growth of real graphs.
  /// `elabels`: edge-label alphabet size (0 = unlabeled edges).
  UpdateBatch MakeInsertions(const LabeledGraph& g, size_t count,
                             size_t elabels);

  /// A batch deleting `count` uniformly sampled existing edges.
  UpdateBatch MakeDeletions(const LabeledGraph& g, size_t count);

  /// Mixed batch with insert:delete = `ins_ratio`:`del_ratio`
  /// (Fig. 11 uses 2:1).  `count` is the total op count.
  UpdateBatch MakeMixed(const LabeledGraph& g, size_t count,
                        size_t ins_ratio, size_t del_ratio, size_t elabels);

  /// Insertions whose endpoints both lie in the k-core of g (Fig. 10's
  /// density-controlled update regions).  Falls back to the densest
  /// available core when the requested core is empty.
  UpdateBatch MakeCoreInsertions(const LabeledGraph& g, size_t count,
                                 size_t k, size_t elabels);

 private:
  Rng rng_;
};

/// Removes intra-batch conflicts: duplicate ops on one edge, insertion of
/// existing edges, deletion of absent edges, and ops with an endpoint
/// outside the graph's vertex range.  Keeps first occurrence.  Each kept
/// deletion is stamped with the edge's stored label.
UpdateBatch SanitizeBatch(const LabeledGraph& g, const UpdateBatch& batch);

}  // namespace bdsm
