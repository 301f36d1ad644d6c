/// \file rebuild_container.hpp
/// The strawman GPMA replaces: an immutable CSR-style device graph that
/// is *rebuilt from scratch* on every batch.  §V-C motivates adopting
/// GPMA over exactly this pattern ("efficient application of updates to
/// the data graph becomes paramount"); the container exists so the
/// repository can measure that design choice (bench_ablation_container)
/// rather than assert it.
///
/// Only the update side is modelled: a host mirror of the graph and the
/// UpdatePlan pricing a full rebuild of it.  The matching kernels read
/// the device graph through `const Gpma&` only.
#pragma once

#include "gpma/update_plan.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

class RebuildContainer {
 public:
  RebuildContainer() = default;

  void BuildFrom(const LabeledGraph& g) { mirror_ = g; }

  /// Applies the batch to the host mirror.  The returned plan prices the
  /// rebuild: every directed entry moves once, device-wide.
  UpdatePlan ApplyBatch(const UpdateBatch& batch) {
    bdsm::ApplyBatch(&mirror_, batch);
    UpdatePlan plan;
    plan.tree_height = 1;
    // Each update still locates its position during the merge.
    plan.locate_searches = 2 * batch.size();
    ++plan.resizes;
    plan.resized_entries = 2 * mirror_.NumEdges();
    plan.AddOp(SegmentOp{2 * mirror_.NumEdges(), 1, 0, 0,
                         SegmentStrategy::kDevice});
    return plan;
  }

  size_t NumEdges() const { return mirror_.NumEdges(); }

 private:
  LabeledGraph mirror_;
};

}  // namespace bdsm
