/// \file multi_gamma.hpp
/// Multi-pattern GAMMA: one device graph, many registered queries.
///
/// Deployments monitor many patterns at once (the paper's evaluation
/// runs 50-query sets; the fraud example would register one pattern per
/// typology).  Building a full Gamma per query duplicates the GPMA and
/// the host mirror; MultiGamma shares them — per query it keeps only
/// the cheap parts (query context + candidate table) and fuses all
/// queries' seeds into each kernel launch, so one batch costs one
/// update + two matching launches total, not per query.
#pragma once

#include <memory>
#include <vector>

#include "core/gamma.hpp"

namespace bdsm {

struct MultiBatchResult {
  /// Per registered query, in registration order.
  std::vector<BatchResult> per_query;
  /// Device stats of the shared GPMA update (charged once).
  DeviceStats update_stats;
  double preprocess_host_seconds = 0.0;
};

class MultiGamma {
 public:
  explicit MultiGamma(const LabeledGraph& initial,
                      GammaOptions options = {});

  /// Registers a pattern; returns its stable id.  Ids are assigned
  /// monotonically and never reused, so they double as the per_query
  /// index only until the first RemoveQuery.
  size_t AddQuery(const QueryGraph& q);

  /// Unregisters a pattern; later batches no longer evaluate it.
  /// Returns false when the id is unknown (never assigned or already
  /// removed).
  bool RemoveQuery(size_t id);

  size_t NumQueries() const { return queries_.size(); }
  /// Live query ids, in registration order (aligned with
  /// MultiBatchResult::per_query).
  std::vector<size_t> QueryIds() const;
  const LabeledGraph& host_graph() const { return host_graph_; }

  /// Processes one batch for every registered query.
  MultiBatchResult ProcessBatch(const UpdateBatch& batch);

 private:
  friend class MultiGammaEngine;  // drives the same phases, with overlap

  struct PerQuery {
    size_t id = 0;
    QueryContext qctx;
    std::unique_ptr<CandidateEncoder> encoder;
  };

  /// Runs one polarity's kernel for every query (seeds fused into a
  /// single launch so small queries share the device).  The batch must
  /// already be sanitized; `out->per_query` must be sized.
  void RunMatchAll(const UpdateBatch& batch, bool positive,
                   MultiBatchResult* out);

  /// GPMA update + host mirror + label-count deltas into every query's
  /// candidate table; fills the shared update stats and preprocess
  /// timing (batch must already be sanitized).
  void RunUpdate(const UpdateBatch& batch, MultiBatchResult* out);

  GammaOptions options_;
  LabeledGraph host_graph_;
  Gpma gpma_;
  Device device_;
  std::vector<PerQuery> queries_;
  size_t next_query_id_ = 0;
};

}  // namespace bdsm
