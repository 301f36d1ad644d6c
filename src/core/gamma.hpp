/// \file gamma.hpp
/// The GAMMA system facade: the CPU-GPU heterogeneous pipeline of
/// Fig. 3 — Preprocess (CPU encoding + candidate table), Update (GPMA on
/// the device), BDSM computational kernel (WBM + work stealing +
/// coalesced search), Postprocess (match delivery).
///
/// The pipeline is split in two.  A GammaLane is one query's device
/// side (GPMA, query context, candidate encoder, device) and owns no
/// host graph.  The owner of the host graph mirrors each sanitized batch
/// into it once, then runs every lane's update step against that one
/// mirrored graph.  Gamma below is one owned graph plus one lane; the
/// "gamma" engine (core/engine.cpp) is one canonical graph plus a lane
/// per registered query, so it pays one mirror per batch, not one per
/// query.
///
/// Quickstart:
///   LabeledGraph g = LoadDataset(DatasetId::kGithub);
///   QueryGraph q = ...;
///   Gamma gamma(g, q, GammaOptions{});
///   BatchResult r = gamma.ProcessBatch(batch);
///   // r.positive_matches / r.negative_matches, r.* timings
///
/// Batch semantics (Problem Statement, §II-A): negative matches are the
/// embeddings of Q present before the batch that contain a deleted edge;
/// positive matches are the embeddings present after the batch that
/// contain an inserted edge.  Matches are deduplicated across the batch
/// by the total-order rule (each match attributed to its lowest-order
/// update edge).
#pragma once

#include <memory>
#include <vector>

#include "core/encoder.hpp"
#include "core/match.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

struct GammaOptions {
  DeviceConfig device;          ///< steal_policy lives here (§V-A)
  bool coalesced_search = true; ///< §V-B
  /// Keep k >= 1 equivalent-edge groups even when their position orbits
  /// carry different encoder constraints (see BuildQueryContext).
  bool aggressive_coalescing = false;
  GpmaKernelOptions gpma;       ///< CG + cached-layer options (§V-C)
  /// Segment capacity of the GPMA (power of two).
  uint32_t gpma_segment_capacity = 32;
  /// Cap on incremental matches materialized per kernel launch
  /// (0 = unlimited).  Queries whose result sets exceed it are reported
  /// as unsolved, bounding memory the way the paper's 30-minute timeout
  /// bounds its 128 GB testbed.
  size_t result_cap = 1'500'000;
};

/// Everything one batch produced, plus the cost breakdown the
/// experiments report.
struct BatchResult {
  std::vector<MatchRecord> positive_matches;
  std::vector<MatchRecord> negative_matches;

  /// Host time of the host-graph mirror plus this query's label-count
  /// deltas (CPU preprocess; runs concurrently with device work in the
  /// paper's async pipeline).
  double preprocess_host_seconds = 0.0;
  /// Simulated device time of the GPMA update kernel.
  DeviceStats update_stats;
  /// Simulated device time of the matching kernels (negatives+positives).
  DeviceStats match_stats;
  /// Host wall-clock of the whole ProcessBatch call (what a CPU baseline
  /// would be compared against on this machine).
  double host_wall_seconds = 0.0;
  /// The result cap was hit; match lists are truncated.
  bool overflowed = false;

  /// Modeled end-to-end device latency: update + matching makespan, with
  /// CPU preprocessing overlapped (it only counts where it exceeds the
  /// device work, per the asynchronous design of §IV-A).
  double ModeledSeconds(const DeviceConfig& cfg) const {
    double tick = cfg.TickSeconds();
    double device = static_cast<double>(update_stats.makespan_ticks +
                                        match_stats.makespan_ticks) *
                    tick;
    return std::max(device, preprocess_host_seconds);
  }

  size_t TotalMatches() const {
    return positive_matches.size() + negative_matches.size();
  }

  /// True when any kernel launch ran out of its host time budget or its
  /// result cap (the "unsolved query" condition of Table III).
  bool TimedOut() const {
    return match_stats.timed_out || update_stats.timed_out || overflowed;
  }
};

/// What one lane's update step produced.
struct LaneUpdate {
  DeviceStats update_stats;         ///< simulated GPMA update kernel
  double delta_host_seconds = 0.0;  ///< host time of the label-count deltas
};

/// One query's device-side pipeline: its GPMA, query context, candidate
/// encoder and device.  A lane owns no host graph; whoever owns the
/// graph mirrors each batch into it once and hands the result to every
/// lane's update step.
class GammaLane {
 public:
  /// Bulk-loads the GPMA from `g`, encodes every vertex and prepares the
  /// query context (matching orders, equivalent-edge groups).  Keeps no
  /// reference to `g`.
  GammaLane(const LabeledGraph& g, const QueryGraph& query,
            const GammaOptions& options);

  /// One polarity's WBM launch over a sanitized batch: deleted-edge
  /// seeds on the pre-update state, inserted-edge seeds on the
  /// post-update state.
  WbmResult RunMatchPhase(const UpdateBatch& batch, bool positive);

  /// The update step: GPMA update, its simulated kernel, then the
  /// label-count deltas.  `batch` must be sanitized against the
  /// pre-batch graph and already applied to `mirrored` (the
  /// precondition of CandidateEncoder::ApplyBatchDirty).
  LaneUpdate ApplyUpdate(const LabeledGraph& mirrored,
                         const UpdateBatch& batch);

  const QueryContext& query_context() const { return qctx_; }

 private:
  GammaOptions options_;
  Gpma gpma_;
  QueryContext qctx_;
  CandidateEncoder encoder_;
  Device device_;
};

/// The single-query system: one owned host graph plus one lane.
class Gamma {
 public:
  /// Builds the system over an initial graph (copied) and one lane.
  Gamma(const LabeledGraph& initial, const QueryGraph& query,
        GammaOptions options = {});

  /// Processes one update batch and returns the incremental matches.
  /// The batch is sanitized first (conflicting/no-op updates dropped).
  BatchResult ProcessBatch(const UpdateBatch& batch);

  const LabeledGraph& host_graph() const { return host_graph_; }
  const QueryContext& query_context() const { return lane_.query_context(); }

 private:
  LabeledGraph host_graph_;
  GammaLane lane_;
};

}  // namespace bdsm
