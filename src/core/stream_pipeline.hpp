/// \file stream_pipeline.hpp
/// Asynchronous batch-stream processing (paper §IV-A, Challenge III).
///
/// GAMMA's four components "operate asynchronously": while the device
/// runs batch i's matching kernel, the CPU already prepares batch i+1
/// (sanitization, seed extraction) so the kernel never waits on host
/// bookkeeping.  This module implements that overlap for a stream
/// ∆B = (∆B1, ∆B2, ...) over ANY engine behind the unified Engine
/// interface (core/engine.hpp) — the GAMMA device engine ("gamma" or
/// its fused form "multi") or a CPU baseline:
///
///   for each batch i:
///     [host]   take the prepared batch (from the background worker)
///     [engine] negative-match phase on the pre-update state
///     [both]   update phase (device graph + host mirror + re-encode)
///     [host->bg] start preparing batch i+1   <── overlaps ──┐
///     [engine] positive-match phase on the post-update state  <─┘
///     [engine] timing, latency stamp, obs publish, end-of-batch hook
///
/// The pipeline does not copy that sequence: it runs the engine's own
/// batch loop (Engine::DigestBatch, the loop ProcessBatch runs after
/// sanitizing) with a callback that starts batch i+1's preparation
/// once the update phase is flushed.  So every pipelined batch gets
/// what a ProcessBatch call gets — `latency_seconds`, the obs counters
/// and spans, and OnBatchDigested (a replica group's WAL tee and
/// follower advance).  Preparation only reads the host graph, which is
/// final for the round once the update phase returns, so the overlap
/// is race-free.  Results are bit-identical to calling
/// Engine::ProcessBatch per batch (tested, including over "multi"),
/// and a replica group ships every pipelined batch (tested).  Engines
/// that cannot split their processing (the sequential CSM chassis) do
/// all work in the update phase; the pipeline stays correct, it just
/// hides nothing.
#pragma once

#include <vector>

#include "core/engine.hpp"

namespace bdsm {

/// Per-batch accounting of one pipeline round.
struct PipelineBatchStats {
  /// Update ops that survived sanitization and were applied.
  size_t applied_ops = 0;
  size_t positive_matches = 0;  ///< summed over all registered queries
  size_t negative_matches = 0;  ///< summed over all registered queries
  double prep_seconds = 0.0;      ///< host preparation (overlappable)
  double prep_hidden_seconds = 0.0;  ///< portion hidden behind the device
  DeviceStats device;             ///< update + matching kernels
};

/// Whole-stream accounting returned by StreamPipeline::Run.
struct PipelineStats {
  /// One entry per batch of the stream, in order.
  std::vector<PipelineBatchStats> batches;
  /// End-to-end host wall time of the Run call.
  double wall_seconds = 0.0;
  /// Host preparation time hidden behind device kernels — the paper's
  /// asynchrony payoff ("minimizing the time overhead of preceding
  /// steps prior to result computation").
  double total_hidden_seconds = 0.0;

  /// Positive + negative matches over every batch and query.
  size_t TotalMatches() const {
    size_t n = 0;
    for (const auto& b : batches) {
      n += b.positive_matches + b.negative_matches;
    }
    return n;
  }
};

/// Drives a batch stream through any Engine with host/device overlap
/// (see the file comment for the phase schedule).  The pipeline holds
/// the engine only by pointer: the caller keeps ownership and may
/// inspect or mutate the engine between Run calls (not during one).
class StreamPipeline {
 public:
  /// Wraps any engine; the pipeline runs the engine's own batch loop,
  /// overlapping preparation.
  explicit StreamPipeline(Engine* engine) : engine_(engine) {}

  /// Processes the whole stream in order.  `reports`, when non-null,
  /// receives every batch's BatchReport (bit-identical to per-batch
  /// ProcessBatch calls); `options` (sink / materialize / budget)
  /// applies to every batch.  Batches are sanitized against the
  /// engine's evolving host graph as part of the overlapped
  /// preparation, so the raw stream may contain conflicting ops.
  PipelineStats Run(const std::vector<UpdateBatch>& stream,
                    std::vector<BatchReport>* reports = nullptr,
                    const BatchOptions& options = {});

 private:
  Engine* engine_;
};

}  // namespace bdsm
