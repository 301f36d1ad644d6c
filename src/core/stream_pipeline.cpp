#include "core/stream_pipeline.hpp"

#include <future>

#include "util/timer.hpp"

namespace bdsm {

PipelineStats StreamPipeline::Run(const std::vector<UpdateBatch>& stream,
                                  std::vector<BatchReport>* reports,
                                  const BatchOptions& options) {
  PipelineStats stats;
  Timer wall;

  // Background preparation: sanitize against the *current* host graph.
  // Launched while the engine runs the previous batch's positive phase;
  // the host graph is final for the round by then, so the read is
  // race-free (see header).
  auto prepare = [this](const UpdateBatch& raw) {
    Timer t;
    UpdateBatch clean = SanitizeBatch(engine_->host_graph(), raw);
    return std::make_pair(std::move(clean), t.ElapsedSeconds());
  };

  std::future<std::pair<UpdateBatch, double>> prepared;
  if (!stream.empty()) {
    // First batch has nothing to overlap with.
    prepared = std::async(std::launch::deferred, prepare, stream[0]);
  }

  double last_kernel_wall = 0.0;  // device time batch i's prep hid behind
  for (size_t i = 0; i < stream.size(); ++i) {
    auto [batch, prep_seconds] = prepared.get();

    PipelineBatchStats bs;
    bs.prep_seconds = prep_seconds;
    // This batch's preparation ran while batch i-1's positive phase
    // did; the hidden portion is bounded by both durations.
    if (i > 0) {
      bs.prep_hidden_seconds = std::min(prep_seconds, last_kernel_wall);
    }
    bs.applied_ops = batch.size();

    // The engine's own batch loop; once the update phase is flushed
    // the host graph is final for this round, so the callback kicks
    // off the next batch's preparation to overlap the positive phase.
    Timer overlap_timer;
    BatchReport report = engine_->DigestBatch(
        batch, options, Timer(), [&] {
          overlap_timer.Reset();
          if (i + 1 < stream.size()) {
            prepared = std::async(std::launch::async, prepare, stream[i + 1]);
          }
        });
    last_kernel_wall = overlap_timer.ElapsedSeconds();

    for (const QueryReport& qr : report.queries) {
      bs.positive_matches += qr.num_positive;
      bs.negative_matches += qr.num_negative;
    }
    bs.device = report.update_stats;
    bs.device.MergeSequential(report.match_stats);
    stats.total_hidden_seconds += bs.prep_hidden_seconds;
    stats.batches.push_back(bs);
    if (reports) reports->push_back(std::move(report));
  }

  stats.wall_seconds = wall.ElapsedSeconds();
  return stats;
}

}  // namespace bdsm
