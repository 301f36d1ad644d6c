/// \file layer_replay.hpp
/// Per-layer tracing for the benchmark: an in-memory span recorder and a
/// *layer replay* that re-composes an engine's batch phases from the
/// library's public layer functions, recording one span around each
/// call.  The library itself carries no spans at these boundaries, so
/// the replay is how the benchmark attributes a batch's host time to
/// graph, gpma, gpusim and core.  A fidelity check (the replay's
/// per-query match counts and DeviceStats against the engine's, batch by
/// batch) keeps the replay honest: it must do exactly the engine's work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/gamma.hpp"
#include "digest.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/timer.hpp"

namespace bdsm::bench {

/// One query's share of a batch as both the engine and the replay can
/// report it.
struct QueryOutcome {
  size_t num_positive = 0;
  size_t num_negative = 0;
  Cell matches;  ///< digest of every delivered match, both polarities
  DeviceStats update_stats;
  DeviceStats match_stats;
  friend bool operator==(const QueryOutcome&, const QueryOutcome&) = default;
};

struct BatchOutcome {
  std::vector<QueryOutcome> queries;
  DeviceStats update_stats;
  DeviceStats match_stats;
  friend bool operator==(const BatchOutcome&, const BatchOutcome&) = default;

  uint64_t DeviceTicks() const {
    return update_stats.makespan_ticks + match_stats.makespan_ticks;
  }
};

/// The engine's side of an outcome: its report plus the digests its
/// streaming sink collected for the same batch.
BatchOutcome OutcomeOf(const BatchReport& report, const BatchCells& cells);

/// A closed span.  Times are seconds since the recorder was created;
/// `parent` indexes the enclosing span (-1 for a root); every span of
/// one batch carries that batch's id (-1 during set-up).
struct Span {
  const char* name;
  double start_s;
  double end_s;
  int32_t parent;
  int64_t batch;
};

/// Keeps spans in memory; they are written out once the run ends.
class SpanRecorder {
 public:
  void set_batch(int64_t batch) { batch_ = batch; }
  int32_t Begin(const char* name);
  void End(int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time the span's direct children cover.
  std::vector<double> SelfSeconds() const;
  /// chrome://tracing JSON ("X" events, microseconds).
  std::string ChromeJson() const;

 private:
  Timer clock_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t batch_ = -1;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), span_(rec->Begin(name)) {}
  ~ScopedSpan() { rec_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t span_;
};

/// Work counts taken at the same boundaries as the spans.
struct ReplayCounters {
  uint64_t raw_ops = 0;        ///< ops submitted
  uint64_t kept_ops = 0;       ///< ops left after SanitizeBatch
  uint64_t seeds = 0;          ///< WBM seeds over queries and polarities
  uint64_t matches = 0;        ///< matches the WBM launches emitted
  uint64_t launches = 0;       ///< Device::Launch calls
  uint64_t gpma_updates = 0;   ///< ops applied, summed over GPMAs
  uint64_t gpma_moved = 0;     ///< entries moved by resizes and windows
  uint64_t gpma_resized = 0;   ///< entries moved by resizes
  uint64_t gpma_index_hops = 0;
  uint64_t gpma_inplace = 0;
  bool truncated = false;      ///< a launch overflowed or timed out
};

/// One engine's phases re-composed from layer calls.  Built for the
/// device engines: "gamma" (one graph, GPMA, encoder and device per
/// query) and "multi" (shared graph, GPMA and device; one fused launch
/// per polarity).
class LayerReplay {
 public:
  virtual ~LayerReplay() = default;
  /// Digests one raw batch, recording spans under the caller's batch span.
  virtual BatchOutcome ProcessBatch(const UpdateBatch& raw) = 0;
  const ReplayCounters& counters() const { return counters_; }

 protected:
  ReplayCounters counters_;
};

/// Builds the replay for `engine` ("gamma" or "multi"), recording its
/// set-up spans into `rec`; returns nullptr for other engines.
std::unique_ptr<LayerReplay> MakeLayerReplay(
    const std::string& engine, const LabeledGraph& graph,
    const std::vector<QueryGraph>& queries, const GammaOptions& options,
    SpanRecorder* rec);

/// Per-layer metrics of one traced run, by metric name.
///   `outcomes`    the replay's per-batch outcomes
///   `engine_s`    summed untraced ProcessBatch seconds of the same stream
///   `mismatches`  batches whose replay outcome differed from the engine's
std::map<std::string, double> LayerMetrics(
    const SpanRecorder& rec, const ReplayCounters& counters,
    const std::vector<BatchOutcome>& outcomes, double tick_seconds,
    double engine_s, uint64_t mismatches);

/// Self time and share per span name over the batch spans (set-up
/// excluded), as a JSON object.
std::string LayerSharesJson(const SpanRecorder& rec);

}  // namespace bdsm::bench
