#include "replica/follower.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/snapshot.hpp"
#include "util/common.hpp"

namespace bdsm::replica {

Follower::Follower(int id, const std::string& inner_spec,
                   const LabeledGraph& g, const EngineOptions& options,
                   const TransportModel* transport, const std::string& dir)
    : id_(id),
      options_(options),
      transport_(transport),
      engine_(MakeEngine(inner_spec, g, options)),
      reader_(dir, 0) {}

void Follower::Resync() {
  persist::Manifest manifest = persist::ReadManifest(reader_.dir());
  persist::Snapshot snap = persist::ReadSnapshot(
      reader_.dir() + "/" + manifest.snapshot_file);
  engine_ = persist::BuildEngineFromSnapshot(snap, options_);
  reader_.Reset(snap.stream_offset);
  covered_ops_ = snap.totals.ops;
  ++resyncs_;
  // The snapshot itself ships over the link too.
  const uint64_t bytes = TransportModel::WireBytes(
      static_cast<size_t>(snap.totals.ops));
  transport_seconds_ += transport_->ShipSeconds(bytes);
  BDSM_OBS_COUNT("replica.resyncs", 1);
}

size_t Follower::CatchUp() {
  GAMMA_CHECK_MSG(engine_ != nullptr,
                  "follower used after its engine was taken");
  persist::WalReader::PollResult poll = reader_.Poll();
  if (poll.no_manifest) return 0;
  if (poll.gap) {
    Resync();
    poll = reader_.Poll();
    // One resync lands the cursor on the freshly written manifest's
    // snapshot point, which its segments cover by construction.
    GAMMA_CHECK_MSG(!poll.gap, "WAL gap immediately after resync");
  }
  size_t applied = 0;
  for (const UpdateBatch& batch : poll.batches) {
    const uint64_t bytes = TransportModel::BatchWireBytes(batch);
    const double ship = transport_->ShipSeconds(bytes);
#if BDSM_OBS
    const uint64_t stream_index = reader_.next_batch() -
                                  poll.batches.size() + applied;
    const double span_start = transport_seconds_ + apply_seconds_;
#endif
    const double apply = engine_->ProcessBatch(batch).latency_seconds;
    transport_seconds_ += ship;
    apply_seconds_ += apply;
    covered_ops_ += batch.size();
    applied_ops_ += batch.size();
    ++applied_batches_;
    ++applied;
#if BDSM_OBS
    if (obs::Enabled()) {
      BDSM_OBS_COUNT("replica.applied_batches", 1);
      BDSM_OBS_COUNT("replica.applied_ops", batch.size());
      obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
      if (tracer.enabled()) {
        // Ship + apply tile end to end on this follower's virtual
        // critical-path clock, tagged with its replica id.
        obs::TraceSpan ship_span;
        ship_span.name = "replica.ship";
        ship_span.domain = obs::Domain::kCriticalPath;
        ship_span.start_s = span_start;
        ship_span.dur_s = ship;
        ship_span.batch = stream_index;
        ship_span.replica = id_;
        ship_span.detail = "bytes=" + std::to_string(bytes);
        tracer.Record(std::move(ship_span));
        obs::TraceSpan apply_span;
        apply_span.name = "replica.apply";
        apply_span.domain = obs::Domain::kCriticalPath;
        apply_span.start_s = span_start + ship;
        apply_span.dur_s = apply;
        apply_span.batch = stream_index;
        apply_span.replica = id_;
        apply_span.detail = "ops=" + std::to_string(batch.size());
        tracer.Record(std::move(apply_span));
      }
    }
#endif
  }
  return applied;
}

}  // namespace bdsm::replica
