/// \file checkpoint.hpp
/// The Checkpointer: snapshot policy + WAL tee + manifest upkeep, and
/// RestoreEngine — the warm-start entry point.
///
/// One Checkpointer owns one checkpoint directory and follows one
/// engine through a stream:
///
///   persist::Checkpointer cp(dir, {.every_batches = 8});
///   cp.Begin(*engine, seed, "churn");       // base snapshot + manifest
///   for (const UpdateBatch& b : stream) {
///     BatchReport r = engine->ProcessBatch(b);
///     cp.OnBatchApplied(*engine, b, r);     // WAL tee (+ fsync),
///   }                                       // policy may snapshot
///   cp.Finish();                            // close the WAL cleanly
///
/// Recovery is the inverse, O(tail) instead of O(stream):
///
///   persist::RestoredEngine r = persist::RestoreEngine(dir);
///   // r.engine is bit-identical (gamma/CSM; match-multiset for
///   // "multi") to a cold engine that replayed r.next_batch batches;
///   // resume the stream at r.next_batch.
///
/// Drivers plug it in at the layer they own: ScenarioRunner tees via
/// RunControls::checkpointer, and the replica group tees every
/// digested batch through its own internal Checkpointer
/// (replica/group.hpp).  Attach at exactly one layer — two tees would
/// log every batch twice.  Latency totals add up each report's
/// `latency_seconds`, already on the engine's own clock.
#pragma once

#include <memory>
#include <string>

#include "persist/manifest.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"

namespace bdsm::persist {

/// When to cut a snapshot (the WAL runs regardless; a snapshot just
/// moves the restore point forward and lets old segments be pruned).
struct CheckpointPolicy {
  /// Snapshot after every N applied batches (0 = only Begin's base
  /// snapshot; restore then replays the whole WAL).
  size_t every_batches = 0;
  /// ... or after every K applied update ops, whichever fires first
  /// (0 = off).  Sized for op-skewed streams (bursts) where batch
  /// count is a poor proxy for replay cost.
  size_t every_updates = 0;
  /// Unlink snapshots and fully-covered WAL segments that a newer
  /// snapshot supersedes, keeping the directory (and restore cost)
  /// proportional to the tail, not the stream.
  bool prune = true;
};

class Checkpointer {
 public:
  explicit Checkpointer(std::string dir, CheckpointPolicy policy = {},
                        WalOptions wal_options = {});
  /// Finish()es; a checkpointer dying mid-stream (no Finish) leaves a
  /// torn-tail WAL, which RestoreEngine recovers by design.
  ~Checkpointer();
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Starts a fresh checkpoint of `engine` at stream position
  /// `stream_offset`: creates the directory, writes the base snapshot
  /// + WAL under a new checkpoint *generation* (file names that never
  /// collide with the previous checkpoint's), atomically switches the
  /// manifest over, and only then sweeps the superseded artifacts —
  /// any previous checkpoint in the directory stays restorable up to
  /// the instant the new one is complete.  `totals` seeds the
  /// cumulative aggregates (non-zero when re-checkpointing a restored
  /// engine mid-stream).  Throws PersistError (engine without
  /// snapshot support, I/O failure).
  void Begin(const Engine& engine, uint64_t seed, std::string scenario,
             uint64_t stream_offset = 0, const SnapshotTotals& totals = {});

  /// Tees one applied batch into the WAL (fsync per WalOptions),
  /// accumulates `report` into the running totals, and snapshots when
  /// the policy fires.  Must be called between batches, in stream
  /// order, after the engine applied the batch.  Throws PersistError
  /// on I/O failure (the WAL can no longer honor its durability
  /// contract).
  void OnBatchApplied(const Engine& engine, const UpdateBatch& batch,
                      const BatchReport& report);

  /// Closes the current WAL segment cleanly and seals the manifest.
  /// Idempotent.  A Finish()ed checkpointer can Begin() again.
  void Finish();

  bool active() const { return wal_ != nullptr; }
  const std::string& dir() const { return dir_; }
  /// Stream index the next applied batch will be logged under.
  uint64_t next_batch() const { return next_batch_; }
  /// Cumulative aggregates since stream start (snapshot + live tail).
  const SnapshotTotals& totals() const { return totals_; }
  /// Snapshots written since Begin (the base snapshot included).
  size_t snapshots_taken() const { return snapshots_taken_; }

 private:
  void TakeSnapshot(const Engine& engine);
  void Prune();

  std::string dir_;
  CheckpointPolicy policy_;
  WalOptions wal_options_;

  uint64_t seed_ = 0;
  std::string scenario_;
  uint64_t next_batch_ = 0;
  size_t ops_since_snapshot_ = 0;
  size_t batches_since_snapshot_ = 0;
  size_t snapshots_taken_ = 0;
  SnapshotTotals totals_;
  Manifest manifest_;
  std::unique_ptr<WalWriter> wal_;
};

/// Everything RestoreEngine hands back.
struct RestoredEngine {
  std::unique_ptr<Engine> engine;  ///< warm-started, ready for batches
  Manifest manifest;               ///< provenance (spec/scenario/seed)
  /// First stream batch index the engine has NOT applied — resume
  /// here.  snapshot_batch + WAL batches replayed.
  uint64_t next_batch = 0;
  /// Cumulative aggregates through next_batch (snapshot totals + the
  /// replayed tail's reports).
  SnapshotTotals totals;
  uint64_t wal_batches_replayed = 0;
  /// The WAL tail ended in a torn write (crash mid-append); recovery
  /// stopped at the last durable batch, as designed.
  bool wal_tail_torn = false;
  /// The replayed tail alone: update ops it carried and its summed
  /// latency under the restored engine's clock (totals minus the
  /// snapshot's share).  The replica layer's failover model charges
  /// catch-up from these (replica/transport.hpp).
  uint64_t tail_ops = 0;
  double tail_latency_seconds = 0.0;
};

/// Warm start from a checkpoint directory: manifest -> snapshot ->
/// engine rebuild -> WAL tail replay.  Cost is O(snapshot + tail).
/// `options` rebuilds the engine (pass what the original run used;
/// inline spec options override as usual).  Throws PersistError on
/// any unrecoverable state (no manifest, corrupt snapshot, mid-stream
/// WAL corruption, spec no longer registered).
RestoredEngine RestoreEngine(const std::string& checkpoint_dir,
                             const EngineOptions& options = {});

}  // namespace bdsm::persist
