/// \file follower.hpp
/// One follower replica: an inner-engine clone that consumes the
/// leader's WAL tail through the shared incremental reader
/// (persist/wal_reader.hpp) and serves reads at a bounded staleness
/// lag.
///
/// A follower starts as a clone of the leader at stream position 0
/// (same inner spec over the same initial graph; query mutations are
/// mirrored by the group as they happen, so the registered sets track
/// each other by construction).  `CatchUp()` polls the WAL and
/// applies every newly durable batch through the inner engine's
/// ordinary `ProcessBatch` — the batches in the log are the leader's
/// *sanitized* batches, and a follower at the same stream position
/// holds the identical graph, so re-sanitization is the identity and
/// the follower's matches are bit-identical to the leader's at that
/// position.  When the manifest stops covering the follower's cursor
/// (a checkpoint generation switch pruned the segments it still
/// needed — e.g. after a failover), the follower *resyncs*: it
/// rebuilds its engine from the manifest's snapshot, resets the
/// cursor to the snapshot point, and resumes tailing.  A batch is
/// never applied twice: the reader's cursor is monotone and a resync
/// jumps it forward, never back.
///
/// Clock discipline: each follower accrues a virtual critical-path
/// clock — modeled link seconds per shipped batch (replica/
/// transport.hpp) plus apply seconds, each applied report's
/// `latency_seconds` (the inner engine's own declared clock).
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "persist/wal_reader.hpp"
#include "replica/transport.hpp"

namespace bdsm::replica {

class Follower {
 public:
  /// A fresh clone of the leader at stream position 0.  `inner_spec`
  /// is the canonical inner engine spec; `dir` the leader's shipping
  /// directory.  `transport` must outlive the follower.
  Follower(int id, const std::string& inner_spec, const LabeledGraph& g,
           const EngineOptions& options, const TransportModel* transport,
           const std::string& dir);

  /// Mirrors of the leader-side query mutations (the group forwards
  /// every AddQuery/RemoveQuery/RestoreQuery here, so public ids align
  /// across the whole replica set).
  QueryId AddQuery(const QueryGraph& q) { return engine_->AddQuery(q); }
  bool RemoveQuery(QueryId id) { return engine_->RemoveQuery(id); }
  bool RestoreQuery(const QueryGraph& q, QueryId id) {
    return engine_->RestoreQuery(q, id);
  }

  /// Applies every durable WAL batch past the cursor; resyncs from
  /// the snapshot when the manifest no longer covers it.  Returns the
  /// number of batches applied this call.  Throws PersistError on
  /// real log corruption (never on a torn live tail).
  size_t CatchUp();

  int id() const { return id_; }
  Engine* engine() { return engine_.get(); }
  const Engine* engine() const { return engine_.get(); }
  /// Global stream index of the next batch this follower will apply.
  uint64_t next_batch() const { return reader_.next_batch(); }
  /// Stream ops covered so far (applied + skipped over by snapshot
  /// resyncs) — the group's lag_updates accounting reads this.
  uint64_t covered_ops() const { return covered_ops_; }

  uint64_t applied_batches() const { return applied_batches_; }
  uint64_t applied_ops() const { return applied_ops_; }
  uint64_t resyncs() const { return resyncs_; }
  double transport_seconds() const { return transport_seconds_; }
  double apply_seconds() const { return apply_seconds_; }

  /// Hands the inner engine off (failover verification consumes the
  /// elected follower); the follower is unusable afterwards.
  std::unique_ptr<Engine> TakeEngine() { return std::move(engine_); }

 private:
  /// Rebuild from the manifest's snapshot (generation gap).
  void Resync();

  int id_;
  EngineOptions options_;
  const TransportModel* transport_;
  std::unique_ptr<Engine> engine_;
  persist::WalReader reader_;
  uint64_t covered_ops_ = 0;
  uint64_t applied_batches_ = 0;
  uint64_t applied_ops_ = 0;
  uint64_t resyncs_ = 0;
  double transport_seconds_ = 0.0;
  double apply_seconds_ = 0.0;
};

}  // namespace bdsm::replica
