/// \file match_store.hpp
/// Postprocess component (paper Fig. 3): applications consume GAMMA's
/// incremental matches either as raw deltas or as a maintained view.
/// MatchStore is that view — the set of currently-live matches, updated
/// by each batch's positive/negative deltas, with the bookkeeping
/// applications typically need (per-vertex participation counts for
/// alerting, delta journals for audit).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/match.hpp"

namespace bdsm {

class MatchStore {
 public:
  /// Applies one delta: a positive match is inserted, a negative one
  /// removed; double-insert/missing-remove abort (GAMMA guarantees
  /// exactly-once deltas, so either is a caller bug).  Apply a batch's
  /// negatives before its positives: a batch may retract a match and
  /// (through other edges) create a structurally identical one.
  void ApplyDelta(const MatchRecord& m);

  size_t LiveCount() const { return live_.size(); }
  bool Contains(const MatchRecord& m) const;

  /// Live matches containing data vertex v (how many alerts a vertex
  /// participates in — the fraud example's per-account score).
  size_t ParticipationCount(VertexId v) const;

  /// Snapshot of every live match (order unspecified).
  std::vector<MatchRecord> Snapshot() const;

  /// Total deltas seen (for monitoring).
  uint64_t applied_positive() const { return applied_positive_; }
  uint64_t applied_negative() const { return applied_negative_; }

 private:
  static std::string KeyOf(const MatchRecord& m);

  std::unordered_map<std::string, MatchRecord> live_;
  std::unordered_map<VertexId, size_t> participation_;
  uint64_t applied_positive_ = 0;
  uint64_t applied_negative_ = 0;
};

}  // namespace bdsm
