/// \file digest.hpp
/// Order-independent digests of delivered matches: the benchmark's
/// streaming sink, the rf oracle pass and the layer replay all reduce a
/// query's matches in one batch to (count, sum of match hashes), so two
/// match multisets compare equal exactly when their digests do (up to
/// 64-bit hash collisions).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "util/rng.hpp"

namespace bdsm::bench {

struct Cell {
  uint64_t count = 0;
  uint64_t digest = 0;
  friend bool operator==(const Cell&, const Cell&) = default;
};

/// One Cell per query, indexed by QueryId.
using BatchCells = std::vector<Cell>;

inline void AddMatch(Cell* c, const MatchRecord& m) {
  uint64_t h = SplitMix64(m.n * 2u + (m.positive ? 1u : 0u));
  for (uint8_t i = 0; i < m.n; ++i) h = SplitMix64(h ^ m.m[i]);
  ++c->count;
  c->digest += h;
}

/// The load model's streaming sink: hashes every delivered match.
class DigestSink final : public ResultSink {
 public:
  explicit DigestSink(size_t queries) : cells_(queries) {}
  void OnMatch(QueryId q, const MatchRecord& m) override {
    AddMatch(&cells_[q], m);
  }
  /// This batch's cells; the sink starts the next batch empty.
  BatchCells Take() {
    BatchCells out(cells_.size());
    out.swap(cells_);
    return out;
  }

 private:
  BatchCells cells_;
};

}  // namespace bdsm::bench
