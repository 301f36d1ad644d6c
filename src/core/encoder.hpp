/// \file encoder.hpp
/// Preprocessing: GSI-style K-bit vertex encoding and the candidate
/// table (paper §IV-B, Fig. 4).
///
/// Each vertex is a K-bit code: the first N bits one-hot encode the
/// vertex label over the labels *the query actually uses* (the paper's
/// refinement of GSI — absent labels get no bits), and the remaining 2N
/// bits hold a 2-bit *thermometer* counter of neighbors per used label
/// (0 -> 00, 1 -> 01, >=2 -> 11).  Thermometer encoding is what makes
/// the bitwise test sound: ENC(u) & ENC(v) == ENC(u) implies both the
/// label match and per-label neighbor-count dominance |N^l(v)| >= |N^l(u)|
/// (saturated at 2 — the paper's explicit space/filtering trade-off:
/// v0's encoding not changing after e(v0,v2) in Fig. 4 is this
/// saturation).
///
/// The candidate table is one 16-bit mask per data vertex: bit j set iff
/// the vertex is a candidate for query vertex u_j.
///
/// Behind the saturated code the encoder keeps *exact* counts: per data
/// vertex, its used-label index (one byte, -1 when the query does not use
/// its label) and a `uint32_t` neighbor count per used label.  Exact
/// counts are what make deletions incremental — a saturated counter at
/// "11" cannot tell whether losing one neighbor leaves 1 or still >= 2.
/// Memory per encoder is |V| x |used labels| x 4 B + |V| B on top of the
/// codes and table rows.
///
/// Batch maintenance is by *label-count deltas* (`ApplyBatchDirty`):
/// each op adjusts the two endpoints' count cells for the other
/// endpoint's label, and a table row is rewritten only when its code
/// changes.  That reads no adjacency and costs O(1) per op plus an
/// O(|Q|) row recompute per changed code, mirroring the incremental
/// maintenance of "Encoding of dynamic graphs".  The candidate table is
/// bit-identical to a fresh `BuildAll` on the updated graph.
/// `UpdateDirty` stays an adjacency rescan, so callers that use it (the
/// CSM baselines, the `rf` oracle among them) do not depend on the delta
/// path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"

namespace bdsm {

class CandidateEncoder {
 public:
  /// Binds the encoder to a query (fixes the used-label alphabet and the
  /// query-vertex codes).  Queries use at most kMaxQueryVertices labels,
  /// so a code always fits in one 64-bit word (N + 2N <= 48 bits).
  explicit CandidateEncoder(const QueryGraph& q);

  /// Counts every data vertex's neighbors per used label in one
  /// adjacency pass, then encodes it and fills its table row.  O(|V| d).
  void BuildAll(const LabeledGraph& g);

  /// Recounts the `dirty` vertices' neighbors from the *current* state of
  /// g (labels included) and refreshes their codes and table rows.
  /// O(sum of their degrees); listing a vertex twice is harmless.
  void UpdateDirty(const LabeledGraph& g, std::span<const VertexId> dirty);

  /// Applies a batch as label-count deltas: +1/-1 on both endpoints'
  /// counts for the other endpoint's label, then re-derives the changed
  /// counters' thermometer bits.  No adjacency reads.
  ///
  /// Precondition: `batch` was sanitized (`SanitizeBatch`) against the
  /// graph this encoder last saw, and has since been applied to `g` —
  /// the order the device engine uses.  `g` is read only for the labels
  /// of vertices added since.  A deletion that would take a count below
  /// zero (e.g. applying one deletion batch twice) fails a `GAMMA_CHECK`.
  void ApplyBatchDirty(const LabeledGraph& g, const UpdateBatch& batch);

  /// True iff data vertex v passed the filter for query vertex u.
  bool IsCandidate(VertexId v, VertexId u) const {
    return (table_[v] >> u) & 1u;
  }

  /// Label-only test (the relaxed filter the coalesced search uses
  /// during the V^k phase, where a position's full-query neighbor-count
  /// constraints may involve removed vertices and thus differ between
  /// the representative and its permutation siblings — see the paper's
  /// Remark in §V-B about V^k vertices "losing specific label
  /// constraints").
  bool HasSameLabel(VertexId v, VertexId u) const {
    uint64_t label_mask = (1ull << used_labels_.size()) - 1;
    return (codes_[v] & label_mask) == (qcodes_[u] & label_mask);
  }
  /// All query vertices v is a candidate for, as a bitmask.
  uint16_t CandidateMask(VertexId v) const { return table_[v]; }

  /// Number of candidates of query vertex u (linear scan; stats/tests).
  size_t CountCandidates(VertexId u) const;

  uint64_t VertexCode(VertexId v) const { return codes_[v]; }
  uint64_t QueryCode(VertexId u) const { return qcodes_[u]; }
  size_t CodeBits() const { return 3 * used_labels_.size(); }

 private:
  // Label -> index in used_labels_, or -1.
  int LabelIndex(Label l) const;
  uint16_t ComputeMask(uint64_t code) const;
  // v's code from label_index_[v] and its count row.
  uint64_t EncodeCounts(VertexId v) const;
  // Stores v's code; recomputes its table row only if the code changed.
  void SetCode(VertexId v, uint64_t code);
  // Extends the per-vertex arrays to g's vertices, encoding the new ones
  // as isolated (all counts 0).
  void Grow(const LabeledGraph& g);
  // +1/-1 on v's count for used label li (no-op if li < 0).
  void AdjustCount(VertexId v, int li, bool insert);

  std::vector<Label> used_labels_;
  std::vector<uint64_t> qcodes_;      ///< per query vertex
  size_t num_query_vertices_ = 0;
  std::vector<int8_t> label_index_;   ///< per data vertex; -1 = unused
  std::vector<uint32_t> counts_;      ///< per data vertex x used label
  std::vector<uint64_t> codes_;       ///< per data vertex
  std::vector<uint16_t> table_;       ///< candidate table rows
};

/// Thermometer pattern for a neighbor count (exposed for tests).
inline uint64_t ThermometerBits2(size_t count) {
  if (count == 0) return 0b00;
  if (count == 1) return 0b01;
  return 0b11;
}

}  // namespace bdsm
