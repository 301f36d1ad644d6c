#include "core/encoder.hpp"

#include <algorithm>

namespace bdsm {

CandidateEncoder::CandidateEncoder(const QueryGraph& q)
    : used_labels_(q.UsedVertexLabels()),
      num_query_vertices_(q.NumVertices()) {
  GAMMA_CHECK_MSG(3 * used_labels_.size() <= 64, "code exceeds 64 bits");
  qcodes_.resize(q.NumVertices());
  const size_t n = used_labels_.size();
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    uint64_t code = 0;
    int li = LabelIndex(q.VertexLabel(u));
    GAMMA_CHECK(li >= 0);
    code |= 1ull << li;
    // Count query-neighbors per used label.
    for (size_t i = 0; i < n; ++i) {
      size_t cnt = 0;
      for (VertexId nb : q.NeighborsOf(u)) {
        if (q.VertexLabel(nb) == used_labels_[i]) ++cnt;
      }
      code |= ThermometerBits2(cnt) << (n + 2 * i);
    }
    qcodes_[u] = code;
  }
}

int CandidateEncoder::LabelIndex(Label l) const {
  auto it = std::lower_bound(used_labels_.begin(), used_labels_.end(), l);
  if (it == used_labels_.end() || *it != l) return -1;
  return static_cast<int>(it - used_labels_.begin());
}

uint64_t CandidateEncoder::EncodeCounts(VertexId v) const {
  const int li = label_index_[v];
  if (li < 0) return 0;  // label absent from the query: never a candidate
  const size_t n = used_labels_.size();
  const uint32_t* counts = counts_.data() + v * n;
  uint64_t code = 1ull << li;
  for (size_t i = 0; i < n; ++i) {
    code |= ThermometerBits2(counts[i]) << (n + 2 * i);
  }
  return code;
}

uint16_t CandidateEncoder::ComputeMask(uint64_t code) const {
  uint16_t mask = 0;
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    // The GSI test: v is a candidate of u iff ENC(u) AND ENC(v) == ENC(u).
    if ((qcodes_[u] & code) == qcodes_[u]) {
      mask |= static_cast<uint16_t>(1u << u);
    }
  }
  return mask;
}

void CandidateEncoder::SetCode(VertexId v, uint64_t code) {
  if (code != codes_[v]) {
    codes_[v] = code;
    table_[v] = ComputeMask(code);
  }
}

void CandidateEncoder::Grow(const LabeledGraph& g) {
  const size_t old = codes_.size();
  const size_t nv = g.NumVertices();
  label_index_.resize(nv);
  counts_.resize(nv * used_labels_.size(), 0);
  codes_.resize(nv, 0);
  table_.resize(nv, 0);
  for (VertexId v = static_cast<VertexId>(old); v < nv; ++v) {
    label_index_[v] = static_cast<int8_t>(LabelIndex(g.VertexLabel(v)));
    SetCode(v, EncodeCounts(v));  // an isolated vertex: label bit only
  }
}

void CandidateEncoder::BuildAll(const LabeledGraph& g) {
  codes_.clear();
  table_.clear();
  label_index_.clear();
  counts_.clear();
  Grow(g);
  const size_t n = used_labels_.size();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint32_t* counts = counts_.data() + v * n;
    for (const Neighbor& nb : g.Neighbors(v)) {
      const int li = label_index_[nb.v];
      if (li >= 0) ++counts[li];
    }
    SetCode(v, EncodeCounts(v));
  }
}

void CandidateEncoder::UpdateDirty(const LabeledGraph& g,
                                   std::span<const VertexId> dirty) {
  const size_t n = used_labels_.size();
  for (VertexId v : dirty) {
    if (v >= codes_.size()) Grow(g);  // vertex added after BuildAll
    // Labels are re-read from g, not from label_index_: callers that
    // relabel vertices (CaLiG) list them here.
    label_index_[v] = static_cast<int8_t>(LabelIndex(g.VertexLabel(v)));
    uint32_t* counts = counts_.data() + v * n;
    std::fill(counts, counts + n, 0u);
    for (const Neighbor& nb : g.Neighbors(v)) {
      const int li = LabelIndex(g.VertexLabel(nb.v));
      if (li >= 0) ++counts[li];
    }
    SetCode(v, EncodeCounts(v));
  }
}

void CandidateEncoder::AdjustCount(VertexId v, int li, bool insert) {
  if (li < 0) return;  // the neighbor's label is not in the query
  const size_t n = used_labels_.size();
  uint32_t& count = counts_[v * n + static_cast<size_t>(li)];
  if (insert) {
    ++count;
  } else {
    GAMMA_CHECK_MSG(count > 0,
                    "neighbor count underflow: batch deletes an edge the "
                    "encoder never saw");
    --count;
  }
  if (label_index_[v] < 0) return;  // code is 0 whatever the counts
  // Only label li's thermometer counter can have changed.
  const size_t shift = n + 2 * static_cast<size_t>(li);
  SetCode(v, (codes_[v] & ~(0b11ull << shift)) |
                 (ThermometerBits2(count) << shift));
}

void CandidateEncoder::ApplyBatchDirty(const LabeledGraph& g,
                                       const UpdateBatch& batch) {
  if (g.NumVertices() > codes_.size()) Grow(g);
  for (const UpdateOp& op : batch) {
    GAMMA_CHECK(op.u < codes_.size() && op.v < codes_.size());
    AdjustCount(op.u, label_index_[op.v], op.is_insert);
    AdjustCount(op.v, label_index_[op.u], op.is_insert);
  }
}

size_t CandidateEncoder::CountCandidates(VertexId u) const {
  size_t n = 0;
  for (uint16_t row : table_) n += (row >> u) & 1u;
  return n;
}

}  // namespace bdsm
