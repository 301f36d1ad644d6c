#include "workload/stream_gen.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/kcore.hpp"
#include "util/logging.hpp"

namespace bdsm::workload {

const char* StreamKindName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kUniform: return "uniform";
    case StreamKind::kPowerLaw: return "powerlaw";
    case StreamKind::kTemporal: return "temporal";
    case StreamKind::kBurst: return "burst";
    case StreamKind::kChurn: return "churn";
    case StreamKind::kHotspot: return "hotspot";
    case StreamKind::kPreferential: return "preferential";
    case StreamKind::kCore: return "kcore";
  }
  return "?";
}

bool StreamKindFromName(const std::string& name, StreamKind* out) {
  for (StreamKind k : AllStreamKinds()) {
    if (name == StreamKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const std::vector<StreamKind>& AllStreamKinds() {
  static const std::vector<StreamKind> kKinds = {
      StreamKind::kUniform,      StreamKind::kPowerLaw, StreamKind::kTemporal,
      StreamKind::kBurst,        StreamKind::kChurn,    StreamKind::kHotspot,
      StreamKind::kPreferential, StreamKind::kCore};
  return kKinds;
}

namespace {

/// Seeded partial-Fisher-Yates permutation of [0, n).
std::vector<VertexId> RandomPermutation(size_t n, Rng& rng) {
  std::vector<VertexId> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<VertexId>(i);
  for (size_t i = 0; i + 1 < n; ++i) {
    size_t j = i + rng.Uniform(n - i);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

/// The vertices of the k-core of `g`, or of its densest non-empty core
/// when the k-core is empty.
std::vector<VertexId> CorePool(const LabeledGraph& g, size_t k) {
  std::vector<uint32_t> core = CoreNumbers(g);
  std::vector<VertexId> pool;
  for (size_t kk = k; pool.empty() && kk > 0; --kk) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (core[v] >= kk) pool.push_back(v);
    }
  }
  return pool;
}

}  // namespace

StreamSpec PreferentialSpec(size_t ops, double insert_fraction,
                            size_t elabels) {
  return {.kind = StreamKind::kPreferential,
          .ops_per_batch = ops,
          .insert_fraction = insert_fraction,
          .elabels = elabels};
}

template <typename PickFn>
UpdateBatch StreamGenerator::SampleInsertions(const LabeledGraph& g,
                                              size_t count, PickFn&& pick) {
  UpdateBatch batch;
  if (g.NumVertices() < 2) return batch;
  std::unordered_set<Edge, EdgeHash> used;
  size_t attempts = 0;
  const size_t max_attempts = count * 64 + 1024;
  while (batch.size() < count && attempts++ < max_attempts) {
    VertexId a = pick();
    VertexId b = pick();
    if (a == b) continue;
    Edge e(a, b);
    if (g.HasEdge(a, b) || used.count(e)) continue;
    used.insert(e);
    Label el = spec_.elabels == 0
                   ? kNoLabel
                   : static_cast<Label>(rng_.Uniform(spec_.elabels));
    batch.push_back(UpdateOp{true, e.u, e.v, el});
  }
  return batch;
}

UpdateBatch StreamGenerator::SampleDeletions(const LabeledGraph& g,
                                             size_t count) {
  UpdateBatch batch;
  std::vector<Edge> edges = g.CollectEdges();
  if (edges.empty()) return batch;
  count = std::min(count, edges.size());
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + rng_.Uniform(edges.size() - i);
    std::swap(edges[i], edges[j]);
    Label el = g.EdgeLabel(edges[i].u, edges[i].v);
    batch.push_back(UpdateOp{false, edges[i].u, edges[i].v, el});
  }
  return batch;
}

UpdateBatch StreamGenerator::Next(const LabeledGraph& g) {
  const size_t n = g.NumVertices();
  // Kind-specific fixed state, sampled once so it is part of the seed's
  // deterministic output.
  if (batch_index_ == 0 && spec_.kind == StreamKind::kPowerLaw) {
    perm_ = RandomPermutation(n, rng_);
    zipf_ = ZipfSampler(n, spec_.skew);
  } else if (batch_index_ == 0 && spec_.kind == StreamKind::kHotspot) {
    size_t h = std::max<size_t>(
        2, static_cast<size_t>(spec_.hotspot_fraction * double(n)));
    h = std::min(h, n);
    std::vector<VertexId> p = RandomPermutation(n, rng_);
    hot_.assign(p.begin(), p.begin() + h);
  }

  auto uniform_pick = [&]() -> VertexId {
    return static_cast<VertexId>(rng_.Uniform(n));
  };
  // A cheap preferential-attachment proxy: a neighbour of a uniform
  // vertex is degree-biased.
  auto preferential_pick = [&]() -> VertexId {
    VertexId v = uniform_pick();
    auto nbrs = g.Neighbors(v);
    if (!nbrs.empty() && rng_.Chance(0.5)) {
      return nbrs[rng_.Uniform(nbrs.size())].v;
    }
    return v;
  };
  // The shared mixed-batch shape: `insert_fraction` of ops_per_batch
  // are insertions with endpoints from `pick`, the rest uniform
  // deletions of existing edges.
  auto mixed_batch = [&](double insert_fraction, auto&& pick) {
    double f = std::clamp(insert_fraction, 0.0, 1.0);
    size_t ins = static_cast<size_t>(double(spec_.ops_per_batch) * f);
    ins = std::min(ins, spec_.ops_per_batch);
    UpdateBatch out = SampleInsertions(g, ins, pick);
    UpdateBatch dels = SampleDeletions(g, spec_.ops_per_batch - ins);
    out.insert(out.end(), dels.begin(), dels.end());
    return out;
  };

  UpdateBatch batch;
  switch (spec_.kind) {
    case StreamKind::kUniform:
      batch = mixed_batch(spec_.insert_fraction, uniform_pick);
      break;
    case StreamKind::kPowerLaw:
      batch = mixed_batch(spec_.insert_fraction, [&]() -> VertexId {
        return perm_[zipf_.Sample(rng_)];
      });
      break;
    case StreamKind::kTemporal: {
      // Fresh inserts this batch...
      batch = SampleInsertions(g, spec_.ops_per_batch, uniform_pick);
      std::vector<Edge> inserted;
      inserted.reserve(batch.size());
      for (const UpdateOp& op : batch) inserted.emplace_back(op.u, op.v);
      live_.push_back(std::move(inserted));
      // ...plus expiry of the window that just aged out.  Only edges
      // still present expire (an expired edge may have been uniformly
      // re-inserted later; it then lives in a younger window too — the
      // presence check keeps the delete valid either way).
      if (live_.size() > spec_.window_batches) {
        for (const Edge& e : live_.front()) {
          if (!g.HasEdge(e.u, e.v)) continue;
          batch.push_back(UpdateOp{false, e.u, e.v, g.EdgeLabel(e.u, e.v)});
        }
        live_.pop_front();
      }
      break;
    }
    case StreamKind::kBurst: {
      const size_t period = std::max<size_t>(2, spec_.burst_period);
      const bool is_burst = (batch_index_ + 1) % period == 0;
      if (is_burst) {
        // Flash crowd: a fresh small crowd absorbs the spike.
        size_t c = std::max<size_t>(
            2, static_cast<size_t>(spec_.crowd_fraction * double(n)));
        c = std::min(c, n);
        std::vector<VertexId> p = RandomPermutation(n, rng_);
        std::vector<VertexId> crowd(p.begin(), p.begin() + c);
        auto crowd_pick = [&]() -> VertexId {
          if (rng_.Chance(0.9)) return crowd[rng_.PickIndex(crowd)];
          return uniform_pick();
        };
        size_t ops = static_cast<size_t>(double(spec_.ops_per_batch) *
                                         spec_.burst_factor);
        batch = SampleInsertions(g, ops, crowd_pick);
      } else {
        batch = mixed_batch(spec_.insert_fraction, uniform_pick);
      }
      break;
    }
    case StreamKind::kChurn:
      batch = mixed_batch(spec_.churn_insert_fraction, uniform_pick);
      break;
    case StreamKind::kHotspot:
      batch = mixed_batch(spec_.insert_fraction, [&]() -> VertexId {
        if (rng_.Chance(spec_.hotspot_prob)) {
          return hot_[rng_.PickIndex(hot_)];
        }
        return uniform_pick();
      });
      break;
    case StreamKind::kPreferential:
      batch = mixed_batch(spec_.insert_fraction, preferential_pick);
      break;
    case StreamKind::kCore: {
      std::vector<VertexId> pool = CorePool(g, spec_.core_k);
      if (pool.size() < 2) {
        GAMMA_LOG_WARN("k-core pool too small (k=%zu); using whole graph",
                       spec_.core_k);
        batch = SampleInsertions(g, spec_.ops_per_batch, preferential_pick);
      } else {
        batch = SampleInsertions(g, spec_.ops_per_batch, [&]() -> VertexId {
          return pool[rng_.PickIndex(pool)];
        });
      }
      break;
    }
  }
  ++batch_index_;
  // Safety net: SampleInsertions/SampleDeletions already avoid
  // conflicts, but sanitizing here guarantees the replay invariant
  // even if a kind combines sub-batches imperfectly.
  return SanitizeBatch(g, batch);
}

std::vector<UpdateBatch> StreamGenerator::Generate(const LabeledGraph& g) {
  std::vector<UpdateBatch> stream;
  if (g.NumVertices() < 2) return stream;
  stream.reserve(spec_.num_batches);
  LabeledGraph evolving = g;  // private replica; caller's graph untouched
  for (size_t b = 0; b < spec_.num_batches; ++b) {
    UpdateBatch batch = Next(evolving);
    size_t applied = ApplyBatch(&evolving, batch);
    GAMMA_CHECK(applied == batch.size());
    stream.push_back(std::move(batch));
  }
  return stream;
}

}  // namespace bdsm::workload
