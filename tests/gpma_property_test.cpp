/// GPMA property suite: a seeded randomized differential harness
/// against a std::map oracle, run over a grid of seeds x segment
/// capacities.  After every batch the harness checks
///   * the container's own invariants (CheckInvariants: sortedness,
///     tree coherence, counts);
///   * the physical layout against the oracle's sorted key sequence —
///     per-segment counts and per-segment minima (with kEmptyKey for
///     empty segments);
///   * density and size-class waste bounds (AllocatedSlots within the
///     documented slack of the live entries);
///   * locate equivalence: the segment-tree descent
///     (LocateSegmentIndexed) answers exactly like a linear scan over
///     segment minima (LocateSegmentLinear) for present keys, absent
///     keys, and the extremes;
///   * the full engine-visible surface — NumEdges, HasEdge/FindEdge
///     both directions, and every vertex's NeighborsInto — against the
///     oracle.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "gpma/gpma.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace bdsm {
namespace {

using Oracle = std::map<std::pair<VertexId, VertexId>, Label>;

constexpr VertexId kNumVertices = 160;

/// Directed sorted key/label sequence the container must store.
std::vector<std::pair<uint64_t, Label>> DirectedEntries(const Oracle& o) {
  std::vector<std::pair<uint64_t, Label>> out;
  out.reserve(o.size() * 2);
  for (const auto& [uv, l] : o) {
    out.emplace_back(PackEdge(uv.first, uv.second), l);
    out.emplace_back(PackEdge(uv.second, uv.first), l);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Mirrors ApplyBatch's phase semantics onto the oracle: all deletions
/// first (absent edges skipped), then insertions (existing skipped).
/// ApplyBatch materializes insertions in sorted (key, label) order, so
/// among duplicate same-batch inserts of one edge the smallest label
/// wins — the oracle applies them in the same order.
void ApplyToOracle(Oracle* o, const UpdateBatch& batch) {
  for (const UpdateOp& op : batch) {
    if (op.is_insert) continue;
    VertexId u = std::min(op.u, op.v), v = std::max(op.u, op.v);
    o->erase({u, v});
  }
  std::vector<std::tuple<VertexId, VertexId, Label>> inserts;
  for (const UpdateOp& op : batch) {
    if (!op.is_insert) continue;
    inserts.emplace_back(std::min(op.u, op.v), std::max(op.u, op.v),
                         op.elabel);
  }
  std::sort(inserts.begin(), inserts.end());
  for (const auto& [u, v, l] : inserts) o->emplace(std::pair{u, v}, l);
}

class GpmaPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  uint32_t cap() const { return std::get<1>(GetParam()); }

  /// Layout check: walking the segments left to right must reproduce
  /// the oracle's sorted directed key sequence — counts and minima
  /// derive from it.
  void CheckLayout(const Gpma& g, const Oracle& oracle) {
    auto entries = DirectedEntries(oracle);
    ASSERT_EQ(g.NumEntries(), entries.size());
    size_t n = g.NumSegments();
    size_t at = 0;
    uint64_t prev_min = 0;
    bool seen_nonempty = false;
    size_t allocated = 0;
    for (size_t seg = 0; seg < n; ++seg) {
      uint32_t count = g.SegmentCount(seg);
      uint32_t alloc = g.SegmentAllocated(seg);
      allocated += alloc;
      ASSERT_LE(count, alloc);
      ASSERT_LE(alloc, g.segment_capacity());
      // Size-class slack: the class never exceeds the hysteresis bound
      // (the class for twice the live count), modulo the 4-slot floor.
      uint32_t bound = Gpma::SizeClassFor(
          static_cast<uint32_t>(
              std::min<uint64_t>(2 * std::max(count, 1u),
                                 g.segment_capacity())),
          g.segment_capacity());
      ASSERT_LE(alloc, std::max(bound, 4u)) << "segment " << seg;
      uint64_t min = g.SegmentMin(seg);
      if (count == 0) {
        ASSERT_EQ(min, Gpma::kEmptyKey) << "segment " << seg;
      } else {
        ASSERT_LT(at, entries.size());
        ASSERT_EQ(min, entries[at].first) << "segment " << seg;
        // Mins of non-empty segments are strictly increasing.
        if (seen_nonempty) {
          ASSERT_GT(min, prev_min) << "segment " << seg;
        }
        prev_min = min;
        seen_nonempty = true;
        at += count;
      }
    }
    ASSERT_EQ(at, entries.size());
    // Aggregate waste bound: quarter-step classes bound fresh
    // allocations within 25% of live entries; the shrink hysteresis may
    // retain up to the class for twice the live count after deletions —
    // so total allocation stays within 2.5x live plus the class floor.
    ASSERT_EQ(allocated, g.AllocatedSlots());
    ASSERT_LE(allocated,
              5 * g.NumEntries() / 2 + 4 * n);
  }

  /// Locate-path equivalence on a probe set derived from the oracle.
  void CheckLocate(const Gpma& g, const Oracle& oracle, Rng* rng) {
    auto probe = [&](uint64_t key) {
      ASSERT_EQ(g.LocateSegmentIndexed(key), g.LocateSegmentLinear(key))
          << "key " << key;
    };
    // kEmptyKey itself is the reserved empty-segment sentinel, not a
    // storable key (it would tie with empty subtrees in the descent);
    // probe up to the largest storable key instead.
    probe(0);
    probe(Gpma::kEmptyKey - 1);
    auto entries = DirectedEntries(oracle);
    for (int i = 0; i < 32 && !entries.empty(); ++i) {
      uint64_t k = entries[rng->Uniform(entries.size())].first;
      probe(k);
      probe(k - 1);
      probe(k + 1);
    }
    for (int i = 0; i < 32; ++i) {
      probe(PackEdge(static_cast<VertexId>(rng->Uniform(kNumVertices)),
                     static_cast<VertexId>(rng->Uniform(kNumVertices))));
    }
  }

  /// Engine-visible surface vs the oracle.
  void CheckVisible(const Gpma& g, const Oracle& oracle, Rng* rng) {
    ASSERT_EQ(g.NumEdges(), oracle.size());
    // Full adjacency sweep.
    std::vector<std::vector<Neighbor>> adj(kNumVertices);
    for (const auto& [uv, l] : oracle) {
      adj[uv.first].push_back(Neighbor{uv.second, l});
      adj[uv.second].push_back(Neighbor{uv.first, l});
    }
    std::vector<Neighbor> got;
    for (VertexId v = 0; v < kNumVertices; ++v) {
      std::sort(adj[v].begin(), adj[v].end(),
                [](const Neighbor& a, const Neighbor& b) {
                  return a.v < b.v;
                });
      g.NeighborsInto(v, &got);
      ASSERT_EQ(got.size(), adj[v].size()) << "vertex " << v;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].v, adj[v][i].v) << "vertex " << v;
        ASSERT_EQ(got[i].elabel, adj[v][i].elabel) << "vertex " << v;
      }
    }
    // Point lookups: present edges both directions, absent edges.
    for (int i = 0; i < 64 && !oracle.empty(); ++i) {
      auto it = oracle.begin();
      std::advance(it, rng->Uniform(oracle.size()));
      auto [uv, l] = *it;
      ASSERT_TRUE(g.HasEdge(uv.first, uv.second));
      ASSERT_TRUE(g.HasEdge(uv.second, uv.first));
      Label got_l = kNoLabel;
      ASSERT_TRUE(g.FindEdge(uv.first, uv.second, &got_l));
      ASSERT_EQ(got_l, l);
      got_l = kNoLabel;
      ASSERT_TRUE(g.FindEdge(uv.second, uv.first, &got_l));
      ASSERT_EQ(got_l, l);
    }
    for (int i = 0; i < 64; ++i) {
      VertexId u = static_cast<VertexId>(rng->Uniform(kNumVertices));
      VertexId v = static_cast<VertexId>(rng->Uniform(kNumVertices));
      if (u == v) continue;
      bool want = oracle.count({std::min(u, v), std::max(u, v)}) > 0;
      ASSERT_EQ(g.HasEdge(u, v), want);
    }
  }

  void CheckAll(const Gpma& g, const Oracle& oracle, Rng* rng) {
    g.CheckInvariants();
    CheckLayout(g, oracle);
    CheckLocate(g, oracle, rng);
    CheckVisible(g, oracle, rng);
  }

  UpdateBatch MakeBatch(const Oracle& oracle, Rng* rng, size_t ops,
                        double insert_prob) {
    UpdateBatch batch;
    for (size_t i = 0; i < ops; ++i) {
      if (!oracle.empty() && !rng->Chance(insert_prob)) {
        auto it = oracle.begin();
        std::advance(it, rng->Uniform(oracle.size()));
        batch.push_back(
            UpdateOp{false, it->first.first, it->first.second, kNoLabel});
      } else {
        VertexId u = static_cast<VertexId>(rng->Uniform(kNumVertices));
        VertexId v = static_cast<VertexId>(rng->Uniform(kNumVertices));
        if (u == v) v = (v + 1) % kNumVertices;
        batch.push_back(
            UpdateOp{true, u, v, static_cast<Label>(rng->Uniform(5))});
      }
    }
    return batch;
  }
};

TEST_P(GpmaPropertyTest, DifferentialAgainstMapOracle) {
  Gpma gpma(cap());
  Oracle oracle;
  Rng rng(seed() * 7919 + cap());
  gpma.CheckInvariants();
  // Growth phase: insert-heavy batches through the batch path.
  for (int round = 0; round < 10; ++round) {
    UpdateBatch batch = MakeBatch(oracle, &rng, 120, 0.85);
    gpma.ApplyBatch(batch);
    ApplyToOracle(&oracle, batch);
    CheckAll(gpma, oracle, &rng);
  }
  size_t peak_segments = gpma.NumSegments();
  // Churn phase: balanced mixes, exercising the deferred delete-phase
  // rebalancing and in-place inserts together.
  for (int round = 0; round < 10; ++round) {
    UpdateBatch batch = MakeBatch(oracle, &rng, 140, 0.5);
    gpma.ApplyBatch(batch);
    ApplyToOracle(&oracle, batch);
    CheckAll(gpma, oracle, &rng);
  }
  // Drain phase: delete-heavy batches down to a sliver, hitting the
  // size-class shrink hysteresis and the direct-to-target array shrink.
  for (int round = 0; round < 8; ++round) {
    UpdateBatch batch = MakeBatch(oracle, &rng, 160, 0.1);
    gpma.ApplyBatch(batch);
    ApplyToOracle(&oracle, batch);
    CheckAll(gpma, oracle, &rng);
  }
  // Final full drain through one batch.
  UpdateBatch drain;
  for (const auto& [uv, l] : oracle) {
    drain.push_back(UpdateOp{false, uv.first, uv.second, kNoLabel});
  }
  gpma.ApplyBatch(drain);
  oracle.clear();
  CheckAll(gpma, oracle, &rng);
  EXPECT_EQ(gpma.NumEdges(), 0u);
  EXPECT_LT(gpma.NumSegments(), peak_segments);
}

TEST_P(GpmaPropertyTest, OneOpBatchesMatchOracle) {
  // The same differential discipline over one-op batches, which
  // rebalance after every operation instead of once per batch phase.
  Gpma gpma(cap());
  Oracle oracle;
  Rng rng(seed() * 104729 + cap());
  for (int step = 0; step < 600; ++step) {
    VertexId u = static_cast<VertexId>(rng.Uniform(kNumVertices));
    VertexId v = static_cast<VertexId>(rng.Uniform(kNumVertices));
    if (u == v) v = (v + 1) % kNumVertices;
    VertexId lo = std::min(u, v), hi = std::max(u, v);
    // Bias toward inserts early, deletes late.
    bool insert = rng.Chance(step < 400 ? 0.8 : 0.2);
    if (insert) {
      Label l = static_cast<Label>(rng.Uniform(5));
      bool fresh = oracle.emplace(std::pair{lo, hi}, l).second;
      size_t before = gpma.NumEdges();
      gpma.ApplyBatch(UpdateBatch{UpdateOp{true, u, v, l}});
      ASSERT_EQ(gpma.NumEdges(), before + (fresh ? 1 : 0));
    } else if (!oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      auto uv = it->first;
      oracle.erase(it);
      size_t before = gpma.NumEdges();
      gpma.ApplyBatch(
          UpdateBatch{UpdateOp{false, uv.first, uv.second, kNoLabel}});
      ASSERT_EQ(gpma.NumEdges() + 1, before);
    }
    if (step % 50 == 49) CheckAll(gpma, oracle, &rng);
  }
  CheckAll(gpma, oracle, &rng);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByCapacities, GpmaPropertyTest,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u, 55u),
                       ::testing::Values(8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, uint32_t>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_cap" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bdsm
