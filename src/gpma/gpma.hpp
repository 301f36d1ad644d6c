/// \file gpma.hpp
/// GPMA: packed-memory-array dynamic graph container (Sha et al.,
/// PVLDB'17), the device-resident graph structure GAMMA adopts (§V-C).
///
/// Edges are 64-bit keys (src << 32 | dst), both directions stored, kept
/// globally sorted across an array of fixed-capacity *segments* (the PMA
/// leaves).  Two structures keep the hot update path cheap
/// (docs/ENGINES.md "GPMA internals"):
///
/// * an implicit binary segment tree over the leaves — per-node minimum
///   key and live-entry count — so locate is O(log n) node hops (the
///   tree's top layers are what GAMMA caches in shared memory) and any
///   rebalance window's density is an O(1) lookup;
/// * KNTRIE-style size-classed segment storage: each segment allocates
///   its key/value arrays from quarter-step size classes (bounded ~25%
///   slack), so inserts and erases are in-place array shifts in the
///   common case and sparse segments hold little memory even when the
///   logical segment capacity is large.
///
/// Batch updates locate their leaf through the segment tree, materialize
/// in place when the density thresholds allow, and otherwise rebalance
/// the smallest ancestor window that satisfies its threshold.  Deletion
/// rebalancing is deferred to the end of the batch's deletion phase so
/// one window redistribution absorbs many neighboring erases.  The array
/// itself grows/shrinks by whole power-of-two resizes, sized directly to
/// a target occupancy instead of stepwise doubling/halving.
///
/// ApplyBatch is the one update path.  Entries move at three sites only:
/// InsertAt and RemoveAt shift within one segment, and Spread lays a
/// sorted key run evenly over a segment range — the one routine behind
/// bulk load (BuildFrom), whole-array resizes and window rebalances.
///
/// This implementation uses the packed-segment PMA variant: entries are
/// compacted at the front of each segment rather than interleaved with
/// gaps.  Same asymptotics and identical segment/window/rebalance
/// behaviour (which is what the update cost model measures); far simpler
/// indexing.
///
/// ApplyBatch additionally returns an UpdatePlan — the per-segment work
/// description from which gpma_kernel.hpp builds the simulated device
/// update kernel (warp/block/device strategies, cooperative groups,
/// cached top layers).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpma/update_plan.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/common.hpp"

namespace bdsm {

class Gpma {
 public:
  /// Sentinel for "no key": empty segments report this as their min.
  static constexpr uint64_t kEmptyKey = ~0ull;

  /// `segment_capacity` must be a power of two (default 32 = one warp).
  explicit Gpma(uint32_t segment_capacity = 32);

  /// Bulk-loads the edges of g (both directions per undirected edge).
  void BuildFrom(const LabeledGraph& g);

  /// Applies a sanitized batch: deletions first, then insertions (the
  /// convention ApplyBatch(LabeledGraph) also follows).  Returns the
  /// plan describing the segment-level work done.
  UpdatePlan ApplyBatch(const UpdateBatch& batch);

  bool HasEdge(VertexId u, VertexId v) const;
  /// Existence test that also yields the label (disambiguates absent
  /// edges from present-but-unlabeled ones).
  bool FindEdge(VertexId u, VertexId v, Label* elabel) const;

  /// Replaces *out with the sorted destination/label pairs of v's
  /// adjacency (callers reuse one scratch buffer).
  void NeighborsInto(VertexId v, std::vector<Neighbor>* out) const;

  /// Directed entry count = 2 * number of undirected edges.
  size_t NumEntries() const { return num_entries_; }
  size_t NumEdges() const { return num_entries_ / 2; }

  size_t NumSegments() const { return num_segments_; }
  uint32_t segment_capacity() const { return seg_cap_; }
  /// PMA tree height = log2(#segments) + 1 (the "layers" of §V-C).
  uint32_t TreeHeight() const;
  double Occupancy() const {
    size_t cap = num_segments_ * seg_cap_;
    return cap == 0 ? 0.0
                    : static_cast<double>(num_entries_) /
                          static_cast<double>(cap);
  }

  // ---- structural introspection (tests, benches; all O(1)/O(log n)) --

  /// Min key of a segment; kEmptyKey when the segment is empty.
  uint64_t SegmentMin(size_t seg) const { return tree_mins_[leaf(seg)]; }
  uint32_t SegmentCount(size_t seg) const { return segs_[seg].count; }
  /// Allocated slots of the segment's size class (<= segment_capacity).
  uint32_t SegmentAllocated(size_t seg) const { return segs_[seg].alloc; }
  /// Total allocated slots across all segments (size-class waste bound:
  /// allocated stays within ~25% of live entries plus the per-segment
  /// minimum class).
  size_t AllocatedSlots() const;

  /// Segment holding (or preceding) `key` via the segment-tree descent —
  /// the production locate path.  `key` must be a storable key
  /// (< kEmptyKey, which is the reserved empty-subtree sentinel).
  size_t LocateSegmentIndexed(uint64_t key) const;
  /// Same answer by linear scan over segment mins; the property suite's
  /// reference for index-vs-scan equivalence.
  size_t LocateSegmentLinear(uint64_t key) const;

  /// Smallest size class holding `needed` entries, clamped to `cap`
  /// (quarter-step classes: waste < 25% above the minimum class).
  static uint32_t SizeClassFor(uint32_t needed, uint32_t cap);

  /// Internal consistency check: global sortedness, counts, tree
  /// coherence, size-class bounds.  Tests call this after every
  /// mutation burst.
  void CheckInvariants() const;

 private:
  /// Size-classed storage of one PMA leaf.  `alloc` tracks the class
  /// the arrays were drawn with; slots in [count, alloc) are garbage.
  struct Segment {
    std::unique_ptr<uint64_t[]> keys;
    std::unique_ptr<Label[]> vals;
    uint32_t alloc = 0;
    uint32_t count = 0;
  };

  struct Locator {
    size_t segment;
    size_t offset;  ///< position within segment (insertion point)
    bool found;
  };

  size_t leaf(size_t seg) const { return num_segments_ + seg; }

  uint64_t& KeyAt(size_t seg, size_t off) { return segs_[seg].keys[off]; }
  uint64_t KeyAt(size_t seg, size_t off) const {
    return segs_[seg].keys[off];
  }
  Label& ValAt(size_t seg, size_t off) { return segs_[seg].vals[off]; }
  Label ValAt(size_t seg, size_t off) const { return segs_[seg].vals[off]; }

  /// Binary search for `key`: segment via the tree descent, then
  /// position within the segment.
  Locator Locate(uint64_t key) const;
  /// The position step alone, in a segment the caller already knows
  /// holds (or precedes) `key`.
  Locator LocateIn(size_t seg, uint64_t key) const;

  /// Grows (or, with hysteresis, shrinks) the segment's storage class so
  /// it holds `needed` entries, copying the live prefix.  Returns whether
  /// the storage was reallocated.
  bool ReclassSegment(size_t seg, uint32_t needed);
  /// Inserts key at locator position (grows the class in place if the
  /// current one is full; that copy is priced by the caller's SegmentOp).
  void InsertAt(const Locator& loc, uint64_t key, Label val);
  /// Removes the entry at locator position; a class shrink is counted
  /// into `plan` as a standalone realloc.
  void RemoveAt(const Locator& loc, UpdatePlan* plan);

  /// Bottom-up rebalance around `seg` ensuring the leaf can take
  /// `incoming` more entries.  Records the window or resize in `plan`.
  void RebalanceForInsert(size_t seg, size_t incoming, UpdatePlan* plan);
  /// Counterpart after deletions (merges sparse windows).  Called per
  /// dirty segment at the end of a batch's deletion phase.
  void RebalanceForDelete(size_t seg, UpdatePlan* plan);
  /// Direct-to-target shrink when the whole array is drastically
  /// oversized (size classes already reclaimed the memory; this only
  /// buys back locate height).
  void MaybeShrink(UpdatePlan* plan);

  /// Lays the sorted run keys/vals evenly over segments
  /// [first, first+count), normalizing each segment's size class to its
  /// share, and pulls the range's tree path.
  void Spread(size_t first, size_t count, const std::vector<uint64_t>& keys,
              const std::vector<Label>& vals);
  /// Appends the live entries of segments [first, first+count) in order.
  void Gather(size_t first, size_t count, std::vector<uint64_t>* keys,
              std::vector<Label>* vals) const;
  /// Evenly redistributes the entries of segments [first, first+count).
  void RedistributeWindow(size_t first, size_t count);
  /// Replaces the segment array and tree with `num_segments` empty,
  /// storage-less segments (num_entries_ is left to the caller).
  void Reset(size_t num_segments);
  /// Rebuilds the array at new_num_segments, then spreads all entries.
  void Resize(size_t new_num_segments);

  /// Density thresholds for a window at `level` (0 = leaf).
  double UpperDensity(uint32_t level) const;
  double LowerDensity(uint32_t level) const;

  /// Recomputes the leaf's tree entries and pulls the path to the root.
  void PullLeaf(size_t seg);
  /// Same for a leaf range [first, first+count): one bottom-up pass.
  void PullRange(size_t first, size_t count);

  uint32_t seg_cap_;
  size_t num_segments_ = 1;          ///< always a power of two
  std::vector<Segment> segs_;
  std::vector<uint64_t> tree_mins_;  ///< implicit tree, size 2n; [0] unused
  std::vector<uint64_t> tree_live_;  ///< live entries per subtree
  size_t num_entries_ = 0;
};

}  // namespace bdsm
