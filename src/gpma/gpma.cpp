#include "gpma/gpma.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.hpp"

namespace bdsm {

namespace {

// Leaf segments may fill almost completely; windows closer to the root
// must stay sparser so local rebalances keep absorbing future inserts
// (standard adaptive-PMA profile, Bender & Hu).
constexpr double kLeafUpper = 0.92;
constexpr double kRootUpper = 0.70;
constexpr double kLeafLower = 0.08;
constexpr double kRootLower = 0.30;

// Whole-array resizes target a mid-band occupancy directly (instead of
// stepwise doubling/halving) so one resize settles the structure.
constexpr double kGrowTargetOccupancy = 0.45;
constexpr double kShrinkTargetOccupancy = 0.35;

// Global shrink trigger.  Deliberately far below the root lower bound:
// with size-classed segments the memory of sparse leaves is already
// reclaimed per segment, so shrinking the segment array only buys back
// locate height — worth a full-array move only when the array is
// drastically oversized.  The wide grow/shrink hysteresis band also
// prevents resize thrash under delete-heavy churn.
constexpr double kShrinkOccupancy = kRootLower / 8;

SegmentStrategy StrategyForWindow(size_t window_slots) {
  if (window_slots <= 32) return SegmentStrategy::kWarp;
  // 12 bytes/entry (key + value + dst) against 48 KB shared memory.
  if (window_slots * 12 <= 48 * 1024) return SegmentStrategy::kBlock;
  return SegmentStrategy::kDevice;
}

}  // namespace

Gpma::Gpma(uint32_t segment_capacity) : seg_cap_(segment_capacity) {
  GAMMA_CHECK_MSG(std::has_single_bit(segment_capacity),
                  "segment capacity must be a power of two");
  Reset(1);
}

uint32_t Gpma::TreeHeight() const {
  return static_cast<uint32_t>(std::bit_width(num_segments_));
}

double Gpma::UpperDensity(uint32_t level) const {
  uint32_t h = std::max(1u, TreeHeight() - 1);
  double frac = static_cast<double>(level) / static_cast<double>(h);
  return kLeafUpper + (kRootUpper - kLeafUpper) * frac;
}

double Gpma::LowerDensity(uint32_t level) const {
  uint32_t h = std::max(1u, TreeHeight() - 1);
  double frac = static_cast<double>(level) / static_cast<double>(h);
  return kLeafLower + (kRootLower - kLeafLower) * frac;
}

uint32_t Gpma::SizeClassFor(uint32_t needed, uint32_t cap) {
  uint32_t c;
  if (needed <= 4) {
    c = 4;
  } else if (needed < 16) {
    c = (needed + 3u) & ~3u;
  } else {
    uint32_t step = std::bit_floor(needed) / 4;  // quarter-step classes
    c = (needed + step - 1) / step * step;
  }
  return std::min(c, cap);
}

size_t Gpma::AllocatedSlots() const {
  size_t total = 0;
  for (const Segment& s : segs_) total += s.alloc;
  return total;
}

void Gpma::PullLeaf(size_t seg) {
  size_t node = leaf(seg);
  tree_mins_[node] = segs_[seg].count ? segs_[seg].keys[0] : kEmptyKey;
  tree_live_[node] = segs_[seg].count;
  for (node >>= 1; node >= 1; node >>= 1) {
    tree_mins_[node] =
        std::min(tree_mins_[2 * node], tree_mins_[2 * node + 1]);
    tree_live_[node] = tree_live_[2 * node] + tree_live_[2 * node + 1];
  }
}

void Gpma::PullRange(size_t first, size_t count) {
  for (size_t s = first; s < first + count; ++s) {
    size_t node = leaf(s);
    tree_mins_[node] = segs_[s].count ? segs_[s].keys[0] : kEmptyKey;
    tree_live_[node] = segs_[s].count;
  }
  size_t lo = leaf(first), hi = leaf(first + count - 1) + 1;
  while (lo > 1) {
    lo >>= 1;
    hi = (hi + 1) >> 1;
    for (size_t i = lo; i < hi; ++i) {
      tree_mins_[i] = std::min(tree_mins_[2 * i], tree_mins_[2 * i + 1]);
      tree_live_[i] = tree_live_[2 * i] + tree_live_[2 * i + 1];
    }
  }
}

size_t Gpma::LocateSegmentIndexed(uint64_t key) const {
  // Descend toward the last leaf whose min <= key: take the right child
  // whenever its subtree holds a key small enough.  Empty subtrees
  // report kEmptyKey (+inf) and are never descended into, so the search
  // lands on a non-empty leaf whenever one qualifies, segment 0
  // otherwise — exactly the flat search over inheritance-filled mins.
  size_t node = 1;
  while (node < num_segments_) {
    size_t right = 2 * node + 1;
    node = tree_mins_[right] <= key ? right : 2 * node;
  }
  return node - num_segments_;
}

size_t Gpma::LocateSegmentLinear(uint64_t key) const {
  for (size_t s = num_segments_; s-- > 0;) {
    if (segs_[s].count && segs_[s].keys[0] <= key) return s;
  }
  return 0;
}

Gpma::Locator Gpma::Locate(uint64_t key) const {
  return LocateIn(LocateSegmentIndexed(key), key);
}

Gpma::Locator Gpma::LocateIn(size_t seg, uint64_t key) const {
  size_t cnt = segs_[seg].count;
  size_t a = 0, b = cnt;
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (KeyAt(seg, mid) < key) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  bool found = a < cnt && KeyAt(seg, a) == key;
  return Locator{seg, a, found};
}

bool Gpma::ReclassSegment(size_t seg, uint32_t needed) {
  Segment& s = segs_[seg];
  uint32_t target = SizeClassFor(std::max(needed, s.count), seg_cap_);
  uint64_t roomy = std::min<uint64_t>(uint64_t{needed} * 2, seg_cap_);
  bool grow = s.alloc < target;
  // KNTRIE-style hysteresis: only release storage once the class for
  // twice the live count is still smaller than what we hold.
  bool shrink =
      s.alloc > SizeClassFor(static_cast<uint32_t>(roomy), seg_cap_);
  if (!grow && !shrink) return false;
  auto keys = std::make_unique<uint64_t[]>(target);
  auto vals = std::make_unique<Label[]>(target);
  if (s.count) {
    std::copy_n(s.keys.get(), s.count, keys.get());
    std::copy_n(s.vals.get(), s.count, vals.get());
  }
  s.keys = std::move(keys);
  s.vals = std::move(vals);
  s.alloc = target;
  return true;
}

void Gpma::InsertAt(const Locator& loc, uint64_t key, Label val) {
  Segment& s = segs_[loc.segment];
  GAMMA_CHECK(s.count < seg_cap_);
  // A grow here is covered by the SegmentOp the caller records for this
  // leaf (the op's window_entries already price materializing the whole
  // segment, into whatever allocation backs it) — so it is deliberately
  // not counted as a standalone class realloc.
  if (s.count + 1 > s.alloc) {
    ReclassSegment(loc.segment, s.count + 1);
  }
  for (size_t i = s.count; i > loc.offset; --i) {
    s.keys[i] = s.keys[i - 1];
    s.vals[i] = s.vals[i - 1];
  }
  s.keys[loc.offset] = key;
  s.vals[loc.offset] = val;
  ++s.count;
  ++num_entries_;
  PullLeaf(loc.segment);
}

void Gpma::RemoveAt(const Locator& loc, UpdatePlan* plan) {
  Segment& s = segs_[loc.segment];
  GAMMA_CHECK(loc.found && loc.offset < s.count);
  for (size_t i = loc.offset; i + 1 < s.count; ++i) {
    s.keys[i] = s.keys[i + 1];
    s.vals[i] = s.vals[i + 1];
  }
  --s.count;
  --num_entries_;
  if (ReclassSegment(loc.segment, s.count)) {
    ++plan->class_reallocs;
    plan->class_realloc_entries += s.count;
  }
  PullLeaf(loc.segment);
}

void Gpma::Spread(size_t first, size_t count,
                  const std::vector<uint64_t>& keys,
                  const std::vector<Label>& vals) {
  // Even spread; each segment's size class is normalized to its share
  // (same hysteresis as ReclassSegment, so a segment left empty holds
  // no storage unless it already had some).
  size_t total = keys.size();
  size_t base = total / count, extra = total % count;
  size_t idx = 0;
  for (size_t s = first; s < first + count; ++s) {
    size_t take = base + ((s - first) < extra ? 1 : 0);
    GAMMA_CHECK(take <= seg_cap_);
    Segment& sg = segs_[s];
    uint32_t cls = SizeClassFor(static_cast<uint32_t>(take), seg_cap_);
    if (sg.alloc < take || sg.alloc > SizeClassFor(
            static_cast<uint32_t>(std::min<uint64_t>(take * 2, seg_cap_)),
            seg_cap_)) {
      sg.keys = std::make_unique<uint64_t[]>(cls);
      sg.vals = std::make_unique<Label[]>(cls);
      sg.alloc = cls;
    }
    sg.count = static_cast<uint32_t>(take);
    std::copy_n(keys.data() + idx, take, sg.keys.get());
    std::copy_n(vals.data() + idx, take, sg.vals.get());
    idx += take;
  }
  PullRange(first, count);
}

void Gpma::Gather(size_t first, size_t count, std::vector<uint64_t>* keys,
                  std::vector<Label>* vals) const {
  for (size_t s = first; s < first + count; ++s) {
    keys->insert(keys->end(), segs_[s].keys.get(),
                 segs_[s].keys.get() + segs_[s].count);
    vals->insert(vals->end(), segs_[s].vals.get(),
                 segs_[s].vals.get() + segs_[s].count);
  }
}

void Gpma::RedistributeWindow(size_t first, size_t count) {
  std::vector<uint64_t> keys;
  std::vector<Label> vals;
  Gather(first, count, &keys, &vals);
  Spread(first, count, keys, vals);
}

void Gpma::Reset(size_t num_segments) {
  num_segments_ = num_segments;
  segs_ = std::vector<Segment>(num_segments);
  tree_mins_.assign(2 * num_segments, kEmptyKey);
  tree_live_.assign(2 * num_segments, 0);
}

void Gpma::Resize(size_t new_num_segments) {
  GAMMA_CHECK(new_num_segments >= 1 &&
              std::has_single_bit(new_num_segments));
  std::vector<uint64_t> keys;
  std::vector<Label> vals;
  keys.reserve(num_entries_);
  vals.reserve(num_entries_);
  Gather(0, num_segments_, &keys, &vals);
  GAMMA_CHECK(keys.size() <= new_num_segments * seg_cap_);
  Reset(new_num_segments);
  Spread(0, new_num_segments, keys, vals);
}

void Gpma::RebalanceForInsert(size_t seg, size_t incoming,
                              UpdatePlan* plan) {
  // Find the smallest window (seg's ancestors) whose density after the
  // incoming entries respects the level threshold; redistribute it.
  // Window live counts come straight from the segment tree.
  size_t n = num_segments_;
  uint32_t level = 0;
  size_t win = 1;
  while (true) {
    size_t first = (seg / win) * win;
    size_t live = tree_live_[(n + first) >> level];
    double density = static_cast<double>(live + incoming) /
                     static_cast<double>(win * seg_cap_);
    bool fits = live + incoming <= win * seg_cap_;  // physical capacity
    // Even redistribution leaves ceil(live/win) entries per leaf; the
    // target leaf must still absorb at least one incoming entry (with
    // tiny segments the density threshold alone can round up to "full").
    size_t per_leaf = (live + win - 1) / win;
    bool leaf_room = per_leaf + 1 <= seg_cap_;
    if (fits && leaf_room && density <= UpperDensity(level)) {
      if (win > 1) {
        RedistributeWindow(first, win);
        ++plan->window_rebalances;
        plan->AddOp(SegmentOp{live, static_cast<uint32_t>(win),
                              static_cast<uint32_t>(incoming), 0,
                              StrategyForWindow(win * seg_cap_)});
      }
      return;
    }
    if (win >= n) break;
    win *= 2;
    ++level;
  }
  // Even the root window is too dense: grow the array, sized directly
  // for the post-insert entry count at the target occupancy.
  size_t needed = num_entries_ + incoming;
  size_t by_occ = static_cast<size_t>(
                      static_cast<double>(needed) /
                      (kGrowTargetOccupancy * seg_cap_)) +
                  1;
  size_t target = std::max(n * 2, std::bit_ceil(by_occ));
  size_t moved = num_entries_;
  Resize(target);
  ++plan->resizes;
  plan->resized_entries += moved;
}

void Gpma::MaybeShrink(UpdatePlan* plan) {
  if (num_segments_ == 1 || Occupancy() >= kShrinkOccupancy) return;
  size_t by_occ = static_cast<size_t>(
                      static_cast<double>(num_entries_) /
                      (kShrinkTargetOccupancy * seg_cap_)) +
                  1;
  size_t target =
      std::min(std::max<size_t>(1, std::bit_ceil(by_occ)),
               num_segments_ / 2);
  size_t moved = num_entries_;
  Resize(target);
  ++plan->resizes;
  plan->resized_entries += moved;
}

void Gpma::RebalanceForDelete(size_t seg, UpdatePlan* plan) {
  size_t n = num_segments_;
  if (n == 1) return;
  double leaf_density = static_cast<double>(segs_[seg].count) /
                        static_cast<double>(seg_cap_);
  // Lower-bound maintenance is lazy, with a hysteresis band mirroring
  // the grow/shrink one: only a near-empty leaf (half the lower bound)
  // is worth a window merge.  Sparse-but-live leaves cost nothing extra
  // to scan (empty slots are never touched under the packed layout) and
  // their storage is already reclaimed by the size classes.
  if (leaf_density >= 0.5 * LowerDensity(0)) return;
  uint32_t level = 0;
  size_t win = 1;
  while (win < n) {
    win *= 2;
    ++level;
    size_t first = (seg / win) * win;
    size_t live = tree_live_[(n + first) >> level];
    double density = static_cast<double>(live) /
                     static_cast<double>(win * seg_cap_);
    if (density >= LowerDensity(level)) {
      RedistributeWindow(first, win);
      ++plan->window_rebalances;
      plan->AddOp(SegmentOp{live, static_cast<uint32_t>(win), 0, 1,
                            StrategyForWindow(win * seg_cap_)});
      return;
    }
  }
  MaybeShrink(plan);
}

void Gpma::BuildFrom(const LabeledGraph& g) {
  // Bulk load: gather all directed entries sorted, size the array to
  // the insert-phase grow target and spread evenly.  Loading at the
  // root *threshold* (the old 70% sizing) meant the very first insert
  // batch paid a full-array resize; loading at the grow target leaves
  // the same headroom a post-growth array has, so realistic (2-10%)
  // update rates stay on the in-place/windowed path.  Size classes keep
  // the extra segments cheap: allocation tracks live entries, not the
  // logical capacity.
  std::vector<uint64_t> keys;
  std::vector<Label> vals;
  keys.reserve(2 * g.NumEdges());
  vals.reserve(2 * g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      keys.push_back(PackEdge(v, nb.v));
      vals.push_back(nb.elabel);
    }
  }
  // keys are produced in (src asc, dst asc) order already.
  size_t need =
      keys.size() == 0
          ? 1
          : std::bit_ceil(static_cast<size_t>(
                              static_cast<double>(keys.size()) /
                              (kGrowTargetOccupancy * seg_cap_)) +
                          1);
  Reset(need);
  num_entries_ = keys.size();
  Spread(0, need, keys, vals);
}

UpdatePlan Gpma::ApplyBatch(const UpdateBatch& batch) {
  UpdatePlan plan;
  plan.tree_height = TreeHeight();

  // Deletions first (ApplyBatch(LabeledGraph) convention): every erase
  // is an in-place segment shift; rebalancing is deferred to the end of
  // the phase so one window redistribution absorbs many neighboring
  // erases instead of sweeping after every op.
  std::vector<size_t> dirty;
  bool deleted = false;
  for (const UpdateOp& op : batch) {
    if (op.is_insert) continue;
    plan.locate_searches += 2;
    plan.index_hops += 2 * (TreeHeight() - 1);
    uint64_t k1 = PackEdge(op.u, op.v), k2 = PackEdge(op.v, op.u);
    Locator l1 = Locate(k1);
    if (!l1.found) continue;
    RemoveAt(l1, &plan);
    Locator l2 = Locate(k2);
    GAMMA_CHECK(l2.found);
    RemoveAt(l2, &plan);
    plan.inplace_ops += 2;
    dirty.push_back(l1.segment);
    dirty.push_back(l2.segment);
    deleted = true;
  }
  if (deleted) {
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (size_t seg : dirty) {
      // A shrink mid-loop rebuilds the array; stale ids are covered by
      // that full redistribution.
      if (seg >= num_segments_) continue;
      RebalanceForDelete(seg, &plan);
    }
    MaybeShrink(&plan);
  }

  // Insertions, grouped per leaf segment the way the device kernel
  // groups edges that landed in the same segment.
  std::vector<std::pair<uint64_t, Label>> entries;
  entries.reserve(batch.size() * 2);
  for (const UpdateOp& op : batch) {
    if (!op.is_insert) continue;
    entries.emplace_back(PackEdge(op.u, op.v), op.elabel);
    entries.emplace_back(PackEdge(op.v, op.u), op.elabel);
  }
  std::sort(entries.begin(), entries.end());
  // GPMA assigns one thread per updated (directed) edge for the locate
  // step, regardless of subsequent grouping.
  plan.locate_searches += entries.size();
  plan.index_hops += entries.size() * (TreeHeight() - 1);
  // Min key of segments at or past `from` — the group boundary query
  // (suffix range-min over the segment tree, O(log n)).
  auto suffix_min = [&](size_t from) {
    uint64_t m = kEmptyKey;
    size_t lo = leaf(from), hi = 2 * num_segments_;
    while (lo < hi) {
      if (lo & 1) m = std::min(m, tree_mins_[lo++]);
      if (hi & 1) m = std::min(m, tree_mins_[--hi]);
      lo >>= 1;
      hi >>= 1;
    }
    return m;
  };
  size_t i = 0;
  while (i < entries.size()) {
    Locator loc = Locate(entries[i].first);
    if (loc.found) {  // duplicate insert; skip
      ++i;
      continue;
    }
    // Count how many consecutive sorted entries fall into this segment.
    size_t seg = loc.segment;
    size_t j = i;
    uint64_t seg_limit =
        seg + 1 < num_segments_ ? suffix_min(seg + 1) : kEmptyKey;
    while (j < entries.size() && entries[j].first < seg_limit) ++j;
    size_t group = j - i;
    uint64_t live = segs_[seg].count;
    // Materialize if the leaf absorbs the group within thresholds; else
    // rebalance first (which may grow the array and move entries).
    if (live + group > seg_cap_ ||
        static_cast<double>(live + group) /
                static_cast<double>(seg_cap_) >
            kLeafUpper) {
      RebalanceForInsert(seg, group, &plan);
      // Segment boundaries moved; re-locate and re-group next round.
      Locator fresh = Locate(entries[i].first);
      if (!fresh.found) {
        InsertAt(fresh, entries[i].first, entries[i].second);
      }
      plan.AddOp(SegmentOp{segs_[fresh.segment].count, 1, 1, 0,
                           SegmentStrategy::kWarp});
      ++i;
      continue;
    }
    // Every entry of the group lands in `seg`: the segments after it
    // start at or past seg_limit.  So search that segment alone.
    for (size_t k = i; k < j; ++k) {
      Locator l = LocateIn(seg, entries[k].first);
      if (!l.found) InsertAt(l, entries[k].first, entries[k].second);
    }
    plan.inplace_ops += group;
    plan.AddOp(SegmentOp{
        live + group, 1, static_cast<uint32_t>(group), 0,
        group <= 32 ? SegmentStrategy::kWarp : SegmentStrategy::kBlock});
    i = j;
  }
#if BDSM_OBS
  if (obs::Enabled()) {
    // Registry-backed views of the UpdatePlan — the same totals
    // bench_micro's --profile-only PlanTotals computes (including the
    // moved-entries definition: resize moves plus multi-segment window
    // moves), published from the plan itself so the two cannot drift.
    BDSM_OBS_COUNT("gpma.batches", 1);
    BDSM_OBS_COUNT("gpma.plan.locate_searches", plan.locate_searches);
    BDSM_OBS_COUNT("gpma.plan.index_hops", plan.index_hops);
    BDSM_OBS_COUNT("gpma.plan.resizes", plan.resizes);
    BDSM_OBS_COUNT("gpma.plan.resized_entries", plan.resized_entries);
    BDSM_OBS_COUNT("gpma.plan.window_rebalances", plan.window_rebalances);
    BDSM_OBS_COUNT("gpma.plan.inplace_ops", plan.inplace_ops);
    BDSM_OBS_COUNT("gpma.plan.segment_ops", plan.ops.size());
    uint64_t moved = plan.resized_entries;
    for (const SegmentOp& op : plan.ops) {
      if (op.window_segments > 1) moved += op.window_entries;
    }
    BDSM_OBS_COUNT("gpma.plan.moved_entries", moved);
  }
#endif
  return plan;
}

bool Gpma::HasEdge(VertexId u, VertexId v) const {
  return Locate(PackEdge(u, v)).found;
}

bool Gpma::FindEdge(VertexId u, VertexId v, Label* elabel) const {
  Locator loc = Locate(PackEdge(u, v));
  if (!loc.found) return false;
  *elabel = ValAt(loc.segment, loc.offset);
  return true;
}

void Gpma::NeighborsInto(VertexId v, std::vector<Neighbor>* out) const {
  out->clear();
  uint64_t lo = PackEdge(v, 0);
  Locator loc = Locate(lo);
  size_t seg = loc.segment, off = loc.offset;
  size_t n = num_segments_;
  while (seg < n) {
    size_t cnt = segs_[seg].count;
    for (; off < cnt; ++off) {
      uint64_t key = KeyAt(seg, off);
      if (EdgeSrc(key) != v) {
        if (key > lo) return;  // past v's range
        continue;              // still before (possible when loc.offset==cnt)
      }
      out->push_back(Neighbor{EdgeDst(key), ValAt(seg, off)});
    }
    ++seg;
    off = 0;
    // Early exit on the next non-empty segment's min (empty segments
    // carry no key and are simply stepped over).
    if (seg < n && segs_[seg].count && EdgeSrc(SegmentMin(seg)) > v) {
      return;
    }
  }
}

void Gpma::CheckInvariants() const {
  size_t n = num_segments_;
  GAMMA_CHECK(std::has_single_bit(n));
  GAMMA_CHECK(segs_.size() == n);
  GAMMA_CHECK(tree_mins_.size() == 2 * n && tree_live_.size() == 2 * n);
  size_t live = 0;
  uint64_t prev = 0;
  bool first = true;
  for (size_t s = 0; s < n; ++s) {
    const Segment& sg = segs_[s];
    GAMMA_CHECK(sg.count <= seg_cap_);
    GAMMA_CHECK(sg.alloc <= seg_cap_);
    GAMMA_CHECK(sg.count <= sg.alloc || (sg.count == 0 && sg.alloc == 0));
    live += sg.count;
    // Packed prefix, globally sorted.
    for (size_t i = 0; i < sg.count; ++i) {
      uint64_t key = sg.keys[i];
      GAMMA_CHECK(key != kEmptyKey);
      if (!first) GAMMA_CHECK(prev < key);
      prev = key;
      first = false;
    }
    // Segment-tree leaves mirror the segment exactly.
    GAMMA_CHECK(tree_mins_[n + s] ==
                (sg.count ? sg.keys[0] : kEmptyKey));
    GAMMA_CHECK(tree_live_[n + s] == sg.count);
  }
  // Internal tree nodes combine their children.
  for (size_t i = 1; i < n; ++i) {
    GAMMA_CHECK(tree_mins_[i] ==
                std::min(tree_mins_[2 * i], tree_mins_[2 * i + 1]));
    GAMMA_CHECK(tree_live_[i] == tree_live_[2 * i] + tree_live_[2 * i + 1]);
  }
  GAMMA_CHECK(live == num_entries_);
  GAMMA_CHECK(tree_live_[1] == num_entries_);
}

}  // namespace bdsm
