#include "gpma/gpma_kernel.hpp"

#include <algorithm>

#include "gpusim/coop_groups.hpp"

namespace bdsm {

namespace {

/// Prices the locate step of a slice of the batch's updates: each update
/// binary-searches the segment index; the top `cached` layers are shared
/// memory reads, the remainder global.
class LocateTask : public WarpTask {
 public:
  LocateTask(uint64_t searches, uint32_t height, uint32_t cached)
      : remaining_(searches), height_(height), cached_(cached) {}

  bool Step(WarpContext& ctx) override {
    if (remaining_ == 0) return false;
    // One warp performs 32 searches in lockstep per step.
    uint64_t batch = std::min<uint64_t>(remaining_, ctx.lanes());
    uint32_t shared_layers = std::min(height_, cached_);
    uint32_t global_layers = height_ - shared_layers;
    ctx.ChargeShared(batch * shared_layers);
    // Each global layer probe is one divergent word per search.
    ctx.ChargeGlobal(batch * global_layers, /*coalesced=*/false);
    ctx.ChargeCompute(batch * height_);
    remaining_ -= batch;
    return remaining_ > 0;
  }

  uint64_t EstimateRemaining() const override { return remaining_; }

  std::unique_ptr<WarpTask> StealHalf() override {
    if (remaining_ < 2) return nullptr;
    uint64_t half = remaining_ / 2;
    remaining_ -= half;
    return std::make_unique<LocateTask>(half, height_, cached_);
  }

 private:
  uint64_t remaining_;
  uint32_t height_;
  uint32_t cached_;
};

/// Prices the materialization of one segment op (insert/rebalance).
class SegmentTask : public WarpTask {
 public:
  SegmentTask(const SegmentOp& op, bool use_cg)
      : op_(op),
        steps_left_(ComputeSteps(op, use_cg)) {}

  static uint64_t ComputeSteps(const SegmentOp& op, bool use_cg) {
    uint32_t per_seg = op.window_segments
                           ? static_cast<uint32_t>(op.window_entries /
                                                   op.window_segments)
                           : 0;
    uint64_t steps =
        SegmentPassSteps(op.window_segments, std::max(per_seg, 1u), use_cg);
    // Block/device strategies pay extra synchronization per pass.
    if (op.strategy == SegmentStrategy::kBlock) steps += 4;
    if (op.strategy == SegmentStrategy::kDevice) steps += 32;
    return std::max<uint64_t>(steps, 1);
  }

  bool Step(WarpContext& ctx) override {
    if (steps_left_ == 0) return false;
    // Moving window entries is the dominant cost: coalesced global
    // traffic proportional to the entries touched this pass.
    uint64_t entries_per_step = std::max<uint64_t>(
        1, op_.window_entries / std::max<uint64_t>(1, total_steps_));
    ctx.ChargeGlobal(entries_per_step * 3, /*coalesced=*/true);  // key+val+dst
    ctx.ChargeCompute(entries_per_step);
    --steps_left_;
    return steps_left_ > 0;
  }

  uint64_t EstimateRemaining() const override { return steps_left_; }

  std::unique_ptr<WarpTask> StealHalf() override {
    // A segment merge is a cooperative sequential pass; not splittable.
    return nullptr;
  }

 private:
  SegmentOp op_;
  uint64_t steps_left_;
  uint64_t total_steps_ = std::max<uint64_t>(steps_left_, 1);
};

/// Prices an array resize (grow/shrink): every entry moves once,
/// device-wide, fully coalesced.
class ResizeTask : public WarpTask {
 public:
  explicit ResizeTask(uint64_t entries) : remaining_(entries) {}

  bool Step(WarpContext& ctx) override {
    if (remaining_ == 0) return false;
    uint64_t chunk = std::min<uint64_t>(remaining_, 1024);
    ctx.ChargeGlobal(chunk * 2 * 3, /*coalesced=*/true);  // read + write
    ctx.ChargeCompute(chunk);
    remaining_ -= chunk;
    return remaining_ > 0;
  }

  uint64_t EstimateRemaining() const override { return remaining_ / 1024; }

  std::unique_ptr<WarpTask> StealHalf() override {
    if (remaining_ < 2048) return nullptr;
    uint64_t half = remaining_ / 2;
    remaining_ -= half;
    return std::make_unique<ResizeTask>(half);
  }

 private:
  uint64_t remaining_;
};

}  // namespace

uint32_t ResolveCachedLayers(const GpmaKernelOptions& options,
                             uint32_t tree_height) {
  if (options.cached_layers != GpmaKernelOptions::kAutoCachedLayers) {
    return std::min(options.cached_layers, tree_height);
  }
  // The implicit tree's top L layers are nodes [1, 2^L), a dense prefix
  // of 2^L - 1 eight-byte words — stage the deepest prefix that fits.
  uint32_t layers = 0;
  while (layers < tree_height &&
         ((size_t{1} << (layers + 1)) - 1) * sizeof(uint64_t) <=
             options.index_cache_bytes) {
    ++layers;
  }
  return layers;
}

DeviceStats SimulateGpmaUpdate(Device& device, const UpdatePlan& plan,
                               const GpmaKernelOptions& options) {
  const uint32_t cached = ResolveCachedLayers(options, plan.tree_height);
  // Task order: the locate chunks, then one task per segment op, then the
  // resize and size-class realloc moves.  Locate work is spread across
  // warps in 256-search chunks so the device's parallelism is exercised
  // the way GPMA assigns one thread per update.
  constexpr uint64_t kLocateChunk = 256;
  const size_t locates = static_cast<size_t>(
      (plan.locate_searches + kLocateChunk - 1) / kLocateChunk);
  const size_t segments = locates + plan.ops.size();
  // Size-class reallocations are straight coalesced copies of the
  // segment's live prefix — same traffic shape as a resize move.
  std::vector<uint64_t> moves;
  if (plan.resized_entries > 0) moves.push_back(plan.resized_entries);
  if (plan.class_realloc_entries > 0) {
    moves.push_back(plan.class_realloc_entries);
  }
  return device.Launch(
      segments + moves.size(), [&](size_t i) -> std::unique_ptr<WarpTask> {
        if (i < locates) {
          const uint64_t first = i * kLocateChunk;
          const uint64_t chunk =
              std::min(plan.locate_searches - first, kLocateChunk);
          return std::make_unique<LocateTask>(chunk, plan.tree_height,
                                              cached);
        }
        if (i < segments) {
          return std::make_unique<SegmentTask>(
              plan.ops[i - locates], options.use_cooperative_groups);
        }
        return std::make_unique<ResizeTask>(moves[i - segments]);
      });
}

}  // namespace bdsm
