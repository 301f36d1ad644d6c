/// \file gpma_kernel.hpp
/// Simulated device kernel for GPMA batch updates.
///
/// The host-side Gpma::ApplyBatch does the data-structure work and emits
/// an UpdatePlan; this module turns that plan into warp tasks so the
/// Device can price the update the way the paper's GPU executes it:
/// * one warp task per updated segment group (warp strategy), with the
///   cooperative-group subdivision of §V-C for sub-warp segments;
/// * block/device strategies for larger rebalance windows;
/// * per-update binary "locate" searches whose top `cached_layers` tree
///   layers hit shared memory instead of global (§V-C optimization).
#pragma once

#include "gpma/update_plan.hpp"
#include "gpusim/device.hpp"

namespace bdsm {

struct GpmaKernelOptions {
  /// cached_layers value meaning "derive from the shared-memory budget":
  /// the implicit segment tree stores its top L layers as a dense array
  /// prefix of 2^L - 1 words, so the kernel stages the deepest prefix
  /// that fits index_cache_bytes.
  static constexpr uint32_t kAutoCachedLayers = ~0u;

  bool use_cooperative_groups = true;
  /// Top PMA-tree layers cached in block shared memory for the locate
  /// step (0 disables the optimization; kAutoCachedLayers — the default
  /// — sizes the cache to the budget below).
  uint32_t cached_layers = kAutoCachedLayers;
  /// Per-block shared-memory budget for the staged index prefix when
  /// cached_layers is auto (conservative half of a 32 KiB carve-out,
  /// leaving room for the segment-merge staging buffers).
  size_t index_cache_bytes = 16 * 1024;
};

/// Layers the locate step will actually serve from shared memory for a
/// tree of `tree_height` layers under `options` (resolves the auto
/// sentinel against the budget).
uint32_t ResolveCachedLayers(const GpmaKernelOptions& options,
                             uint32_t tree_height);

/// Launches the warp tasks pricing `plan` on `device` and returns stats.
DeviceStats SimulateGpmaUpdate(Device& device, const UpdatePlan& plan,
                               const GpmaKernelOptions& options = {});

}  // namespace bdsm
