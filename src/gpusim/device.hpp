/// \file device.hpp
/// The simulated GPU: grid-level task distribution over blocks/SMs.
///
/// A launch is `n` warp tasks (for GAMMA: one per updated edge), statically
/// grid-strided over blocks: block `b` runs tasks `b, b + num_blocks, ...`
/// in that order.  Every block executes to completion (blocks are
/// independent, so host threads may run them in parallel without affecting
/// the simulated result), and the kernel makespan is the maximum block
/// finish time — all resident blocks start together, which models a grid
/// that fits the device in one wave.
///
/// Launches are thread-affine: the factory form builds each task on the
/// host thread that simulates its block, and that thread also runs and
/// destroys it (and every piece StealHalf splits off it).  Task memory
/// therefore never crosses host threads, so the workers do not contend
/// on the allocator arena of the thread that launched the kernel.  The
/// factory contract:
/// * `make(i)` is called exactly once for every index `i < n`;
/// * calls for different blocks run concurrently on different threads,
///   so `make` may only read shared state (each index may write its own
///   preallocated output slot);
/// * it returns a non-null task.
///
/// With a positive `DeviceConfig::host_budget_seconds`, the budget clock
/// starts before the first task is built, so it includes task
/// construction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpusim/block.hpp"
#include "gpusim/device_allocator.hpp"
#include "gpusim/device_config.hpp"
#include "gpusim/warp_task.hpp"

namespace bdsm {

class Device {
 public:
  /// Builds the task at one launch index; see the factory contract above.
  using TaskFactory = std::function<std::unique_ptr<WarpTask>(size_t)>;

  explicit Device(DeviceConfig cfg = {}, uint32_t host_threads = 0);

  const DeviceConfig& config() const { return cfg_; }
  DeviceAllocator& allocator() { return allocator_; }

  /// Executes tasks `make(0) .. make(n - 1)` as one kernel launch and
  /// returns its statistics.  Deterministic for a given (cfg, tasks)
  /// regardless of host threads.
  DeviceStats Launch(size_t n, const TaskFactory& make);

  /// The same launch over tasks already built by the caller (which the
  /// host threads then free).
  DeviceStats Launch(std::vector<std::unique_ptr<WarpTask>> tasks);

 private:
  DeviceConfig cfg_;
  DeviceAllocator allocator_;
  uint32_t host_threads_;
};

}  // namespace bdsm
