/// \file device.hpp
/// The simulated GPU: grid-level task distribution over blocks/SMs.
///
/// A grid is `n` warp tasks (for GAMMA: one per updated edge), statically
/// grid-strided over blocks: block `b` runs tasks `b, b + num_blocks, ...`
/// in that order.  Every block executes to completion (blocks are
/// independent, so host threads may run them in parallel without affecting
/// the simulated result), and the kernel makespan is the maximum block
/// finish time — all resident blocks start together, which models a grid
/// that fits the device in one wave.
///
/// Host regions.  One Launch call simulates any number of independent
/// grids in one host parallel region and returns one DeviceStats per
/// grid.  Each grid keeps its own block count, grid-stride queues, block
/// results and stats reduction, so a grid's stats are equal to launching
/// it alone; the grids share only the host threads.  The calling thread
/// is one of the `host_threads` workers.
///
/// Claim order.  Workers claim blocks from one counter, grid-major:
/// every block of grid 0, then of grid 1, and so on.  Claim order never
/// affects stats.
///
/// Launches are thread-affine: each task is built on the host thread that
/// simulates its block, and that thread also runs and destroys it (and
/// every piece StealHalf splits off it).  Task memory therefore never
/// crosses host threads, so the workers do not contend on one allocator
/// arena.  The factory contract:
/// * `make(i)` is called exactly once for every index `i < n`;
/// * calls for different blocks (of the same or different grids) run
///   concurrently on different threads, so `make` may only read shared
///   state (each index may write its own preallocated output slot);
/// * it returns a non-null task.
///
/// With a positive `DeviceConfig::host_budget_seconds`, the budget is
/// per Launch call: one clock, started before the first task is built,
/// runs for the whole region, and every block of every grid abandons its
/// remaining work once it passes the budget.  So with a budget a grid's
/// `timed_out` (and what it got done) also depends on the grids it shares
/// the region with; without one, nothing does.
///
/// `DeviceStats::peak_device_bytes` is the device allocator's high-water
/// mark, which all grids of the device share.
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

  /// One independent grid of a launch.
  struct Grid {
    size_t n = 0;
    TaskFactory make;
  };

  explicit Device(DeviceConfig cfg = {}, uint32_t host_threads = 0);

  const DeviceConfig& config() const { return cfg_; }
  DeviceAllocator& allocator() { return allocator_; }

  /// Executes every grid in one host region and returns each grid's
  /// statistics, in order.  Without a host budget, deterministic for a
  /// given (cfg, grid) no matter the host threads or the other grids.
  std::vector<DeviceStats> Launch(const std::vector<Grid>& grids);

  /// One grid of tasks `make(0) .. make(n - 1)`.
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
