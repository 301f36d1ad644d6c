/// \file block.hpp
/// Block scheduler: discrete-event execution of one block's warps.
///
/// Each warp owns a local clock (ticks).  The scheduler always advances
/// the warp with the smallest clock — a standard discrete-event core that
/// models warps progressing concurrently at the rates their memory/ALU
/// charges dictate.  Work stealing (paper §V-A) happens here: the board
/// that hardware keeps in shared memory is the sibling warps' advertised
/// `EstimateRemaining()`, and scans of it are billed as shared-memory
/// traffic.  The scheduler keeps that board as a cached value per warp,
/// refreshed whenever the warp's task changes (pop, step, steal, donate),
/// so a scan reads plain integers instead of calling into every task.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device_allocator.hpp"
#include "gpusim/device_config.hpp"
#include "gpusim/shared_memory.hpp"
#include "gpusim/warp_task.hpp"

namespace bdsm {

/// Result of one block's execution.
struct BlockResult {
  uint64_t makespan_ticks = 0;
  uint64_t busy_ticks = 0;       ///< sum over warps
  uint64_t warp_lifetime = 0;    ///< warps_per_block * makespan
  uint64_t steal_events = 0;
  uint64_t tasks_executed = 0;
  bool timed_out = false;        ///< abandoned work on budget expiry
  DeviceStats mem;               ///< memory-side counters only
};

class BlockScheduler {
 public:
  /// `tasks` is this block's statically assigned queue (grid-stride
  /// assignment happens in Device).
  /// `launch_timer` (optional) is the wall clock shared by every block of
  /// the Launch call's host region, all its grids included; with a
  /// positive cfg.host_budget_seconds, the block abandons its remaining
  /// work once that clock passes the budget.
  BlockScheduler(const DeviceConfig& cfg, uint32_t block_id,
                 DeviceAllocator* allocator,
                 std::vector<std::unique_ptr<WarpTask>> tasks,
                 const class Timer* launch_timer = nullptr);

  /// Runs the block to completion.  Deterministic for a given task list.
  BlockResult Run();

 private:
  struct WarpSlot {
    std::unique_ptr<WarpTask> task;
    uint64_t clock = 0;       ///< local time in ticks
    uint64_t busy = 0;        ///< ticks spent executing Step()
    uint64_t steps_since_poll = 0;
    uint64_t rem = 0;         ///< task's EstimateRemaining(); 0 when idle
    std::unique_ptr<WarpContext> ctx;
  };

  // Pops the next queued task into `slot`; returns false if queue empty.
  bool PopTask(WarpSlot* slot);
  // Installs `task` (possibly null) in `slot` and refreshes its board
  // entry.
  static void Assign(WarpSlot* slot, std::unique_ptr<WarpTask> task);
  // Refreshes `slot`'s board entry after its task changed in place.
  static void Refresh(WarpSlot* slot);
  // Active stealing: `thief` pulls half the heaviest sibling's work.
  bool TrySteal(uint32_t thief);
  // Passive stealing: busy warp `donor` pushes half its work to an idle
  // sibling, if one is advertised on the board.
  void TryDonate(uint32_t donor);

  const DeviceConfig& cfg_;
  uint32_t block_id_;
  DeviceAllocator* allocator_;
  const class Timer* launch_timer_;
  SharedMemory shared_;
  std::vector<std::unique_ptr<WarpTask>> queue_;
  size_t queue_head_ = 0;   ///< next task to pop from queue_
  std::vector<WarpSlot> warps_;
  uint64_t steal_events_ = 0;
  uint64_t tasks_executed_ = 0;
};

}  // namespace bdsm
