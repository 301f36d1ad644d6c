#include "gpusim/device.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/timer.hpp"

namespace bdsm {

Device::Device(DeviceConfig cfg, uint32_t host_threads)
    : cfg_(cfg), allocator_(cfg.global_mem_bytes) {
  host_threads_ = host_threads != 0
                      ? host_threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

DeviceStats Device::Launch(std::vector<std::unique_ptr<WarpTask>> tasks) {
  return Launch(tasks.size(), [&](size_t i) { return std::move(tasks[i]); });
}

DeviceStats Device::Launch(size_t n, const TaskFactory& make) {
  return Launch({Grid{n, make}})[0];
}

std::vector<DeviceStats> Device::Launch(const std::vector<Grid>& grids) {
  // One grid's blocks and their results.
  struct GridRun {
    uint32_t num_blocks = 0;
    std::vector<BlockResult> results;
  };

  // Claim c is block c - first_claim[g] of the grid g whose range holds
  // it: grid-major, block by block.
  std::vector<GridRun> runs(grids.size());
  std::vector<size_t> first_claim(grids.size() + 1, 0);
  for (size_t g = 0; g < grids.size(); ++g) {
    // One wave of resident blocks; grids larger than the device are
    // folded into the per-block queues (persistent-thread style), which
    // is how the makespan accounts for multi-wave grids too.
    const uint64_t warps_needed =
        (grids[g].n + cfg_.warps_per_block - 1) / cfg_.warps_per_block;
    runs[g].num_blocks = static_cast<uint32_t>(
        std::min<uint64_t>(cfg_.num_sms, warps_needed));
    runs[g].results.resize(runs[g].num_blocks);
    first_claim[g + 1] = first_claim[g] + runs[g].num_blocks;
  }
  const size_t num_claims = first_claim.back();

  std::atomic<size_t> next_claim{0};
  Timer region_clock;
  auto worker = [&]() {
    while (true) {
      const size_t c = next_claim.fetch_add(1);
      if (c >= num_claims) return;
      const size_t g = static_cast<size_t>(
          std::upper_bound(first_claim.begin(), first_claim.end(), c) -
          first_claim.begin() - 1);
      const Grid& grid = grids[g];
      GridRun& run = runs[g];
      const uint32_t b = static_cast<uint32_t>(c - first_claim[g]);
      // Static grid-stride assignment keeps every block's queue — and
      // hence the whole simulation — deterministic under host-thread
      // parallelism.  The queue is built here, on the thread that runs
      // and frees it.
      std::vector<std::unique_ptr<WarpTask>> queue;
      queue.reserve((grid.n - b + run.num_blocks - 1) / run.num_blocks);
      for (size_t i = b; i < grid.n; i += run.num_blocks) {
        queue.push_back(grid.make(i));
      }
      BlockScheduler sched(cfg_, b, &allocator_, std::move(queue),
                           &region_clock);
      run.results[b] = sched.Run();
    }
  };

  // The calling thread is one of the workers.  jthreads join on every
  // exit, so the helpers finish before the state they share unwinds
  // even if the caller's own share throws.
  const size_t nthreads = std::min<size_t>(host_threads_, num_claims);
  {
    std::vector<std::jthread> helpers;
    for (size_t t = 1; t < nthreads; ++t) helpers.emplace_back(worker);
    worker();
  }

  std::vector<DeviceStats> stats(grids.size());
  for (size_t g = 0; g < grids.size(); ++g) {
    const GridRun& run = runs[g];
    if (run.num_blocks == 0) continue;
    DeviceStats& total = stats[g];
    for (const BlockResult& r : run.results) {
      total.timed_out = total.timed_out || r.timed_out;
      total.makespan_ticks = std::max(total.makespan_ticks, r.makespan_ticks);
      total.total_busy_ticks += r.busy_ticks;
      total.steal_events += r.steal_events;
      total.tasks_executed += r.tasks_executed;
      total.global_transactions += r.mem.global_transactions;
      total.coalesced_words += r.mem.coalesced_words;
      total.uncoalesced_words += r.mem.uncoalesced_words;
      total.shared_accesses += r.mem.shared_accesses;
      total.compute_steps += r.mem.compute_steps;
      total.transfer_bytes += r.mem.transfer_bytes;
      total.transfer_ticks += r.mem.transfer_ticks;
    }
    // Warp lifetime is uniform across the grid: every warp of every
    // resident block lives until the grid's last block finishes.
    total.total_warp_ticks =
        total.makespan_ticks * cfg_.warps_per_block * run.num_blocks;
    total.peak_device_bytes = allocator_.peak_bytes();
  }
  return stats;
}

}  // namespace bdsm
