#include "gpusim/device.hpp"

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
  DeviceStats total;
  if (n == 0) return total;

  // One wave of resident blocks; grids larger than the device are folded
  // into the per-block queues (persistent-thread style), which is how the
  // makespan accounts for multi-wave grids too.
  const uint64_t warps_needed =
      (n + cfg_.warps_per_block - 1) / cfg_.warps_per_block;
  const uint32_t num_blocks = static_cast<uint32_t>(
      std::min<uint64_t>(cfg_.num_sms, warps_needed));

  std::vector<BlockResult> results(num_blocks);
  std::atomic<uint32_t> next_block{0};
  Timer launch_timer;
  auto worker = [&]() {
    while (true) {
      uint32_t b = next_block.fetch_add(1);
      if (b >= num_blocks) return;
      // Static grid-stride assignment keeps every block's queue — and
      // hence the whole simulation — deterministic under host-thread
      // parallelism.  The queue is built here, on the thread that runs
      // and frees it.
      std::vector<std::unique_ptr<WarpTask>> queue;
      queue.reserve((n - b + num_blocks - 1) / num_blocks);
      for (size_t i = b; i < n; i += num_blocks) queue.push_back(make(i));
      BlockScheduler sched(cfg_, b, &allocator_, std::move(queue),
                           &launch_timer);
      results[b] = sched.Run();
    }
  };

  uint32_t nthreads = std::min<uint32_t>(host_threads_, num_blocks);
  if (nthreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (uint32_t t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  for (const BlockResult& r : results) {
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
  // Warp lifetime is uniform across the launch: every warp of every
  // resident block lives until the last block finishes.
  total.total_warp_ticks =
      total.makespan_ticks * cfg_.warps_per_block * num_blocks;
  total.peak_device_bytes = allocator_.peak_bytes();
  return total;
}

}  // namespace bdsm
