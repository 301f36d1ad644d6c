/// \file device_config.hpp
/// Configuration and statistics of the simulated GPU.
///
/// This repository reproduces a GPU paper on a machine without a GPU
/// (docs/ARCHITECTURE.md): the device below is a deterministic
/// discrete-event
/// model of the execution hierarchy GAMMA's kernels are written against —
/// SMs hosting blocks of warps, 32 SIMT lanes per warp, per-block shared
/// memory, transaction-based global memory with coalescing.  Time is
/// counted in *ticks*; kernels charge ticks through WarpContext for the
/// compute and memory work they do, and the block scheduler derives the
/// kernel makespan and per-warp utilization from those charges.
///
/// Defaults approximate the paper's RTX 3090 (83 SMs, 24 GB) scaled to
/// the synthetic datasets' size.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bdsm {

/// Work-stealing policy of §V-A.  kNone disables balancing (the "w/o ws"
/// ablation); kPassive has busy warps push work to idle ones; kActive has
/// idle warps pull half of the heaviest sibling's remaining work.
enum class StealPolicy { kNone, kPassive, kActive };

struct DeviceConfig {
  /// Streaming multiprocessors; one resident block each per wave.
  uint32_t num_sms = 83;
  /// Warps per block (the paper's |W|; shared memory is per block).
  uint32_t warps_per_block = 8;
  /// SIMT width.  Fixed at 32 in CUDA; configurable for tests.
  uint32_t lanes_per_warp = 32;
  /// Per-block shared memory budget in bytes.
  size_t shared_mem_bytes = 48 * 1024;
  /// Device (global) memory capacity in bytes.  Intentionally small by
  /// default relative to a real 3090 because the datasets are scaled;
  /// Fig. 5 lowers it further to provoke BFS spilling.
  size_t global_mem_bytes = 64ull << 20;

  /// --- Cost model (ticks) ---
  /// One global-memory transaction (a 128-byte coalesced segment).
  uint32_t ticks_per_global_transaction = 8;
  /// One shared-memory access (per warp, conflict-free).
  uint32_t ticks_per_shared_access = 1;
  /// One warp-wide ALU step (32 lanes in lockstep).
  uint32_t ticks_per_compute_step = 1;
  /// Host<->device transfer cost per 1 KiB (PCIe; dominates when BFS
  /// spills intermediate frontiers, paper Fig. 5(b)).
  uint32_t ticks_per_kib_transfer = 300;
  /// Modeled clock for converting ticks to seconds in reports (GHz).
  double clock_ghz = 1.4;

  StealPolicy steal_policy = StealPolicy::kActive;

  /// Host wall-clock budget for one Launch call, i.e. one host region
  /// with all its grids (0 = unlimited).  The simulator analogue of the
  /// paper's 30-minute query timeout: blocks abandon their remaining
  /// work once the budget expires and their grids report timed_out.
  double host_budget_seconds = 0.0;

  double TickSeconds() const { return 1e-9 / clock_ghz; }
};

/// Aggregated execution statistics of one kernel launch.
struct DeviceStats {
  uint64_t makespan_ticks = 0;      ///< max block finish time (parallel)
  uint64_t total_busy_ticks = 0;    ///< sum over warps of busy ticks
  uint64_t total_warp_ticks = 0;    ///< sum over warps of lifetime ticks
  uint64_t global_transactions = 0; ///< global memory transactions issued
  uint64_t coalesced_words = 0;     ///< words moved in coalesced reads
  uint64_t uncoalesced_words = 0;   ///< words moved in divergent reads
  uint64_t shared_accesses = 0;     ///< shared memory accesses
  uint64_t compute_steps = 0;       ///< warp-wide ALU steps
  uint64_t steal_events = 0;        ///< successful work-steal transfers
  uint64_t tasks_executed = 0;      ///< warp tasks completed
  uint64_t transfer_bytes = 0;      ///< host<->device spill traffic
  uint64_t transfer_ticks = 0;      ///< ticks spent on that traffic
  size_t peak_device_bytes = 0;     ///< device allocator high-water mark
  bool timed_out = false;           ///< host budget expired mid-launch

  /// Field-wise equality; the persistence tests assert warm-restored
  /// engines reproduce even the modeled device stats bit for bit.
  friend bool operator==(const DeviceStats&, const DeviceStats&) = default;

  /// Fraction of warp lifetime spent doing useful work (Fig. 13 metric).
  double Utilization() const {
    return total_warp_ticks == 0
               ? 0.0
               : static_cast<double>(total_busy_ticks) /
                     static_cast<double>(total_warp_ticks);
  }

  /// Combines stats of two kernel launches that ran one after the other
  /// (makespans add).
  void MergeSequential(const DeviceStats& o) {
    uint64_t summed = makespan_ticks + o.makespan_ticks;
    Merge(o);
    makespan_ticks = summed;
  }

  void Merge(const DeviceStats& o) {
    makespan_ticks = makespan_ticks > o.makespan_ticks ? makespan_ticks
                                                       : o.makespan_ticks;
    total_busy_ticks += o.total_busy_ticks;
    total_warp_ticks += o.total_warp_ticks;
    global_transactions += o.global_transactions;
    coalesced_words += o.coalesced_words;
    uncoalesced_words += o.uncoalesced_words;
    shared_accesses += o.shared_accesses;
    compute_steps += o.compute_steps;
    steal_events += o.steal_events;
    tasks_executed += o.tasks_executed;
    transfer_bytes += o.transfer_bytes;
    transfer_ticks += o.transfer_ticks;
    peak_device_bytes = peak_device_bytes > o.peak_device_bytes
                            ? peak_device_bytes
                            : o.peak_device_bytes;
    timed_out = timed_out || o.timed_out;
  }
};

}  // namespace bdsm
