/// Tests for the SIMT device simulator: charging/cost model, allocator
/// spill accounting, block scheduling determinism (across runs, host
/// thread counts, launch forms and grids launched together), the host
/// budget shared by a launch's grids, thread-affine task lifetimes, work
/// stealing (active + passive) semantics and utilization effects.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/coop_groups.hpp"
#include "gpusim/device.hpp"

namespace bdsm {
namespace {

/// A splittable task that burns `units` steps, each charging `cost_words`
/// of global memory traffic.  Mirrors the shape of WBM's DFS work.
class BurnTask : public WarpTask {
 public:
  BurnTask(uint64_t units, uint64_t cost_words, std::atomic<uint64_t>* done)
      : units_(units), cost_words_(cost_words), done_(done) {}

  bool Step(WarpContext& ctx) override {
    if (units_ == 0) return false;
    ctx.ChargeGlobal(cost_words_, /*coalesced=*/true);
    ctx.ChargeCompute(cost_words_);
    --units_;
    done_->fetch_add(1, std::memory_order_relaxed);
    return units_ > 0;
  }

  uint64_t EstimateRemaining() const override { return units_; }

  std::unique_ptr<WarpTask> StealHalf() override {
    if (units_ < 2) return nullptr;
    uint64_t half = units_ / 2;
    units_ -= half;
    return std::make_unique<BurnTask>(half, cost_words_, done_);
  }

 private:
  uint64_t units_;
  uint64_t cost_words_;
  std::atomic<uint64_t>* done_;
};

DeviceConfig SmallConfig(StealPolicy policy) {
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 4;
  cfg.steal_policy = policy;
  return cfg;
}

TEST(WarpContextTest, ComputeChargesSimtSteps) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext ctx(cfg, &shm, &alloc, 0, 0);
  ctx.ChargeCompute(64);  // 64 ops over 32 lanes = 2 steps
  EXPECT_EQ(ctx.compute_steps(), 2u);
  EXPECT_EQ(ctx.DrainTicks(), 2u * cfg.ticks_per_compute_step);
  EXPECT_EQ(ctx.DrainTicks(), 0u) << "drain must reset";
}

TEST(WarpContextTest, CoalescingMatters) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext a(cfg, &shm, &alloc, 0, 0);
  WarpContext b(cfg, &shm, &alloc, 0, 1);
  a.ChargeGlobal(128, true);
  b.ChargeGlobal(128, false);
  EXPECT_EQ(a.global_transactions(), 4u);    // 128/32
  EXPECT_EQ(b.global_transactions(), 128u);  // one per word
  EXPECT_EQ(a.DrainTicks() * 32, b.DrainTicks());
}

TEST(WarpContextTest, TransferBilledPerKiB) {
  DeviceConfig cfg;
  SharedMemory shm(1024);
  DeviceAllocator alloc(1 << 20);
  WarpContext ctx(cfg, &shm, &alloc, 0, 0);
  ctx.ChargeTransfer(4096);
  EXPECT_EQ(ctx.transfer_bytes(), 4096u);
  EXPECT_EQ(ctx.transfer_ticks(), 4u * cfg.ticks_per_kib_transfer);
}

TEST(SharedMemoryTest, AllocAndBudget) {
  SharedMemory shm(256);
  uint32_t* a = shm.Alloc<uint32_t>(16);
  ASSERT_NE(a, nullptr);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], 0u);
  EXPECT_GE(shm.used(), 64u);
  EXPECT_DEATH(shm.Alloc<uint64_t>(1000), "shared memory budget");
  shm.Reset();
  EXPECT_EQ(shm.used(), 0u);
}

TEST(DeviceAllocatorTest, SpillAccounting) {
  DeviceAllocator alloc(1000);
  EXPECT_EQ(alloc.Alloc(600), 0u);
  EXPECT_EQ(alloc.Alloc(600), 200u);  // 200 bytes over capacity
  EXPECT_EQ(alloc.live_bytes(), 1200u);
  EXPECT_EQ(alloc.peak_bytes(), 1200u);
  EXPECT_GT(alloc.UsagePercent(), 100.0);
  EXPECT_EQ(alloc.total_spill_traffic(), 400u);  // evict + reload
  alloc.Free(600);
  EXPECT_EQ(alloc.live_bytes(), 600u);
  EXPECT_EQ(alloc.peak_bytes(), 1200u);
}

TEST(DeviceTest, AllWorkExecutes) {
  Device dev(SmallConfig(StealPolicy::kNone));
  std::atomic<uint64_t> done{0};
  std::vector<std::unique_ptr<WarpTask>> tasks;
  uint64_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(std::make_unique<BurnTask>(10 + i, 8, &done));
    expected += 10 + static_cast<uint64_t>(i);
  }
  DeviceStats stats = dev.Launch(std::move(tasks));
  EXPECT_EQ(done.load(), expected);
  EXPECT_EQ(stats.tasks_executed, 20u);
  EXPECT_GT(stats.makespan_ticks, 0u);
  EXPECT_GT(stats.Utilization(), 0.0);
  EXPECT_LE(stats.Utilization(), 1.0);
}

TEST(DeviceTest, DeterministicAcrossRuns) {
  auto run = [] {
    Device dev(SmallConfig(StealPolicy::kActive));
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    for (int i = 0; i < 17; ++i) {
      tasks.push_back(
          std::make_unique<BurnTask>(5 + (i * 7) % 23, 4, &done));
    }
    return dev.Launch(std::move(tasks));
  };
  DeviceStats a = run();
  DeviceStats b = run();
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.total_busy_ticks, b.total_busy_ticks);
  EXPECT_EQ(a.steal_events, b.steal_events);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
}

/// Units of the skewed launch below: a few heavy tasks among light
/// ones, so both stealing policies move work between warps.
uint64_t SkewedUnits(size_t i) { return i % 7 == 0 ? 300 + i : 3 + i % 5; }
constexpr size_t kSkewedTasks = 40;

DeviceConfig SkewedConfig(StealPolicy policy) {
  DeviceConfig cfg = SmallConfig(policy);
  cfg.num_sms = 4;
  return cfg;
}

TEST(DeviceTest, StatsIndependentOfHostThreads) {
  for (StealPolicy policy : {StealPolicy::kActive, StealPolicy::kPassive}) {
    std::vector<DeviceStats> stats;
    for (uint32_t threads : {1u, 2u, 4u}) {
      Device dev(SkewedConfig(policy), threads);
      std::atomic<uint64_t> done{0};
      stats.push_back(dev.Launch(kSkewedTasks, [&](size_t i) {
        return std::make_unique<BurnTask>(SkewedUnits(i), 4, &done);
      }));
    }
    EXPECT_GT(stats[0].steal_events, 0u);
    EXPECT_EQ(stats[0], stats[1]) << "1 vs 2 host threads";
    EXPECT_EQ(stats[0], stats[2]) << "1 vs 4 host threads";
  }
}

// The skewed launch's full schedule, pinned: the steal board's cached
// estimates must steer every steal exactly as rescanning the tasks does.
TEST(DeviceTest, SkewedLaunchSchedulePinned) {
  struct Pinned {
    StealPolicy policy;
    uint64_t makespan, warp_ticks, steals, tasks, shared;
  };
  const Pinned pinned[] = {
      {StealPolicy::kActive, 1543, 24688, 16, 56, 56},
      {StealPolicy::kPassive, 1659, 26544, 31, 71, 121},
  };
  for (const Pinned& p : pinned) {
    Device dev(SkewedConfig(p.policy), 1);
    std::atomic<uint64_t> done{0};
    const DeviceStats s = dev.Launch(kSkewedTasks, [&](size_t i) {
      return std::make_unique<BurnTask>(SkewedUnits(i), 4, &done);
    });
    EXPECT_EQ(s.makespan_ticks, p.makespan);
    EXPECT_EQ(s.total_busy_ticks, 18693u);
    EXPECT_EQ(s.total_warp_ticks, p.warp_ticks);
    EXPECT_EQ(s.steal_events, p.steals);
    EXPECT_EQ(s.tasks_executed, p.tasks);
    EXPECT_EQ(s.global_transactions, 2077u);
    EXPECT_EQ(s.shared_accesses, p.shared);
  }
}

TEST(DeviceTest, VectorLaunchMatchesFactoryLaunch) {
  for (uint32_t threads : {1u, 4u}) {
    std::atomic<uint64_t> done{0};
    Device by_factory(SkewedConfig(StealPolicy::kActive), threads);
    const DeviceStats a = by_factory.Launch(kSkewedTasks, [&](size_t i) {
      return std::make_unique<BurnTask>(SkewedUnits(i), 4, &done);
    });
    Device by_vector(SkewedConfig(StealPolicy::kActive), threads);
    std::vector<std::unique_ptr<WarpTask>> tasks;
    for (size_t i = 0; i < kSkewedTasks; ++i) {
      tasks.push_back(std::make_unique<BurnTask>(SkewedUnits(i), 4, &done));
    }
    const DeviceStats b = by_vector.Launch(std::move(tasks));
    EXPECT_GT(a.steal_events, 0u);
    EXPECT_EQ(a, b) << threads << " host threads";
  }
}

/// Records the host thread that built it and, on destruction, the pair
/// (constructing thread, destroying thread) — for itself and for every
/// clone StealHalf makes.
class AffinityTask : public WarpTask {
 public:
  struct Log {
    std::mutex mu;
    std::vector<std::pair<std::thread::id, std::thread::id>> lifetimes;
  };

  AffinityTask(uint64_t units, Log* log)
      : units_(units), log_(log), built_on_(std::this_thread::get_id()) {}

  ~AffinityTask() override {
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->lifetimes.emplace_back(built_on_, std::this_thread::get_id());
  }

  bool Step(WarpContext& ctx) override {
    ctx.ChargeCompute(32);
    return --units_ > 0;
  }

  uint64_t EstimateRemaining() const override { return units_; }

  std::unique_ptr<WarpTask> StealHalf() override {
    if (units_ < 2) return nullptr;
    const uint64_t half = units_ / 2;
    units_ -= half;
    return std::make_unique<AffinityTask>(half, log_);
  }

 private:
  uint64_t units_;
  Log* log_;
  std::thread::id built_on_;
};

TEST(DeviceTest, TasksLiveAndDieOnTheirBlocksThread) {
  AffinityTask::Log log;
  Device dev(SkewedConfig(StealPolicy::kActive), /*host_threads=*/2);
  const DeviceStats stats = dev.Launch(kSkewedTasks, [&](size_t i) {
    return std::make_unique<AffinityTask>(SkewedUnits(i), &log);
  });
  EXPECT_GT(stats.steal_events, 0u) << "clones must be covered too";
  ASSERT_EQ(log.lifetimes.size(), kSkewedTasks + stats.steal_events);
  for (const auto& [built, destroyed] : log.lifetimes) {
    EXPECT_EQ(built, destroyed);
  }
}

TEST(DeviceTest, ActiveStealingBalancesSkew) {
  // One giant task + many tiny ones in a single block: without stealing
  // the giant task serializes on one warp; with active stealing siblings
  // share it, shrinking the makespan and raising utilization.
  auto run = [](StealPolicy policy) {
    DeviceConfig cfg;
    cfg.num_sms = 1;
    cfg.warps_per_block = 4;
    cfg.steal_policy = policy;
    Device dev(cfg);
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    tasks.push_back(std::make_unique<BurnTask>(4000, 8, &done));
    for (int i = 0; i < 3; ++i) {
      tasks.push_back(std::make_unique<BurnTask>(10, 8, &done));
    }
    DeviceStats s = dev.Launch(std::move(tasks));
    EXPECT_EQ(done.load(), 4000u + 30u);
    return s;
  };
  DeviceStats without = run(StealPolicy::kNone);
  DeviceStats with = run(StealPolicy::kActive);
  EXPECT_EQ(without.steal_events, 0u);
  EXPECT_GT(with.steal_events, 0u);
  EXPECT_LT(with.makespan_ticks, without.makespan_ticks / 2);
  EXPECT_GT(with.Utilization(), without.Utilization());
}

TEST(DeviceTest, PassiveStealingAlsoBalances) {
  auto run = [](StealPolicy policy) {
    DeviceConfig cfg;
    cfg.num_sms = 1;
    cfg.warps_per_block = 4;
    cfg.steal_policy = policy;
    Device dev(cfg);
    std::atomic<uint64_t> done{0};
    std::vector<std::unique_ptr<WarpTask>> tasks;
    tasks.push_back(std::make_unique<BurnTask>(2000, 8, &done));
    tasks.push_back(std::make_unique<BurnTask>(5, 8, &done));
    return dev.Launch(std::move(tasks));
  };
  DeviceStats passive = run(StealPolicy::kPassive);
  DeviceStats none = run(StealPolicy::kNone);
  EXPECT_GT(passive.steal_events, 0u);
  EXPECT_LT(passive.makespan_ticks, none.makespan_ticks);
}

TEST(DeviceTest, MoreTasksThanWarpsAllRun) {
  DeviceConfig cfg;
  cfg.num_sms = 2;
  cfg.warps_per_block = 2;
  Device dev(cfg);
  std::atomic<uint64_t> done{0};
  std::vector<std::unique_ptr<WarpTask>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(std::make_unique<BurnTask>(3, 2, &done));
  }
  DeviceStats stats = dev.Launch(std::move(tasks));
  EXPECT_EQ(stats.tasks_executed, 100u);
  EXPECT_EQ(done.load(), 300u);
}

TEST(DeviceTest, EmptyLaunchIsNoop) {
  Device dev(SmallConfig(StealPolicy::kActive));
  DeviceStats stats = dev.Launch(std::vector<std::unique_ptr<WarpTask>>{});
  EXPECT_EQ(stats.makespan_ticks, 0u);
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_TRUE(dev.Launch(std::vector<Device::Grid>{}).empty());
  const std::vector<DeviceStats> empty_grid = dev.Launch({Device::Grid{}});
  ASSERT_EQ(empty_grid.size(), 1u);
  EXPECT_EQ(empty_grid[0], DeviceStats{});
}

/// Three skewed grids of different shapes (and one empty grid) for the
/// multi-grid launch tests: units of grid g's task i.
uint64_t GridUnits(size_t g, size_t i) {
  switch (g) {
    case 0:
      return SkewedUnits(i);
    case 1:
      return i % 5 == 2 ? 250 : 2 + i % 3;
    default:
      return i == 0 ? 600 : 4;
  }
}
constexpr size_t kGridSizes[] = {kSkewedTasks, 23, 0, 9};

std::vector<Device::Grid> SkewedGrids(std::atomic<uint64_t>* done) {
  std::vector<Device::Grid> grids;
  for (size_t g = 0; g < std::size(kGridSizes); ++g) {
    Device::Grid grid;
    grid.n = kGridSizes[g];
    grid.make = [g, done](size_t i) {
      return std::make_unique<BurnTask>(GridUnits(g, i), 4, done);
    };
    grids.push_back(std::move(grid));
  }
  return grids;
}

// Grids launched together in one host region each report exactly the
// stats of that grid launched alone, whatever the host threads and the
// stealing policy.
TEST(DeviceTest, MultiGridLaunchMatchesSeparateLaunches) {
  for (StealPolicy policy : {StealPolicy::kActive, StealPolicy::kPassive}) {
    std::vector<DeviceStats> alone;
    for (size_t g = 0; g < std::size(kGridSizes); ++g) {
      Device dev(SkewedConfig(policy), 1);
      std::atomic<uint64_t> done{0};
      alone.push_back(dev.Launch(kGridSizes[g], [&](size_t i) {
        return std::make_unique<BurnTask>(GridUnits(g, i), 4, &done);
      }));
    }
    EXPECT_GT(alone[0].steal_events, 0u);
    EXPECT_GT(alone[1].steal_events, 0u);
    for (uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << ", "
                   << threads << " host threads");
      Device dev(SkewedConfig(policy), threads);
      std::atomic<uint64_t> done{0};
      const std::vector<DeviceStats> together = dev.Launch(SkewedGrids(&done));
      ASSERT_EQ(together.size(), alone.size());
      for (size_t g = 0; g < alone.size(); ++g) {
        EXPECT_EQ(together[g], alone[g]) << "grid " << g;
      }
    }
  }
}

/// A BurnTask whose first step sleeps for `nap` of host wall time.
class NapTask final : public BurnTask {
 public:
  NapTask(uint64_t units, std::chrono::milliseconds nap,
          std::atomic<uint64_t>* done)
      : BurnTask(units, 1, done), nap_(nap) {}

  bool Step(WarpContext& ctx) override {
    std::this_thread::sleep_for(nap_);
    nap_ = {};
    return BurnTask::Step(ctx);
  }

 private:
  std::chrono::milliseconds nap_;
};

// The host budget is one clock per Launch call, shared by all its grids.
// At one host thread the caller runs grid 0, then grid 1 (claims are
// grid-major).  Grid 0 naps past the budget; grid 1 alone finishes well
// within it, but launched after grid 0 it finds the budget spent at its
// first clock check (every 2048 scheduler steps) and gives up.
TEST(DeviceTest, HostBudgetIsSharedByTheLaunchsGrids) {
  DeviceConfig cfg = SmallConfig(StealPolicy::kNone);
  cfg.num_sms = 1;
  cfg.host_budget_seconds = 0.05;
  constexpr uint64_t kUnits = 4096;  // two clock checks' worth of steps
  std::atomic<uint64_t> done{0};
  const Device::Grid slow{1, [&](size_t) {
                            return std::make_unique<NapTask>(
                                kUnits, std::chrono::milliseconds(100),
                                &done);
                          }};
  const Device::Grid quick{1, [&](size_t) {
                             return std::make_unique<BurnTask>(kUnits, 1,
                                                               &done);
                           }};
  Device dev(cfg, /*host_threads=*/1);
  const DeviceStats alone = dev.Launch({quick})[0];
  EXPECT_FALSE(alone.timed_out);
  EXPECT_EQ(alone.compute_steps, kUnits);

  const std::vector<DeviceStats> together = dev.Launch({slow, quick});
  ASSERT_EQ(together.size(), 2u);
  EXPECT_TRUE(together[0].timed_out);
  EXPECT_TRUE(together[1].timed_out);
  EXPECT_LT(together[1].compute_steps, kUnits);
}

TEST(CoopGroupsTest, PartitionSizes) {
  EXPECT_EQ(PartitionForSegment(1).group_size, 1u);
  EXPECT_EQ(PartitionForSegment(1).num_groups, 32u);
  EXPECT_EQ(PartitionForSegment(9).group_size, 16u);
  EXPECT_EQ(PartitionForSegment(16).group_size, 16u);
  EXPECT_EQ(PartitionForSegment(16).num_groups, 2u);
  EXPECT_EQ(PartitionForSegment(17).group_size, 32u);
  EXPECT_EQ(PartitionForSegment(100).group_size, 32u);
}

TEST(CoopGroupsTest, CgNeverSlowerForSmallSegments) {
  for (uint32_t seg = 1; seg <= 32; ++seg) {
    for (uint64_t n : {1ull, 7ull, 64ull, 1000ull}) {
      EXPECT_LE(SegmentPassSteps(n, seg, true),
                SegmentPassSteps(n, seg, false))
          << "seg=" << seg << " n=" << n;
    }
  }
  // And strictly better in the paper's 16-entry example with many segs.
  EXPECT_LT(SegmentPassSteps(64, 16, true), SegmentPassSteps(64, 16, false));
}

}  // namespace
}  // namespace bdsm
