#include "gpusim/block.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace bdsm {

namespace {
/// A task with fewer remaining units than this is not worth the shared
/// memory round-trips of a steal.
constexpr uint64_t kMinStealRemaining = 2;
/// Passive stealing: a busy warp polls the idle board every this many
/// steps (the paper's "periodically scan the array").
constexpr uint64_t kPassivePollInterval = 16;
}  // namespace

BlockScheduler::BlockScheduler(const DeviceConfig& cfg, uint32_t block_id,
                               DeviceAllocator* allocator,
                               std::vector<std::unique_ptr<WarpTask>> tasks,
                               const Timer* launch_timer)
    : cfg_(cfg),
      block_id_(block_id),
      allocator_(allocator),
      launch_timer_(launch_timer),
      shared_(cfg.shared_mem_bytes),
      queue_(std::move(tasks)) {
  warps_.resize(cfg_.warps_per_block);
  for (uint32_t w = 0; w < cfg_.warps_per_block; ++w) {
    warps_[w].ctx = std::make_unique<WarpContext>(cfg_, &shared_, allocator_,
                                                  block_id_, w);
  }
}

void BlockScheduler::Assign(WarpSlot* slot, std::unique_ptr<WarpTask> task) {
  slot->task = std::move(task);
  Refresh(slot);
}

void BlockScheduler::Refresh(WarpSlot* slot) {
  slot->rem = slot->task ? slot->task->EstimateRemaining() : 0;
}

bool BlockScheduler::PopTask(WarpSlot* slot) {
  if (queue_head_ == queue_.size()) return false;
  Assign(slot, std::move(queue_[queue_head_++]));
  return true;
}

bool BlockScheduler::TrySteal(uint32_t thief) {
  // Scan the board: one shared-memory read per sibling warp's (csize, p)
  // summary, as in the paper's layer-by-layer inspection.
  WarpSlot& ts = warps_[thief];
  ts.ctx->ChargeShared(2 * cfg_.warps_per_block);
  ts.clock += ts.ctx->DrainTicks();

  uint32_t victim = cfg_.warps_per_block;
  uint64_t best = kMinStealRemaining - 1;
  for (uint32_t w = 0; w < cfg_.warps_per_block; ++w) {
    if (w == thief || !warps_[w].task) continue;
    if (warps_[w].rem > best) {
      best = warps_[w].rem;
      victim = w;
    }
  }
  if (victim == cfg_.warps_per_block) return false;

  WarpSlot& vs = warps_[victim];
  std::unique_ptr<WarpTask> stolen = vs.task->StealHalf();
  Refresh(&vs);
  if (!stolen) return false;
  // Causality: the thief observed the victim's board state, so it cannot
  // be ahead of the victim when it starts on the stolen work.
  ts.clock = std::max(ts.clock, vs.clock);
  Assign(&ts, std::move(stolen));
  ++steal_events_;
  return true;
}

void BlockScheduler::TryDonate(uint32_t donor) {
  WarpSlot& ds = warps_[donor];
  if (!ds.task || ds.rem < kMinStealRemaining) return;
  // Scan the idle-flag array (paper: "periodically, warps with unfinished
  // workloads scan the array to find an idle warp").
  ds.ctx->ChargeShared(cfg_.warps_per_block);
  ds.clock += ds.ctx->DrainTicks();
  for (uint32_t w = 0; w < cfg_.warps_per_block; ++w) {
    if (w == donor || warps_[w].task) continue;
    std::unique_ptr<WarpTask> half = ds.task->StealHalf();
    Refresh(&ds);
    if (!half) return;
    Assign(&warps_[w], std::move(half));
    warps_[w].clock = std::max(warps_[w].clock, ds.clock);
    ++steal_events_;
    return;
  }
}

BlockResult BlockScheduler::Run() {
  // Initial assignment: warp w takes the w-th queued task.
  for (auto& slot : warps_) {
    if (!PopTask(&slot)) break;
  }

  Timer local_timer;
  const Timer* clock = launch_timer_ ? launch_timer_ : &local_timer;
  uint64_t steps_since_check = 0;
  bool timed_out = false;
  while (true) {
    if (cfg_.host_budget_seconds > 0 && ++steps_since_check >= 2048) {
      steps_since_check = 0;
      if (clock->ElapsedSeconds() > cfg_.host_budget_seconds) {
        timed_out = true;
        break;  // abandon remaining work
      }
    }
    // Refill idle warps from the queue, then (active policy) the board.
    for (uint32_t w = 0; w < cfg_.warps_per_block; ++w) {
      if (warps_[w].task) continue;
      if (PopTask(&warps_[w])) continue;
      if (cfg_.steal_policy == StealPolicy::kActive) TrySteal(w);
    }

    // Pick the runnable warp with the smallest local clock.
    uint32_t next = cfg_.warps_per_block;
    for (uint32_t w = 0; w < cfg_.warps_per_block; ++w) {
      if (!warps_[w].task) continue;
      if (next == cfg_.warps_per_block ||
          warps_[w].clock < warps_[next].clock) {
        next = w;
      }
    }
    if (next == cfg_.warps_per_block) break;  // all done

    // One Step per scheduling decision (a quantum of one step).
    WarpSlot& slot = warps_[next];
    const bool more = slot.task->Step(*slot.ctx);
    uint64_t t = slot.ctx->DrainTicks();
    if (t == 0) t = cfg_.ticks_per_compute_step;  // a step costs >= 1
    slot.clock += t;
    slot.busy += t;
    ++slot.steps_since_poll;
    if (!more) {
      slot.task.reset();
      ++tasks_executed_;
    }
    Refresh(&slot);

    if (cfg_.steal_policy == StealPolicy::kPassive && slot.task &&
        slot.steps_since_poll >= kPassivePollInterval) {
      slot.steps_since_poll = 0;
      TryDonate(next);
    }
  }

  BlockResult res;
  for (const auto& slot : warps_) {
    res.makespan_ticks = std::max(res.makespan_ticks, slot.clock);
    res.busy_ticks += slot.busy;
  }
  res.warp_lifetime = res.makespan_ticks * cfg_.warps_per_block;
  res.steal_events = steal_events_;
  res.tasks_executed = tasks_executed_;
  res.timed_out = timed_out;
  for (const auto& slot : warps_) {
    res.mem.global_transactions += slot.ctx->global_transactions();
    res.mem.coalesced_words += slot.ctx->coalesced_words();
    res.mem.uncoalesced_words += slot.ctx->uncoalesced_words();
    res.mem.shared_accesses += slot.ctx->shared_accesses();
    res.mem.compute_steps += slot.ctx->compute_steps();
    res.mem.transfer_bytes += slot.ctx->transfer_bytes();
    res.mem.transfer_ticks += slot.ctx->transfer_ticks();
  }
  return res;
}

}  // namespace bdsm
