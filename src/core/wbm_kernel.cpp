#include "core/wbm_kernel.hpp"

#include <algorithm>

#include "core/candidate_gen.hpp"

namespace bdsm {

namespace {

class WbmTask : public WarpTask {
 public:
  WbmTask(const WbmEnv* env, SeedEdge seed,
          std::vector<MatchRecord>* out, size_t plan_begin, size_t plan_end)
      : env_(env),
        seed_(seed),
        out_(out),
        plan_idx_(plan_begin),
        plan_end_(plan_end) {
    m_.fill(kInvalidVertex);
    frames_.resize(env_->qctx->q.NumVertices());
  }

  bool Step(WarpContext& ctx) override {
    if (env_->overflowed &&
        env_->overflowed->load(std::memory_order_relaxed)) {
      return false;  // launch-wide result cap hit: abandon the task
    }
    if (!dfs_active_) return AdvanceWork(ctx);

    const size_t nq = plan_->order.size();
    Frame& f = frames_[cur_];
    if (!f.ready) {
      GenFrame(ctx);
      return true;
    }
    if (f.next < f.cands.size()) {
      if (cur_ == nq - 1) {
        // Terminal level: every remaining candidate is a complete match
        // (Algorithm 1 lines 9-11).
        VertexId uq = plan_->order[cur_];
        for (; f.next < f.cands.size(); ++f.next) {
          m_[uq] = f.cands[f.next];
          EmitMatch(ctx);
        }
        m_[uq] = kInvalidVertex;
        return true;  // next step backtracks
      }
      VertexId v = f.cands[f.next++];
      m_[plan_->order[cur_]] = v;
      ++cur_;
      frames_[cur_].ready = false;
      if (!plan_->perms.empty() && cur_ == plan_->vk_size &&
          plan_->vk_size < nq) {
        SpawnSiblings(ctx);
        // The identity variant must itself pass the deferred full
        // candidate test before its R^k extension.
        if (!ValidatePrefixBits(ctx)) {
          frames_[cur_].cands.clear();
          frames_[cur_].next = 0;
          frames_[cur_].ready = true;  // empty frame => backtrack next step
        }
      }
      return true;
    }
    // Frame exhausted: backtrack (Algorithm 1 lines 12-13 / 21-22).
    f.ready = false;
    if (cur_ == floor_) {
      dfs_active_ = false;
      return true;
    }
    --cur_;
    m_[plan_->order[cur_]] = kInvalidVertex;
    return true;
  }

  uint64_t EstimateRemaining() const override {
    uint64_t rem = 0;
    if (dfs_active_) {
      for (uint32_t l = floor_; l <= cur_; ++l) {
        rem += frames_[l].ready
                   ? frames_[l].cands.size() - frames_[l].next
                   : 1;
      }
    }
    rem += siblings_.size() * 4;
    rem += (plan_end_ - plan_idx_) * 8;
    return rem;
  }

  std::unique_ptr<WarpTask> StealHalf() override {
    // Prefer the coarsest splittable granularity: whole plans, then
    // pending coalesced siblings, then the shallowest candidate range
    // (the paper's Example 3: steal unexplored candidates along with
    // their parents).
    if (plan_end_ - plan_idx_ >= 2) {
      size_t mid = plan_idx_ + (plan_end_ - plan_idx_) / 2;
      auto clone =
          std::make_unique<WbmTask>(env_, seed_, out_, mid, plan_end_);
      plan_end_ = mid;
      return clone;
    }
    if (siblings_.size() >= 2) {
      auto clone = std::make_unique<WbmTask>(env_, seed_, out_, 0, 0);
      clone->plan_ = plan_;
      size_t half = siblings_.size() / 2;
      clone->siblings_.assign(siblings_.end() - half, siblings_.end());
      siblings_.resize(siblings_.size() - half);
      return clone;
    }
    if (dfs_active_) {
      for (uint32_t l = floor_; l <= cur_; ++l) {
        Frame& f = frames_[l];
        if (!f.ready || f.cands.size() - f.next < 2) continue;
        size_t remaining = f.cands.size() - f.next;
        size_t mid = f.next + remaining / 2;
        auto clone = std::make_unique<WbmTask>(env_, seed_, out_, 0, 0);
        clone->plan_ = plan_;
        clone->m_ = m_;
        for (size_t i = l; i < plan_->order.size(); ++i) {
          clone->m_[plan_->order[i]] = kInvalidVertex;
        }
        clone->floor_ = l;
        clone->cur_ = l;
        clone->frames_[l].cands.assign(f.cands.begin() + mid,
                                       f.cands.end());
        clone->frames_[l].next = 0;
        clone->frames_[l].ready = true;
        clone->dfs_active_ = true;
        f.cands.resize(mid);
        return clone;
      }
    }
    return nullptr;
  }

 private:
  struct Frame {
    std::vector<VertexId> cands;
    size_t next = 0;
    bool ready = false;
  };

  /// Picks the next unit of work: a pending coalesced sibling, else the
  /// next seed plan.  Returns false when the task is exhausted.
  bool AdvanceWork(WarpContext& ctx) {
    while (true) {
      if (plan_ && !siblings_.empty()) {
        m_ = siblings_.back();
        siblings_.pop_back();
        floor_ = plan_->vk_size;
        cur_ = floor_;
        frames_[cur_].ready = false;
        dfs_active_ = true;
        return true;
      }
      if (plan_idx_ < plan_end_) {
        plan_ = &env_->qctx->plans[plan_idx_++];
        if (InitPlan(ctx)) {
          dfs_active_ = true;
          return true;
        }
        continue;
      }
      return false;
    }
  }

  /// Maps the update edge onto the plan's directed pair (Algorithm 1
  /// lines 3-5).  Returns false when labels forbid the mapping or the
  /// query has no levels to search (|V(Q)| = 2, handled inline).
  bool InitPlan(WarpContext& ctx) {
    ctx.ChargeCompute(4);
    if (plan_->elabel != seed_.elabel) return false;
    // k > 0 coalesced plans defer the full candidate test: a sibling
    // pair may accept seed vertices the representative's (stronger,
    // R^k-aware) encoding rejects, so the V^k phase uses the orbit-union
    // filter and the full bits are validated per variant at the R^k
    // transition.  k = 0 plans keep strict filtering: a full-query
    // automorphism preserves neighbor-label multisets, hence encoder
    // codes, so the strict test is already sibling-invariant.
    const bool relaxed =
        !plan_->perms.empty() && plan_->vk_size < plan_->order.size();
    if (relaxed) {
      if ((env_->enc->CandidateMask(seed_.v1) &
           plan_->relaxed_masks[plan_->a]) == 0) {
        return false;
      }
      if ((env_->enc->CandidateMask(seed_.v2) &
           plan_->relaxed_masks[plan_->b]) == 0) {
        return false;
      }
    } else {
      if (!env_->enc->IsCandidate(seed_.v1, plan_->a)) return false;
      if (!env_->enc->IsCandidate(seed_.v2, plan_->b)) return false;
    }
    m_.fill(kInvalidVertex);
    m_[plan_->a] = seed_.v1;
    m_[plan_->b] = seed_.v2;
    const size_t nq = plan_->order.size();
    if (nq == 2) {
      EmitMatch(ctx);  // the seed assignment is already a full match
      return false;
    }
    floor_ = 2;
    cur_ = 2;
    frames_[cur_].ready = false;
    return true;
  }

  /// GenCandidates (Algorithm 1 lines 23-29) via the shared helper: the
  /// warp reads one matched neighbor's adjacency coalescedly, then
  /// filters by candidate bit / adjacency binary-searches / injectivity
  /// / the batch-dedup rule.  V^k levels of a coalesced plan use the
  /// relaxed label-only filter (full bits deferred to the variants).
  void GenFrame(WarpContext& ctx) {
    Frame& f = frames_[cur_];
    f.next = 0;
    f.ready = true;
    const bool relaxed = !plan_->perms.empty() &&
                         plan_->vk_size < plan_->order.size() &&
                         cur_ < plan_->vk_size;
    GenCandidatesCost cost;
    GenerateCandidates(*env_->graph, env_->qctx->q, *env_->enc,
                       *env_->update_order, *plan_, m_, cur_, seed_.order,
                       relaxed, &scratch_, &f.cands, &cost);
    ctx.ChargeGlobal(cost.scan_words, /*coalesced=*/true);
    ctx.ChargeGlobal(cost.probe_words, /*coalesced=*/false);
    ctx.ChargeCompute(cost.compute_ops);
  }

  /// Full candidate-table test of the current V^k prefix (deferred from
  /// the relaxed V^k phase).  Pruning only — a genuine completion would
  /// imply the bits hold anyway.
  bool ValidatePrefixBits(WarpContext& ctx) {
    ctx.ChargeCompute(plan_->vk_size);
    for (uint32_t i = 0; i < plan_->vk_size; ++i) {
      VertexId x = plan_->order[i];
      if (!env_->enc->IsCandidate(m_[x], x)) return false;
    }
    return true;
  }

  /// Spawns the coalesced-search sibling partials of the just-completed
  /// V^k prefix: x -> P(perm[x]), dropped early when a permuted position
  /// fails its candidate-table bit (the "avoid invalid matching" check).
  void SpawnSiblings(WarpContext& ctx) {
    for (const Permutation& p : plan_->perms) {
      std::array<VertexId, kMaxQueryVertices> pm;
      pm.fill(kInvalidVertex);
      bool ok = true;
      for (VertexId x = 0; x < kMaxQueryVertices && ok; ++x) {
        if (p[x] == kInvalidVertex) continue;
        VertexId img = m_[p[x]];
        GAMMA_CHECK(img != kInvalidVertex);
        if (!env_->enc->IsCandidate(img, x)) {
          ok = false;
          break;
        }
        pm[x] = img;
      }
      if (ok) siblings_.push_back(pm);
    }
    ctx.ChargeCompute(plan_->perms.size() * plan_->vk_size);
    ctx.ChargeShared(plan_->perms.size() * plan_->vk_size);
  }

  /// Reserves one emission against the launch-wide result cap; false
  /// (and the overflow flag set) once the cap is exhausted.
  bool ReserveEmission() {
    if (!env_->emitted || env_->result_cap == 0) return true;
    if (env_->emitted->fetch_add(1, std::memory_order_relaxed) >=
        env_->result_cap) {
      env_->overflowed->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void EmitMatch(WarpContext& ctx) {
    if (!ReserveEmission()) return;
    const size_t nq = env_->qctx->q.NumVertices();
    MatchRecord rec;
    rec.n = static_cast<uint8_t>(nq);
    rec.positive = env_->positive;
    rec.m = m_;
    out_->push_back(rec);
    ctx.ChargeGlobal(nq, /*coalesced=*/true);  // write the match row
    // k = 0 coalescing: a full-query automorphism maps complete matches
    // to complete matches directly, no re-extension needed.
    if (!plan_->perms.empty() && plan_->vk_size == nq) {
      for (const Permutation& p : plan_->perms) {
        if (!ReserveEmission()) return;
        MatchRecord sib;
        sib.n = rec.n;
        sib.positive = rec.positive;
        for (VertexId x = 0; x < nq; ++x) sib.m[x] = m_[p[x]];
        out_->push_back(sib);
        ctx.ChargeGlobal(nq, /*coalesced=*/true);
      }
    }
  }

  const WbmEnv* env_;
  SeedEdge seed_;
  std::vector<MatchRecord>* out_;
  size_t plan_idx_;
  size_t plan_end_;

  const SeedPlan* plan_ = nullptr;
  bool dfs_active_ = false;
  std::array<VertexId, kMaxQueryVertices> m_;
  uint32_t cur_ = 0;
  uint32_t floor_ = 2;
  std::vector<Frame> frames_;
  std::vector<std::array<VertexId, kMaxQueryVertices>> siblings_;
  std::vector<Neighbor> scratch_;
};

}  // namespace

std::unique_ptr<WarpTask> MakeWbmTask(const WbmEnv& env,
                                      const SeedEdge& seed,
                                      std::vector<MatchRecord>* out) {
  return std::make_unique<WbmTask>(&env, seed, out, 0,
                                   env.qctx->plans.size());
}

std::vector<std::unique_ptr<WarpTask>> MakeWbmTasks(
    const WbmEnv& env, const std::vector<SeedEdge>& seeds,
    std::vector<std::vector<MatchRecord>>* out_slots) {
  out_slots->assign(seeds.size(), {});
  std::vector<std::unique_ptr<WarpTask>> tasks;
  tasks.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    tasks.push_back(MakeWbmTask(env, seeds[i], &(*out_slots)[i]));
  }
  return tasks;
}

WbmResult RunWbmKernel(Device& device, const WbmEnv& env,
                       const std::vector<SeedEdge>& seeds) {
  std::vector<std::vector<MatchRecord>> slots(seeds.size());
  WbmResult result;
  std::atomic<size_t> emitted{0};
  std::atomic<bool> overflowed{false};
  WbmEnv env_with_cap = env;
  if (env.result_cap > 0 && env.emitted == nullptr) {
    env_with_cap.emitted = &emitted;
    env_with_cap.overflowed = &overflowed;
  }
  result.stats = device.Launch(seeds.size(), [&](size_t i) {
    return MakeWbmTask(env_with_cap, seeds[i], &slots[i]);
  });
  result.overflowed =
      env_with_cap.overflowed &&
      env_with_cap.overflowed->load(std::memory_order_relaxed);
  size_t total = 0;
  for (const auto& s : slots) total += s.size();
  result.matches.reserve(total);
  for (auto& s : slots) {
    result.matches.insert(result.matches.end(), s.begin(), s.end());
  }
  return result;
}

}  // namespace bdsm
