/// \file wbm_kernel.hpp
/// WBM: the warp-centric batch-dynamic subgraph matching kernel
/// (paper Algorithm 1), written as a steppable WarpTask so the simulated
/// device can interleave warps, steal work, and account utilization.
///
/// One task = one updated edge (the paper's warp-per-update assignment).
/// The task iterates the query's seed plans; each plan maps the update
/// edge onto one directed query pair and runs a DFS over the plan's
/// matching order.  GenCandidates (Algorithm 1 lines 23-29) scans the
/// adjacency of an already-matched neighbor — a warp-cooperative,
/// coalesced read — and filters by candidate-table bit, adjacency to the
/// other matched neighbors (binary searches), injectivity, and the
/// batch-dedup total-order rule.
///
/// Coalesced search (§V-B): when a plan carries permutations, completing
/// the first vk_size levels spawns the sibling partial matches by
/// permutation (validated against the candidate table) instead of
/// re-traversing the same data subgraph; each sibling is then extended
/// over the removed vertices R^k.  Pending siblings are stealable work.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/encoder.hpp"
#include "core/match.hpp"
#include "core/query_context.hpp"
#include "gpma/gpma.hpp"
#include "gpusim/device.hpp"

namespace bdsm {

/// One seeded update edge: the data edge plus its polarity-local order
/// (used by the dedup rule: a match is attributed to the lowest-order
/// update edge it contains).
struct SeedEdge {
  VertexId v1;
  VertexId v2;
  Label elabel;
  uint32_t order;
};

/// Read-only environment shared by every task of a launch.
struct WbmEnv {
  const Gpma* graph;                   ///< state matching the polarity
  const QueryContext* qctx;
  const CandidateEncoder* enc;
  /// Order of every same-polarity update edge in the batch.
  const std::unordered_map<Edge, uint32_t, EdgeHash>* update_order;
  bool positive;                       ///< stamped on emitted matches
  /// Grid-wide cap on emitted matches (0 = unlimited).  Result sets of
  /// tree queries explode combinatorially; on a 128 GB testbed the paper
  /// bounds them by its 30-minute timeout, here the cap bounds memory
  /// the same way: once hit, tasks stop and the launch reports overflow.
  size_t result_cap = 0;
  /// Shared counter/flag backing the cap (set by RunWbmKernel).
  std::atomic<size_t>* emitted = nullptr;
  std::atomic<bool>* overflowed = nullptr;
};

/// Builds the WBM warp task for one seed, emitting into `out` (one slot
/// per seed, preallocated by the caller; intra-block steals share their
/// victim's slot, which is safe because a block runs on one host thread).
/// Only reads `env` and `seed`, so it may serve as a Device::Launch
/// factory.  `env` must outlive the task.
std::unique_ptr<WarpTask> MakeWbmTask(const WbmEnv& env,
                                      const SeedEdge& seed,
                                      std::vector<MatchRecord>* out);

/// Builds one WBM warp task per seed on the calling thread, emitting into
/// out_slots[i] (assigned here, one slot per seed).
std::vector<std::unique_ptr<WarpTask>> MakeWbmTasks(
    const WbmEnv& env, const std::vector<SeedEdge>& seeds,
    std::vector<std::vector<MatchRecord>>* out_slots);

struct WbmResult {
  std::vector<MatchRecord> matches;
  DeviceStats stats;
  /// Result cap was hit; matches is truncated (treat as unsolved).
  bool overflowed = false;
};

/// Convenience driver: launch the kernel for `seeds` and gather results.
WbmResult RunWbmKernel(Device& device, const WbmEnv& env,
                       const std::vector<SeedEdge>& seeds);

}  // namespace bdsm
