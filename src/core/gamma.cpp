#include "core/gamma.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace bdsm {

namespace {

/// Splits a sanitized batch into polarity-ordered seed lists and the
/// order map the dedup rule consults.
struct PolaritySeeds {
  std::vector<SeedEdge> seeds;
  std::unordered_map<Edge, uint32_t, EdgeHash> order;
};

PolaritySeeds CollectSeeds(const UpdateBatch& batch, bool inserts) {
  PolaritySeeds out;
  uint32_t next = 0;
  for (const UpdateOp& op : batch) {
    if (op.is_insert != inserts) continue;
    out.seeds.push_back(SeedEdge{op.u, op.v, op.elabel, next});
    out.order.emplace(Edge(op.u, op.v), next);
    ++next;
  }
  return out;
}

}  // namespace

GammaLane::GammaLane(const LabeledGraph& g, const QueryGraph& query,
                     const GammaOptions& options)
    : options_(options),
      gpma_(options.gpma_segment_capacity),
      qctx_(BuildQueryContext(query, options.coalesced_search,
                              options.aggressive_coalescing)),
      encoder_(query),
      device_(options.device) {
  gpma_.BuildFrom(g);
  encoder_.BuildAll(g);
}

WbmResult GammaLane::RunMatchPhase(const UpdateBatch& batch, bool positive) {
  PolaritySeeds seeds = CollectSeeds(batch, positive);
  if (seeds.seeds.empty()) return WbmResult{};
  WbmEnv env{&gpma_, &qctx_, &encoder_, &seeds.order, positive};
  env.result_cap = options_.result_cap;
  return RunWbmKernel(device_, env, seeds.seeds);
}

LaneUpdate GammaLane::ApplyUpdate(const LabeledGraph& mirrored,
                                  const UpdateBatch& batch) {
  LaneUpdate out;
  UpdatePlan plan = gpma_.ApplyBatch(batch);
  out.update_stats = SimulateGpmaUpdate(device_, plan, options_.gpma);
  Timer host;
  encoder_.ApplyBatchDirty(mirrored, batch);
  out.delta_host_seconds = host.ElapsedSeconds();
  return out;
}

Gamma::Gamma(const LabeledGraph& initial, const QueryGraph& query,
             GammaOptions options)
    : host_graph_(initial), lane_(host_graph_, query, options) {}

BatchResult Gamma::ProcessBatch(const UpdateBatch& raw_batch) {
  BatchResult result;
  Timer wall;

  UpdateBatch batch = SanitizeBatch(host_graph_, raw_batch);

  // Negative matches: deleted-edge seeds on the pre-update state.
  WbmResult neg = lane_.RunMatchPhase(batch, /*positive=*/false);
  result.negative_matches = std::move(neg.matches);
  result.match_stats.MergeSequential(neg.stats);
  result.overflowed = result.overflowed || neg.overflowed;

  // Update: host mirror first (the lane's label-count deltas read the
  // post-batch graph), then the lane's GPMA update and deltas.
  Timer mirror;
  ApplyBatch(&host_graph_, batch);
  const double mirror_seconds = mirror.ElapsedSeconds();
  LaneUpdate update = lane_.ApplyUpdate(host_graph_, batch);
  result.update_stats = update.update_stats;
  result.preprocess_host_seconds = mirror_seconds + update.delta_host_seconds;

  // Positive matches: inserted-edge seeds on the post-update state.
  WbmResult pos = lane_.RunMatchPhase(batch, /*positive=*/true);
  result.positive_matches = std::move(pos.matches);
  result.match_stats.MergeSequential(pos.stats);
  result.overflowed = result.overflowed || pos.overflowed;

  result.host_wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace bdsm
