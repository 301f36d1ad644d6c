#include "replica/failover.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace bdsm::replica {

FailoverOutcome RunFailoverScenario(const workload::ScenarioSpec& spec,
                                    uint64_t seed,
                                    const std::string& engine_spec,
                                    size_t kill_after_batches,
                                    const EngineOptions& options) {
  FailoverOutcome out;
  workload::ScenarioRunner runner(spec, seed);
  const size_t kill = std::min(kill_after_batches, runner.stream().size());
  out.killed_at = kill;

  // Resolve the pair of specs: the replicated group under test and the
  // bare inner engine that serves as the uninterrupted reference.
  const EngineRegistry& registry = EngineRegistry::Instance();
  EngineSpec canonical =
      registry.Canonicalize(EngineSpec::Parse(engine_spec));
  std::string replicated_spec;
  std::string inner_spec;
  if (canonical.name == "replicated") {
    replicated_spec = engine_spec;
    inner_spec = canonical.children.front().ToString();
  } else {
    replicated_spec = "replicated(" + engine_spec + ")";
    inner_spec = engine_spec;
  }

  // 1. The unreplicated reference.
  out.cold = runner.Run(inner_spec, options);

  // 2-5. The replica group lives across the kill, so the drill owns
  //      it (the runner's controls.engine path) and registers the
  //      scenario's query set itself, exactly as the fresh path would.
  std::unique_ptr<Engine> group =
      MakeEngine(replicated_spec, runner.graph(), options);
  ReplicationControl* rc = group->replication_control();
  GAMMA_CHECK_MSG(rc != nullptr,
                  "failover drill needs a replication-capable engine");
  // The staleness bound comes from the group's *effective* cadence
  // (spec keys may override whatever `options` carried).
  out.lag_bound = static_cast<size_t>(rc->Stats().poll_every);
  for (const QueryGraph& q : runner.queries()) group->AddQuery(q);

  {
    workload::ScenarioRunner::RunControls controls;
    controls.engine = group.get();
    controls.max_batches = kill;
    out.prefix = runner.Run(replicated_spec, options, controls);
  }

  rc->KillLeader();
  GAMMA_CHECK_MSG(rc->Failover(),
                  "failover drill: no follower left to promote");

  {
    workload::ScenarioRunner::RunControls controls;
    controls.engine = group.get();
    controls.first_batch = kill;
    out.tail = runner.Run(replicated_spec, options, controls);
  }
  out.stats = rc->Stats();

  // 6. Verdict: stitched per-batch counts equal the cold run's, batch
  //    for batch, and the staleness contract held throughout.
  out.detail =
      workload::StitchedRunDivergence(out.cold, out.prefix, out.tail);
  out.identical = out.detail.empty();
  out.lag_bounded = true;
  for (const ReplicaStats& r : out.stats.replicas) {
    if (r.max_lag_batches > out.lag_bound || r.lag_batches != 0) {
      out.lag_bounded = false;
      if (out.identical) {
        out.identical = false;
        out.detail = "replica " + std::to_string(r.replica) +
                     " broke the staleness bound: max lag " +
                     std::to_string(r.max_lag_batches) + " batches (bound " +
                     std::to_string(out.lag_bound) + "), residual lag " +
                     std::to_string(r.lag_batches);
      }
    }
  }
  if (out.identical) {
    out.detail =
        "leader killed at batch " + std::to_string(out.killed_at) + " (" +
        std::to_string(out.stats.last_failover_replayed) +
        " WAL batches replayed by the promoted follower): all " +
        std::to_string(out.cold.batches.size()) +
        " batches match the unreplicated run, follower lag <= " +
        std::to_string(out.lag_bound);
  }
  return out;
}

}  // namespace bdsm::replica
