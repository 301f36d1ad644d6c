#include "workload/scenario_runner.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace bdsm::workload {

double ScenarioReport::TotalLatencySeconds() const {
  double s = 0.0;
  for (const ScenarioBatchMetric& b : batches) s += b.latency_seconds;
  return s;
}

double ScenarioReport::MeanLatencySeconds() const {
  return batches.empty() ? 0.0
                         : TotalLatencySeconds() /
                               static_cast<double>(batches.size());
}

double ScenarioReport::LatencyPercentile(double p) const {
  Samples s;
  for (const ScenarioBatchMetric& b : batches) s.Add(b.latency_seconds);
  return s.Percentile(p);
}

double ScenarioReport::ThroughputOpsPerSec() const {
  double total = TotalLatencySeconds();
  return total > 0.0 ? static_cast<double>(total_ops) / total : 0.0;
}

namespace {

/// First difference between cold batch `index` and the stitched run's
/// metric for the same stream batch; "" when equal.
std::string DiffBatch(size_t index, const ScenarioBatchMetric& cold,
                      const ScenarioBatchMetric& stitched) {
  std::ostringstream out;
  if (cold.ops != stitched.ops) {
    out << "ops " << cold.ops << " vs " << stitched.ops;
  } else if (cold.positive_matches != stitched.positive_matches) {
    out << "+matches " << cold.positive_matches << " vs "
        << stitched.positive_matches;
  } else if (cold.negative_matches != stitched.negative_matches) {
    out << "-matches " << cold.negative_matches << " vs "
        << stitched.negative_matches;
  } else if (cold.truncated_queries != stitched.truncated_queries) {
    out << "truncated " << cold.truncated_queries << " vs "
        << stitched.truncated_queries;
  } else {
    return "";
  }
  return "batch " + std::to_string(index) + " diverges: " + out.str();
}

}  // namespace

std::string StitchedRunDivergence(const ScenarioReport& cold,
                                  const ScenarioReport& prefix,
                                  const ScenarioReport& tail) {
  const size_t stitched = prefix.batches.size() + tail.batches.size();
  if (stitched != cold.batches.size()) {
    return "batch count mismatch: cold ran " +
           std::to_string(cold.batches.size()) + ", prefix+tail ran " +
           std::to_string(stitched);
  }
  for (size_t i = 0; i < cold.batches.size(); ++i) {
    const ScenarioBatchMetric& b =
        i < prefix.batches.size() ? prefix.batches[i]
                                  : tail.batches[i - prefix.batches.size()];
    std::string diff = DiffBatch(i, cold.batches[i], b);
    if (!diff.empty()) return diff;
  }
  return "";
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec, uint64_t seed)
    : spec_(spec),
      seed_(seed),
      stream_seed_(seed),
      graph_(LoadDataset(spec.dataset)) {
  queries_ = BuildQuerySet(graph_, spec_, seed_);
  StreamGenerator gen(spec_.stream, DeriveSeed(seed_, kSeedStreamGen));
  stream_ = gen.Generate(graph_);
}

bool ScenarioRunner::ReplayTrace(const std::string& path) {
  TraceMeta meta;
  auto stream = ReadTrace(path, &meta);
  if (!stream) return false;
  // A trace is only valid against the graph it was recorded for; the
  // scenario name pins the dataset twin (the master seed does not — the
  // twins are generated from their own fixed seeds), so a name mismatch
  // means the replay invariant cannot hold and the run would measure
  // garbage.  Seed mismatches are fine: same scenario, different draw.
  if (meta.scenario != spec_.name) {
    GAMMA_LOG_WARN(
        "trace %s was recorded for scenario \"%s\", not \"%s\"; refusing",
        path.c_str(), meta.scenario.c_str(), spec_.name.c_str());
    return false;
  }
  stream_ = std::move(*stream);
  // Provenance follows the stream: a re-recorded trace must carry the
  // seed its batches were actually generated from, not this runner's.
  stream_seed_ = meta.seed;
  return true;
}

bool ScenarioRunner::RecordTrace(const std::string& path) const {
  return WriteTrace(path, TraceMeta{stream_seed_, spec_.name}, stream_);
}

ScenarioReport ScenarioRunner::Run(const std::string& engine_spec,
                                   const EngineOptions& options,
                                   const RunControls& controls) const {
  ScenarioReport out;
  out.scenario = spec_.name;
  out.engine = engine_spec;
  out.seed = seed_;
  out.num_queries = queries_.size();

  // Either a fresh engine with the scenario's query set, or a caller-
  // supplied (typically warm-restored) engine whose queries are
  // already registered.
  std::unique_ptr<Engine> owned;
  Engine* engine = controls.engine;
  const bool fresh = engine == nullptr;
  if (fresh) {
    owned = MakeEngine(engine_spec, graph_, options);
    engine = owned.get();
  }
  // Tenant drive applies when the scenario has a mix AND the engine
  // can serve it; otherwise the classic flat drive below.
  TenantControl* tc =
      spec_.tenants.Enabled() ? engine->tenant_control() : nullptr;
  if (fresh && tc == nullptr) {
    for (const QueryGraph& q : queries_) engine->AddQuery(q);
  }

  // The engine declares its own clock — no downcasts, no name-sniffing.
  const EngineInfo info = engine->Describe();
  out.canonical_spec = info.canonical_spec;
  out.latency_metric = ClockDomainName(info.clock);

  const size_t first = std::min(controls.first_batch, stream_.size());
  const size_t last =
      first + std::min(controls.max_batches, stream_.size() - first);
  if (tc != nullptr) {
    return RunTenantDrive(tc, engine, fresh, first, last, controls,
                          std::move(out));
  }
  // One tee layer exactly: a replica group already logs every applied
  // batch through its own internal checkpointer, so attaching a second
  // one here would double-log the stream.
  GAMMA_CHECK_MSG(
      controls.checkpointer == nullptr ||
          engine->replication_control() == nullptr,
      "a replicated engine ships its own WAL; do not attach a second "
      "checkpointer (one tee layer exactly — see docs/REPLICATION.md)");
  if (controls.checkpointer != nullptr) {
    controls.checkpointer->Begin(*engine, stream_seed_, spec_.name, first);
  }

  out.batches.reserve(last - first);
  for (size_t b = first; b < last; ++b) {
    const UpdateBatch& batch = stream_[b];
    BatchReport report = engine->ProcessBatch(batch);
    if (controls.checkpointer != nullptr) {
      controls.checkpointer->OnBatchApplied(*engine, batch, report);
    }
    ScenarioBatchMetric m;
    m.ops = batch.size();
    for (const QueryReport& qr : report.queries) {
      m.positive_matches += qr.num_positive;
      m.negative_matches += qr.num_negative;
      if (qr.Truncated()) ++m.truncated_queries;
    }
    m.latency_seconds = report.latency_seconds;
    out.total_ops += m.ops;
    out.total_matches += m.positive_matches + m.negative_matches;
    out.truncated_queries += m.truncated_queries;
    if (m.truncated_queries > 0) ++out.truncated_batches;
    out.batches.push_back(m);
  }
  // Close the WAL segment cleanly (a crash between batches is the
  // torn-tail case RestoreEngine recovers; a completed run should not
  // look like one).
  if (controls.checkpointer != nullptr) controls.checkpointer->Finish();
  // Replicated engines: drain the followers so the replica rows
  // describe a quiesced group, then lift the group's accounting into
  // the report.
  if (ReplicationControl* rc = engine->replication_control()) {
    rc->DrainFollowers();
    const ReplicationStats rs = rc->Stats();
    out.shipped_batches = rs.shipped_batches;
    out.shipped_bytes = rs.shipped_bytes;
    out.failovers = rs.failovers;
    out.failover_seconds = rs.last_failover_seconds;
    for (const ReplicaStats& r : rs.replicas) {
      ScenarioReplicaMetric rm;
      rm.replica = r.replica;
      rm.applied_batches = r.applied_batches;
      rm.applied_ops = r.applied_ops;
      rm.lag_batches = r.lag_batches;
      rm.lag_updates = r.lag_updates;
      rm.max_lag_batches = r.max_lag_batches;
      rm.resyncs = r.resyncs;
      rm.transport_seconds = r.transport_seconds;
      rm.apply_seconds = r.apply_seconds;
      out.replicas.push_back(rm);
    }
  }
  BDSM_OBS_COUNT("scenario.batches", out.batches.size());
  BDSM_OBS_COUNT("scenario.ops", out.total_ops);
  BDSM_OBS_COUNT("scenario.matches", out.total_matches);
  return out;
}

ScenarioReport ScenarioRunner::RunTenantDrive(TenantControl* tc,
                                              Engine* engine, bool fresh,
                                              size_t first, size_t last,
                                              const RunControls& controls,
                                              ScenarioReport out) const {
  (void)engine;
  // Batch formation re-draws batch boundaries, so a WAL teed here
  // would record a stream that never existed from the driver's view;
  // checkpoint the flat drive instead (bench_scenarios refuses the
  // flag combination up front with the friendly message).
  GAMMA_CHECK_MSG(controls.checkpointer == nullptr,
                  "tenant drive cannot be checkpointed (batch formation "
                  "re-draws batch boundaries); checkpoint a flat run");
  const std::vector<TenantRole>& roles = spec_.tenants.roles;
  // Role ids: registered here on a fresh front door (only the default
  // tenant exists), or already present when the caller re-drives an
  // engine this runner set up before.
  GAMMA_CHECK_MSG(
      tc->NumTenants() == 1 || tc->NumTenants() == 1 + roles.size(),
      "engine already has tenants that are not this scenario's roles "
      "(e.g. a tenants=N spec key); drive the mix on a clean front door");
  std::vector<TenantId> ids;
  if (tc->NumTenants() == 1) {
    for (const TenantRole& r : roles) {
      ids.push_back(tc->RegisterTenant(r.name, r.policy));
    }
  } else {
    for (size_t r = 0; r < roles.size(); ++r) {
      ids.push_back(static_cast<TenantId>(1 + r));
    }
  }
  if (fresh) {
    // Queries round-robin across the roles, so every tenant owns a
    // slice of the standing set and per-tenant result accounting has
    // something to attribute.
    for (size_t i = 0; i < queries_.size(); ++i) {
      tc->AddTenantQuery(ids[i % ids.size()], queries_[i]);
    }
  }

  auto record = [&out](const FormedBatchStats& fb) {
    if (fb.admitted_ops == 0) return;  // token-starved tick, no batch
    ScenarioBatchMetric m;
    m.ops = fb.admitted_ops;
    m.positive_matches = fb.positive_matches;
    m.negative_matches = fb.negative_matches;
    m.truncated_queries = fb.truncated_queries;
    m.latency_seconds = fb.service_seconds;
    m.queue_wait_seconds = fb.queue_wait_seconds;
    m.queue_depth = fb.queue_depth_before;
    out.total_ops += m.ops;
    out.total_matches += m.positive_matches + m.negative_matches;
    out.truncated_queries += m.truncated_queries;
    if (m.truncated_queries > 0) ++out.truncated_batches;
    out.batches.push_back(m);
  };

  // Steady-state drive: each stream batch arrives (split across the
  // roles by traffic share), the pump forms one batch; the backlog the
  // pump could not clear drains after the stream ends.  Deferred or
  // shed ops can leave later ops invalid against the evolved graph —
  // SanitizeBatch drops those deterministically, which is the honest
  // semantics of an overloaded front door (docs/SERVING.md).
  Rng assign_rng(DeriveSeed(seed_, kSeedTenantAssign));
  for (size_t b = first; b < last; ++b) {
    const UpdateBatch& batch = stream_[b];
    std::vector<size_t> assignment =
        AssignTenants(spec_.tenants, batch.size(), &assign_rng);
    std::vector<UpdateBatch> per_role(ids.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      per_role[assignment[i]].push_back(batch[i]);
    }
    for (size_t r = 0; r < ids.size(); ++r) {
      if (!per_role[r].empty()) tc->Ingest(ids[r], per_role[r]);
    }
    FormedBatchStats fb;
    if (tc->PumpFormedBatch(&fb)) record(fb);
  }
  FormedBatchStats fb;
  while (tc->PumpFormedBatch(&fb)) record(fb);

  for (size_t r = 0; r < ids.size(); ++r) {
    const TenantSnapshot snap = tc->Snapshot(ids[r]);
    ScenarioTenantMetric tm;
    tm.tenant = snap.name;
    tm.priority = PriorityClassName(snap.policy.priority);
    tm.offered_ops = snap.counters.offered_ops;
    tm.admitted_ops = snap.counters.admitted_ops;
    tm.shed_ops = snap.counters.shed_ops;
    tm.degraded_ops = snap.counters.degraded_ops;
    tm.batches = snap.counters.batches;
    tm.positive_matches = snap.counters.positive_matches;
    tm.negative_matches = snap.counters.negative_matches;
    Samples sojourn;
    for (size_t i = 0; i < snap.service_seconds.size(); ++i) {
      sojourn.Add(snap.service_seconds[i] + snap.queue_wait_seconds[i]);
      tm.max_queue_wait_s =
          std::max(tm.max_queue_wait_s, snap.queue_wait_seconds[i]);
    }
    tm.sojourn_p50_s = sojourn.Percentile(50);
    tm.sojourn_p95_s = sojourn.Percentile(95);
    tm.sojourn_p99_s = sojourn.Percentile(99);
    out.tenants.push_back(std::move(tm));
  }
  out.fairness = tc->JainFairnessIndex();
  BDSM_OBS_COUNT("scenario.batches", out.batches.size());
  BDSM_OBS_COUNT("scenario.ops", out.total_ops);
  BDSM_OBS_COUNT("scenario.matches", out.total_matches);
  return out;
}

}  // namespace bdsm::workload
