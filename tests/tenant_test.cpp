/// Multi-tenant front door tests (src/serve/tenant_front_door.hpp):
/// pass-through match-identity of tenant(...) against the bare inner
/// engine, namespace quotas and ownership, token-bucket determinism,
/// priority ordering, SLO target adaptation, result-budget
/// degradation, the Jain fairness index, and the noisy-neighbor
/// acceptance experiment (admission ON bounds the victim's sojourn
/// tail near its solo run while admission OFF measurably degrades it).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/graph_generator.hpp"
#include "serve/tenant_front_door.hpp"
#include "util/stats.hpp"
#include "workload/scenario_runner.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using serve::TenantFrontDoor;
using workload::ScenarioReport;
using workload::ScenarioRunner;
using workload::ScenarioTenantMetric;

QueryGraph TriangleQuery() {
  QueryGraph q({0, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  q.AddEdge(0, 2);
  return q;
}

QueryGraph PathQuery() {
  QueryGraph q({0, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

/// A 2:1 mixed stream prepared against the evolving graph (the
/// sanitized per-batch form every engine sees).
std::vector<UpdateBatch> MakeStream(const LabeledGraph& g, uint64_t seed,
                                    size_t batches = 3,
                                    size_t ops_per_batch = 25) {
  workload::StreamSpec spec =
      workload::PreferentialSpec(ops_per_batch, 2.0 / 3);
  spec.num_batches = batches;
  return workload::StreamGenerator(spec, seed).Generate(g);
}

std::vector<std::string> SortedKeys(const std::vector<MatchRecord>& ms) {
  std::vector<std::string> keys = CanonicalKeys(ms);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The pass-through guarantee: under the default permissive policy, the
// flat ProcessBatch path through tenant(...) is match-identical to the
// bare inner engine — matches (order included), counts, flags, and the
// deterministic device stats.
TEST(TenantFrontDoorTest, PassThroughIsMatchIdenticalToInner) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, 2024);
  std::vector<UpdateBatch> stream = MakeStream(g, 2025);

  for (const char* inner : {"gamma", "sharded(gamma, shards=2)"}) {
    SCOPED_TRACE(inner);
    auto bare = MakeEngine(inner, g);
    auto wrapped = MakeEngine(std::string("tenant(") + inner + ")", g);
    ASSERT_TRUE(wrapped->Describe().supports_tenancy);
    ASSERT_NE(wrapped->tenant_control(), nullptr);
    EXPECT_EQ(bare->tenant_control(), nullptr);

    for (const QueryGraph& q : {TriangleQuery(), PathQuery()}) {
      bare->AddQuery(q);
      wrapped->AddQuery(q);
    }
    size_t total = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      SCOPED_TRACE("batch " + std::to_string(i));
      BatchReport want = bare->ProcessBatch(stream[i]);
      BatchReport got = wrapped->ProcessBatch(stream[i]);
      ASSERT_EQ(got.queries.size(), want.queries.size());
      for (size_t qi = 0; qi < want.queries.size(); ++qi) {
        const QueryReport& w = want.queries[qi];
        const QueryReport& o = got.queries[qi];
        EXPECT_EQ(o.id, w.id);
        EXPECT_EQ(o.num_positive, w.num_positive);
        EXPECT_EQ(o.num_negative, w.num_negative);
        EXPECT_EQ(SortedKeys(o.positive_matches),
                  SortedKeys(w.positive_matches));
        EXPECT_EQ(SortedKeys(o.negative_matches),
                  SortedKeys(w.negative_matches));
        EXPECT_EQ(o.timed_out, w.timed_out);
        EXPECT_EQ(o.overflowed, w.overflowed);
      }
      EXPECT_EQ(got.update_stats.makespan_ticks,
                want.update_stats.makespan_ticks);
      EXPECT_EQ(got.match_stats.makespan_ticks,
                want.match_stats.makespan_ticks);
      total += want.TotalMatches();
    }
    EXPECT_GT(total, 0u) << "workload must exercise matching";
    EXPECT_EQ(wrapped->host_graph().NumEdges(),
              bare->host_graph().NumEdges());
  }
}

// Namespaces: per-tenant query ownership on the inner engine's public
// ids, the standing-query quota, and the released slot after removal.
TEST(TenantFrontDoorTest, QueryQuotasAndOwnership) {
  LabeledGraph g = GenerateUniformGraph(60, 180, 3, 1, 7);
  TenantFrontDoor fd("gamma", g);

  TenantPolicy capped;
  capped.max_queries = 1;
  TenantId a = fd.RegisterTenant("a", capped);
  TenantId b = fd.RegisterTenant("b", {});
  EXPECT_EQ(fd.NumTenants(), 3u);  // default + a + b

  QueryId qa = fd.AddTenantQuery(a, TriangleQuery());
  ASSERT_NE(qa, kInvalidQueryId);
  EXPECT_EQ(fd.OwnerOf(qa), a);
  // Quota hit: rejected deterministically, counted, no inner mutation.
  EXPECT_EQ(fd.AddTenantQuery(a, PathQuery()), kInvalidQueryId);
  EXPECT_EQ(fd.Snapshot(a).counters.rejected_queries, 1u);
  EXPECT_EQ(fd.QueryIds().size(), 1u);

  QueryId qb = fd.AddTenantQuery(b, PathQuery());
  ASSERT_NE(qb, kInvalidQueryId);
  EXPECT_EQ(fd.OwnerOf(qb), b);
  EXPECT_EQ(fd.OwnerOf(static_cast<QueryId>(9999)), kInvalidTenantId);

  // Removal releases the quota slot.
  EXPECT_TRUE(fd.RemoveQuery(qa));
  EXPECT_EQ(fd.Snapshot(a).live_queries, 0u);
  EXPECT_NE(fd.AddTenantQuery(a, TriangleQuery()), kInvalidQueryId);
}

// Token buckets refill per formed batch — deterministic ticks, not
// wall time: the same ingest twice yields identical admission traces,
// and a rate-limited tenant drains at its rate.
TEST(TenantFrontDoorTest, TokenBucketAdmissionIsDeterministic) {
  LabeledGraph g = GenerateUniformGraph(60, 180, 3, 1, 11);
  UpdateBatch ops = MakeStream(g, 12, 1, 40)[0];
  ASSERT_GE(ops.size(), 20u);

  auto run = [&] {
    TenantFrontDoor fd("gamma", g);
    TenantPolicy limited;
    limited.rate_ops_per_batch = 4;
    limited.burst_ops = 4;
    TenantId t = fd.RegisterTenant("limited", limited);
    fd.AddTenantQuery(t, PathQuery());
    fd.Ingest(t, ops);
    std::vector<size_t> admitted;
    FormedBatchStats fb;
    while (fd.PumpFormedBatch(&fb)) admitted.push_back(fb.admitted_ops);
    return std::pair<std::vector<size_t>, TenantCounters>(
        admitted, fd.Snapshot(t).counters);
  };

  auto [admitted1, counters1] = run();
  auto [admitted2, counters2] = run();
  EXPECT_EQ(admitted1, admitted2);
  EXPECT_EQ(counters1.admitted_ops, counters2.admitted_ops);
  EXPECT_EQ(counters1.offered_ops, ops.size());
  EXPECT_EQ(counters1.admitted_ops + counters1.shed_ops, ops.size());
  // Rate 4/batch with burst 4: no formed batch carries more than 4 of
  // the tenant's ops.
  for (size_t a : admitted1) EXPECT_LE(a, 4u);
  EXPECT_GT(admitted1.size(), 1u) << "the drain must take several ticks";
}

// Admission fills class by class: when gold and best-effort ops
// compete for a batch smaller than either queue, gold rides first.
TEST(TenantFrontDoorTest, PriorityClassesAdmitGoldFirst) {
  LabeledGraph g = GenerateUniformGraph(60, 180, 3, 1, 13);
  UpdateBatch ops = MakeStream(g, 14, 1, 40)[0];
  ASSERT_GE(ops.size(), 16u);
  UpdateBatch half_a(ops.begin(), ops.begin() + 8);
  UpdateBatch half_b(ops.begin() + 8, ops.begin() + 16);

  EngineOptions opts;
  opts.front_door.batch_ops_min = 8;
  opts.front_door.batch_ops_init = 8;
  opts.front_door.batch_ops_max = 8;
  TenantFrontDoor fd("gamma", g, opts);
  TenantPolicy gold;
  gold.priority = PriorityClass::kGold;
  TenantPolicy best;
  best.priority = PriorityClass::kBestEffort;
  TenantId tb = fd.RegisterTenant("best", best);
  TenantId tg = fd.RegisterTenant("gold", gold);
  fd.AddTenantQuery(tg, PathQuery());

  // Best-effort arrives FIRST; gold still wins the 8-op batch.
  fd.Ingest(tb, half_b);
  fd.Ingest(tg, half_a);
  FormedBatchStats fb;
  ASSERT_TRUE(fd.PumpFormedBatch(&fb));
  EXPECT_EQ(fb.admitted_ops, 8u);
  EXPECT_EQ(fd.Snapshot(tg).counters.admitted_ops, 8u);
  EXPECT_EQ(fd.Snapshot(tb).counters.admitted_ops, 0u);
  // The next tick serves the waiting best-effort backlog.
  ASSERT_TRUE(fd.PumpFormedBatch(&fb));
  EXPECT_EQ(fd.Snapshot(tb).counters.admitted_ops, 8u);
}

// The AIMD controller under the inner engine's clock: an unmeetable
// SLO drives the target down to batch_ops_min; a trivially met one
// grows it to batch_ops_max.
TEST(TenantFrontDoorTest, SloControllerAdaptsTarget) {
  LabeledGraph g = GenerateUniformGraph(80, 240, 3, 1, 17);
  // Enough ops that the additive-increase arm can step 16 -> 64 before
  // the backlog drains (each met-SLO batch adds batch_ops_min).
  std::vector<UpdateBatch> stream = MakeStream(g, 18, 8, 80);

  auto drive = [&](double slo) {
    EngineOptions opts;
    opts.front_door.slo_seconds = slo;
    opts.front_door.batch_ops_min = 8;
    opts.front_door.batch_ops_init = 16;
    opts.front_door.batch_ops_max = 64;
    TenantFrontDoor fd("gamma", g, opts);
    TenantId t = fd.RegisterTenant("t", {});
    fd.AddTenantQuery(t, PathQuery());
    for (const UpdateBatch& b : stream) {
      fd.Ingest(t, b);
      FormedBatchStats fb;
      fd.PumpFormedBatch(&fb);
    }
    FormedBatchStats fb;
    while (fd.PumpFormedBatch(&fb)) {
    }
    return fd.TargetBatchOps();
  };

  EXPECT_EQ(drive(1e-12), 8u);   // nothing meets a picosecond SLO
  EXPECT_EQ(drive(1e9), 64u);    // everything meets a 31-year SLO
  // slo=0 disables adaptation: the target stays pinned at init.
  EXPECT_EQ(drive(0.0), 16u);
}

// A blown per-batch result budget degrades the tenant: its admission
// share is clamped for the next degrade_batches formed batches, and
// both decisions are counted.
TEST(TenantFrontDoorTest, ResultBudgetDegradesDeterministically) {
  LabeledGraph g = GenerateUniformGraph(120, 500, 3, 1, 19);
  std::vector<UpdateBatch> stream = MakeStream(g, 20, 4, 60);

  EngineOptions opts;
  opts.front_door.batch_ops_min = 8;
  opts.front_door.batch_ops_init = 32;
  opts.front_door.batch_ops_max = 32;
  TenantFrontDoor fd("gamma", g, opts);
  TenantPolicy tight;
  tight.result_budget = 1;  // any real batch blows this
  TenantId t = fd.RegisterTenant("tight", tight);
  fd.AddTenantQuery(t, PathQuery());

  for (const UpdateBatch& b : stream) {
    fd.Ingest(t, b);
    FormedBatchStats fb;
    fd.PumpFormedBatch(&fb);
  }
  FormedBatchStats fb;
  while (fd.PumpFormedBatch(&fb)) {
  }
  const TenantCounters c = fd.Snapshot(t).counters;
  EXPECT_GT(c.over_budget_batches, 0u);
  EXPECT_GT(c.degraded_ops, 0u);
  EXPECT_EQ(c.admitted_ops + c.shed_ops, c.offered_ops);
}

TEST(TenantFrontDoorTest, JainIndexProperties) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({0.7, 0.7, 0.7}), 1.0);
  EXPECT_NEAR(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  EXPECT_NEAR(JainIndex({1.0, 0.5}), 0.9, 1e-12);
}

// The spec surface: unknown keys fail validation with a message that
// lists the valid ones, and non-default knobs round-trip through the
// canonical spec.
TEST(TenantFrontDoorTest, SpecValidationAndCanonicalRoundTrip) {
  auto err = EngineRegistry::Instance().Validate("tenant(gamma, bogus=1)");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("bogus"), std::string::npos);
  EXPECT_NE(err->find("slo"), std::string::npos) << *err;
  EXPECT_FALSE(EngineRegistry::Instance()
                   .Validate("tenant(sharded(gamma, shards=2), slo=0.01, "
                             "admission=off)")
                   .has_value());
  // tenant(...) wraps exactly one engine.
  EXPECT_TRUE(EngineRegistry::Instance().Validate("tenant()").has_value());

  LabeledGraph g = GenerateUniformGraph(40, 100, 3, 1, 23);
  auto e = MakeEngine("tenant(gamma, slo=0.01, batch_init=64)", g);
  const std::string canonical = e->Describe().canonical_spec;
  EXPECT_NE(canonical.find("tenant(gamma"), std::string::npos)
      << canonical;
  EXPECT_NE(canonical.find("slo=0.01"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("batch_init=64"), std::string::npos)
      << canonical;
  // Defaults are not materialized.
  EXPECT_EQ(canonical.find("admission"), std::string::npos) << canonical;
}

/// Drives only `role`'s share of the scenario stream through a fresh
/// front door — the tenant's "solo" baseline the acceptance criterion
/// compares against.  Mirrors the runner's split exactly (same
/// kSeedTenantAssign sub-seed).
Samples SoloSojourn(const ScenarioRunner& runner, const std::string& spec,
                    size_t role) {
  auto engine = MakeEngine(spec, runner.graph());
  TenantControl* tc = engine->tenant_control();
  const workload::TenantRole& r = runner.spec().tenants.roles[role];
  TenantId id = tc->RegisterTenant(r.name, r.policy);
  for (const QueryGraph& q : runner.queries()) tc->AddTenantQuery(id, q);
  Rng assign_rng(DeriveSeed(runner.seed(), workload::kSeedTenantAssign));
  for (const UpdateBatch& batch : runner.stream()) {
    std::vector<size_t> who =
        AssignTenants(runner.spec().tenants, batch.size(), &assign_rng);
    UpdateBatch mine;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (who[i] == role) mine.push_back(batch[i]);
    }
    if (!mine.empty()) tc->Ingest(id, mine);
    FormedBatchStats fb;
    tc->PumpFormedBatch(&fb);
  }
  FormedBatchStats fb;
  while (tc->PumpFormedBatch(&fb)) {
  }
  const TenantSnapshot snap = tc->Snapshot(id);
  Samples sojourn;
  for (size_t i = 0; i < snap.service_seconds.size(); ++i) {
    sojourn.Add(snap.service_seconds[i] + snap.queue_wait_seconds[i]);
  }
  return sojourn;
}

const ScenarioTenantMetric& FindTenant(const ScenarioReport& r,
                                       const std::string& name) {
  for (const ScenarioTenantMetric& t : r.tenants) {
    if (t.tenant == name) return t;
  }
  ADD_FAILURE() << "tenant " << name << " missing from report";
  static ScenarioTenantMetric none;
  return none;
}

// The ISSUE acceptance experiment on the fixed default seed: in
// noisy-neighbor, admission ON keeps the gold victim's sojourn p99
// within a small factor of its solo run (and sheds the hog's overrun),
// while admission OFF — global FIFO behind the same constrained
// formation target — measurably degrades the victim.  Ratios compare
// same-run quantities under the modeled clock, so the assertions are
// load-shape facts, not machine-speed facts.
TEST(TenantFrontDoorTest, NoisyNeighborAdmissionBoundsVictimTail) {
  const workload::ScenarioSpec* spec =
      workload::FindScenario("noisy-neighbor");
  ASSERT_NE(spec, nullptr);
  ScenarioRunner runner(*spec, workload::kDefaultScenarioSeed);

  // batch_init=batch_max=64 keeps formation capacity below the arrival
  // rate (~160 ops per stream batch) — the overload the experiment is
  // about; admission is the only difference between the arms.
  const std::string on = "tenant(gamma, batch_init=64, batch_max=64)";
  const std::string off =
      "tenant(gamma, batch_init=64, batch_max=64, admission=off)";
  ScenarioReport r_on = runner.Run(on);
  ScenarioReport r_off = runner.Run(off);
  const double solo_p99 = SoloSojourn(runner, on, /*role=*/0).Percentile(99);
  ASSERT_GT(solo_p99, 0.0);

  const ScenarioTenantMetric& victim_on = FindTenant(r_on, "victim");
  const ScenarioTenantMetric& victim_off = FindTenant(r_off, "victim");
  const ScenarioTenantMetric& hog_on = FindTenant(r_on, "hog");
  const ScenarioTenantMetric& hog_off = FindTenant(r_off, "hog");

  // ON: the victim's tail stays within 4x of its solo run, nothing of
  // its traffic is shed, and the hog's overrun is shed instead of
  // queued in front of the victim.  (Measured on the fixed seed: the
  // ratio is ~1x; 4x leaves room for dataset-twin regeneration.)
  EXPECT_LE(victim_on.sojourn_p99_s, 4.0 * solo_p99);
  EXPECT_EQ(victim_on.shed_ops, 0u);
  EXPECT_GT(hog_on.shed_ops, 0u);
  EXPECT_LT(r_on.fairness, 1.0);

  // OFF: global FIFO lets the hog's backlog stall the victim — at
  // least 2x the ON tail (measured ~9x) and 2x its solo run.
  EXPECT_GE(victim_off.sojourn_p99_s, 2.0 * victim_on.sojourn_p99_s);
  EXPECT_GE(victim_off.sojourn_p99_s, 2.0 * solo_p99);
  EXPECT_EQ(victim_off.shed_ops + hog_off.shed_ops, 0u)
      << "admission=off must not shed";

  // Offered traffic is identical across arms — same stream, same split.
  EXPECT_EQ(victim_on.offered_ops, victim_off.offered_ops);
  EXPECT_EQ(hog_on.offered_ops, hog_off.offered_ops);
}

// Two rate-limited tenants of the same class against full bounded
// queues: the round-robin pump drains both — neither starves, and the
// accounting balances op for op.
TEST(TenantFrontDoorTest, FullQueuesDrainFairlyAcrossTenants) {
  LabeledGraph g = GenerateUniformGraph(80, 240, 3, 1, 29);
  std::vector<UpdateBatch> stream = MakeStream(g, 30, 4, 60);

  EngineOptions opts;
  opts.front_door.batch_ops_min = 8;
  opts.front_door.batch_ops_init = 16;
  opts.front_door.batch_ops_max = 16;
  TenantFrontDoor fd("gamma", g, opts);
  TenantPolicy p;
  p.queue_limit_ops = 32;
  TenantId a = fd.RegisterTenant("a", p);
  TenantId b = fd.RegisterTenant("b", p);
  fd.AddTenantQuery(a, PathQuery());

  // Overfill both queues before pumping once: everything beyond the
  // bound sheds (never blocks), then the pump alternates fairly.
  for (const UpdateBatch& batch : stream) {
    fd.Ingest(a, batch);
    fd.Ingest(b, batch);
  }
  EXPECT_GT(fd.Snapshot(a).counters.shed_ops, 0u);
  FormedBatchStats fb;
  while (fd.PumpFormedBatch(&fb)) {
  }
  const TenantCounters ca = fd.Snapshot(a).counters;
  const TenantCounters cb = fd.Snapshot(b).counters;
  EXPECT_GT(ca.admitted_ops, 0u);
  EXPECT_GT(cb.admitted_ops, 0u);
  // Same class, same policy, same offered load: round-robin admission
  // keeps their service equal to the op.
  EXPECT_EQ(ca.admitted_ops, cb.admitted_ops);
  EXPECT_EQ(ca.offered_ops, ca.admitted_ops + ca.shed_ops);
  EXPECT_EQ(cb.offered_ops, cb.admitted_ops + cb.shed_ops);
  EXPECT_EQ(fd.PendingOps(), 0u);
  EXPECT_DOUBLE_EQ(fd.JainFairnessIndex(), 1.0);
}

}  // namespace
}  // namespace bdsm
