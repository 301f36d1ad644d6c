/// Scenario-subsystem tests: catalog integrity (>= 6 unique named
/// scenarios), runner determinism under a fixed seed, trace
/// record/replay through the runner, sharded-vs-unsharded scenario
/// parity, and the cross-engine differential: "gamma" and a CSM
/// baseline digest an identical generated deletion-heavy stream and
/// must agree on every query's net match delta (NetEffect parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/engine.hpp"
#include "workload/scenario_runner.hpp"

namespace bdsm::workload {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A fast deletion-heavy spec for the differential test: small batches
/// on the smallest twin so every engine finishes instantly, but real
/// deletions so negative matching is exercised.
ScenarioSpec MiniChurnSpec() {
  ScenarioSpec s;
  s.name = "mini-churn";
  s.description = "test-only deletion-heavy mini scenario";
  s.dataset = DatasetId::kGithub;
  s.stream.kind = StreamKind::kChurn;
  s.stream.num_batches = 3;
  s.stream.ops_per_batch = 60;
  s.num_queries = 2;
  s.query_size = 4;
  s.mixed_classes = false;
  s.query_class = QueryGraph::StructureClass::kSparse;
  return s;
}

TEST(ScenarioCatalogTest, AtLeastSixUniqueNamedScenarios) {
  const auto& all = AllScenarios();
  EXPECT_GE(all.size(), 6u);
  std::set<std::string> names;
  for (const ScenarioSpec& s : all) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty());
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_EQ(FindScenario(s.name), &s);
  }
  EXPECT_NE(FindScenario("smoke"), nullptr);
  EXPECT_EQ(FindScenario("no-such-scenario"), nullptr);
}

TEST(ScenarioRunnerTest, DeterministicUnderFixedSeed) {
  const ScenarioSpec& smoke = *FindScenario("smoke");
  ScenarioRunner a(smoke, 5), b(smoke, 5), c(smoke, 6);
  EXPECT_EQ(a.stream(), b.stream());
  EXPECT_NE(a.stream(), c.stream());
  ASSERT_EQ(a.queries().size(), b.queries().size());
  for (size_t i = 0; i < a.queries().size(); ++i) {
    EXPECT_EQ(a.queries()[i].ToString(), b.queries()[i].ToString());
  }

  ScenarioReport ra = a.Run("gamma"), rb = b.Run("gamma");
  EXPECT_EQ(ra.total_matches, rb.total_matches);
  EXPECT_EQ(ra.total_ops, rb.total_ops);
  ASSERT_EQ(ra.batches.size(), rb.batches.size());
  for (size_t i = 0; i < ra.batches.size(); ++i) {
    EXPECT_EQ(ra.batches[i].positive_matches,
              rb.batches[i].positive_matches);
    EXPECT_EQ(ra.batches[i].negative_matches,
              rb.batches[i].negative_matches);
  }
}

TEST(ScenarioRunnerTest, RecordReplayRoundTrip) {
  ScenarioRunner original(MiniChurnSpec(), 11);
  std::string path = TempPath("scenario.trace");
  ASSERT_TRUE(original.RecordTrace(path));

  ScenarioRunner replayed(MiniChurnSpec(), 11);
  ASSERT_TRUE(replayed.ReplayTrace(path));
  EXPECT_EQ(replayed.stream(), original.stream());

  ScenarioReport r1 = original.Run("gamma");
  ScenarioReport r2 = replayed.Run("gamma");
  EXPECT_EQ(r1.total_matches, r2.total_matches);

  EXPECT_FALSE(original.Run("gamma").batches.empty());
  ScenarioRunner broken(MiniChurnSpec(), 11);
  EXPECT_FALSE(broken.ReplayTrace(TempPath("missing.trace")));

  // A trace recorded for another scenario pins another dataset; the
  // runner must refuse it rather than replay an invalid stream.
  ScenarioRunner other(*FindScenario("smoke"), 11);
  EXPECT_FALSE(other.ReplayTrace(path));
  // Same scenario, different master seed: same dataset, still valid.
  ScenarioRunner reseeded(MiniChurnSpec(), 12);
  EXPECT_TRUE(reseeded.ReplayTrace(path));
  EXPECT_EQ(reseeded.stream(), original.stream());

  // Re-recording a replayed stream preserves the *stream's* seed (11),
  // not the replaying runner's (12) — trace provenance follows batches.
  std::string rerecorded = TempPath("scenario-rerecord.trace");
  ASSERT_TRUE(reseeded.RecordTrace(rerecorded));
  TraceMeta meta;
  ASSERT_TRUE(ReadTrace(rerecorded, &meta).has_value());
  EXPECT_EQ(meta.seed, 11u);
  EXPECT_EQ(meta.scenario, "mini-churn");
}

TEST(ScenarioRunnerTest, ShardedMatchesUnsharded) {
  const ScenarioSpec& smoke = *FindScenario("smoke");
  ScenarioRunner runner(smoke, kDefaultScenarioSeed);
  ScenarioReport plain = runner.Run("gamma");
  ScenarioReport sharded = runner.Run("sharded(gamma, shards=2)");
  EXPECT_EQ(plain.total_matches, sharded.total_matches);
  EXPECT_EQ(plain.total_ops, sharded.total_ops);
  EXPECT_EQ(plain.truncated_queries, sharded.truncated_queries);
  ASSERT_EQ(plain.batches.size(), sharded.batches.size());
  for (size_t i = 0; i < plain.batches.size(); ++i) {
    EXPECT_EQ(plain.batches[i].positive_matches,
              sharded.batches[i].positive_matches);
    EXPECT_EQ(plain.batches[i].negative_matches,
              sharded.batches[i].negative_matches);
  }
}

TEST(ScenarioRunnerTest, ReportsLatencyMetricPerEngineFamily) {
  const ScenarioSpec& smoke = *FindScenario("smoke");
  ScenarioRunner runner(smoke, kDefaultScenarioSeed);
  EXPECT_EQ(runner.Run("gamma").latency_metric, "modeled-device");
  EXPECT_EQ(runner.Run("tf").latency_metric, "host-wall");
  EXPECT_EQ(runner.Run("sharded(tf, shards=2)").latency_metric, "critical-path");
  // Percentiles are ordered and throughput is finite and positive.
  ScenarioReport r = runner.Run("gamma");
  EXPECT_LE(r.LatencyPercentile(50), r.LatencyPercentile(95));
  EXPECT_LE(r.LatencyPercentile(95), r.LatencyPercentile(99));
  EXPECT_GT(r.ThroughputOpsPerSec(), 0.0);
}

// The cross-engine differential: a device engine and a sequential CPU
// baseline process the identical generated deletion-heavy stream; for
// every batch and every query, the *net* match deltas (positive minus
// cancelled negative flips — NetDelta/NetEffect) must be identical as
// multisets.
TEST(ScenarioDifferentialTest, GammaVsCsmNetParityOnChurn) {
  ScenarioRunner runner(MiniChurnSpec(), 2024);
  ASSERT_GE(runner.queries().size(), 1u);
  ASSERT_EQ(runner.stream().size(), 3u);

  auto gamma = MakeEngine("gamma", runner.graph());
  auto csm = MakeEngine("tf", runner.graph());
  std::vector<QueryId> gids, cids;
  for (const QueryGraph& q : runner.queries()) {
    gids.push_back(gamma->AddQuery(q));
    cids.push_back(csm->AddQuery(q));
  }

  size_t deletes_seen = 0, negatives_seen = 0;
  for (const UpdateBatch& batch : runner.stream()) {
    for (const UpdateOp& op : batch) deletes_seen += op.is_insert ? 0 : 1;
    BatchReport gr = gamma->ProcessBatch(batch);
    BatchReport cr = csm->ProcessBatch(batch);
    for (size_t qi = 0; qi < gids.size(); ++qi) {
      const QueryReport* gq = gr.Find(gids[qi]);
      const QueryReport* cq = cr.Find(cids[qi]);
      ASSERT_NE(gq, nullptr);
      ASSERT_NE(cq, nullptr);
      ASSERT_FALSE(gq->Truncated());
      ASSERT_FALSE(cq->Truncated());
      std::vector<std::string> gkeys, ckeys;
      for (const MatchRecord& m : NetDelta(*gq)) gkeys.push_back(m.Key());
      for (const MatchRecord& m : NetDelta(*cq)) ckeys.push_back(m.Key());
      std::sort(gkeys.begin(), gkeys.end());
      std::sort(ckeys.begin(), ckeys.end());
      EXPECT_EQ(gkeys, ckeys);
      negatives_seen += gq->num_negative;
    }
  }
  EXPECT_GT(deletes_seen, 0u);  // the scenario really is deletion-heavy
}

// The restart and failover drills' verdict, on hand-built reports: a
// run stitched from a prefix and a tail must equal the cold run batch
// for batch, and a divergence must name the batch and the field.
TEST(StitchedRunDivergenceTest, NamesFirstDivergingBatchAndField) {
  ScenarioReport cold;
  for (size_t i = 0; i < 5; ++i) {
    ScenarioBatchMetric b;
    b.ops = 10 + i;
    b.positive_matches = 3 * i;
    b.negative_matches = i;
    b.latency_seconds = 0.001 * static_cast<double>(i + 1);
    cold.batches.push_back(b);
  }
  ScenarioReport prefix, tail;
  prefix.batches.assign(cold.batches.begin(), cold.batches.begin() + 2);
  tail.batches.assign(cold.batches.begin() + 2, cold.batches.end());
  // Timing differs between runs and is never compared.
  tail.batches[0].latency_seconds = 9.0;
  EXPECT_EQ(StitchedRunDivergence(cold, prefix, tail), "");

  ScenarioReport bad_tail = tail;
  bad_tail.batches[0].positive_matches += 1;  // stream batch 2
  EXPECT_EQ(StitchedRunDivergence(cold, prefix, bad_tail),
            "batch 2 diverges: +matches 6 vs 7");
  bad_tail = tail;
  bad_tail.batches[1].negative_matches += 1;  // stream batch 3
  EXPECT_EQ(StitchedRunDivergence(cold, prefix, bad_tail),
            "batch 3 diverges: -matches 3 vs 4");
  bad_tail = tail;
  bad_tail.batches[2].truncated_queries = 1;  // stream batch 4
  EXPECT_EQ(StitchedRunDivergence(cold, prefix, bad_tail),
            "batch 4 diverges: truncated 0 vs 1");
  ScenarioReport bad_prefix = prefix;
  bad_prefix.batches[1].ops -= 1;  // stream batch 1
  EXPECT_EQ(StitchedRunDivergence(cold, bad_prefix, tail),
            "batch 1 diverges: ops 11 vs 10");

  ScenarioReport short_tail = tail;
  short_tail.batches.pop_back();
  EXPECT_EQ(StitchedRunDivergence(cold, prefix, short_tail),
            "batch count mismatch: cold ran 5, prefix+tail ran 4");
}

}  // namespace
}  // namespace bdsm::workload
