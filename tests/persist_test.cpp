/// Persistence & recovery subsystem tests (src/persist/;
/// docs/PERSISTENCE.md): snapshot round-trip and byte-stability,
/// corrupt-artifact rejection (snapshot sections, manifest seal),
/// checkpoint policies + pruning, WAL torn-tail recovery, and the
/// headline recovery invariant — restore-at-batch-k + WAL-tail replay
/// is bit-identical to a cold full replay (matches, counts,
/// truncation flags, evolving replica, and modeled device stats) for
/// gamma / CSM / sharded engines, match-multiset-identical for the
/// fused "multi" engine, across multiple scenarios.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "persist/checkpoint.hpp"
#include "persist/crc32.hpp"
#include "persist/restart.hpp"
#include "workload/scenario_runner.hpp"

namespace bdsm::persist {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

/// Expects `fn` to throw a PersistError whose message contains `part`.
template <typename Fn>
void ExpectPersistError(Fn fn, const std::string& part) {
  try {
    fn();
    FAIL() << "expected PersistError mentioning \"" << part << "\"";
  } catch (const PersistError& e) {
    EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
        << "got: " << e.what();
  }
}

/// A small already-evolved engine with live queries: scenario smoke's
/// graph + query set, two batches applied.
std::unique_ptr<Engine> EvolvedEngine(const workload::ScenarioRunner& r,
                                      const std::string& spec,
                                      size_t batches) {
  std::unique_ptr<Engine> engine = MakeEngine(spec, r.graph());
  for (const QueryGraph& q : r.queries()) engine->AddQuery(q);
  for (size_t i = 0; i < batches; ++i) {
    engine->ProcessBatch(r.stream()[i]);
  }
  return engine;
}

const workload::ScenarioRunner& SmokeRunner() {
  static const workload::ScenarioRunner runner(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed);
  return runner;
}

// ------------------------------------------------------------------ CRC

TEST(Crc32Test, KnownAnswerAndStreaming) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chunked == one-shot.
  uint32_t piecewise = Crc32("56789", Crc32("1234"));
  EXPECT_EQ(piecewise, 0xCBF43926u);
}

// ------------------------------------------------------------- snapshot

TEST(SnapshotTest, CaptureRoundTripsThroughDisk) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> engine = EvolvedEngine(r, "gamma", 2);
  SnapshotTotals totals;
  totals.batches = 2;
  totals.ops = 96;
  totals.positive_matches = 7;
  totals.latency_seconds = 0.25;

  Snapshot snap = CaptureSnapshot(*engine, 2024, "smoke", 2, totals);
  EXPECT_EQ(snap.engine_spec, "gamma");
  EXPECT_EQ(snap.queries.size(), r.queries().size());
  EXPECT_EQ(snap.graph, engine->host_graph());

  std::string path = TempPath("snap_roundtrip.snap");
  WriteSnapshot(path, snap);
  Snapshot back = ReadSnapshot(path);
  EXPECT_EQ(back.engine_spec, snap.engine_spec);
  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.scenario, snap.scenario);
  EXPECT_EQ(back.stream_offset, snap.stream_offset);
  EXPECT_EQ(back.totals, snap.totals);
  EXPECT_EQ(back.graph, snap.graph);
  ASSERT_EQ(back.queries.size(), snap.queries.size());
  for (size_t i = 0; i < snap.queries.size(); ++i) {
    EXPECT_EQ(back.queries[i].id, snap.queries[i].id);
    EXPECT_EQ(back.queries[i].query, snap.queries[i].query);
  }
}

TEST(SnapshotTest, SerializationIsByteStable) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> engine = EvolvedEngine(r, "gamma", 2);
  Snapshot snap = CaptureSnapshot(*engine, 2024, "smoke", 2);

  std::string a = TempPath("snap_stable_a.snap");
  std::string b = TempPath("snap_stable_b.snap");
  std::string c = TempPath("snap_stable_c.snap");
  WriteSnapshot(a, snap);
  WriteSnapshot(b, snap);
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  // write -> read -> write is the identity on bytes too.
  WriteSnapshot(c, ReadSnapshot(a));
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(c));
}

TEST(SnapshotTest, RejectsCorruptionWithNamedErrors) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> engine = EvolvedEngine(r, "gamma", 1);
  Snapshot snap = CaptureSnapshot(*engine, 2024, "smoke", 1);
  std::string path = TempPath("snap_corrupt.snap");
  WriteSnapshot(path, snap);
  const std::string good = ReadFileBytes(path);

  ExpectPersistError([&] { ReadSnapshot(TempPath("missing.snap")); },
                     "no such file");

  std::string bad = good;
  bad[0] = 'X';
  WriteFileBytes(path, bad);
  ExpectPersistError([&] { ReadSnapshot(path); }, "bad magic");

  bad = good;
  bad[8] = 9;  // version field
  WriteFileBytes(path, bad);
  ExpectPersistError([&] { ReadSnapshot(path); }, "format version");

  // Flip one byte inside the graph section's payload: the section CRC
  // must catch it and the message must name the section.
  bad = good;
  bad[good.size() / 2] ^= 0x40;
  WriteFileBytes(path, bad);
  ExpectPersistError([&] { ReadSnapshot(path); }, "CRC");

  // Truncation mid-section.
  WriteFileBytes(path, good.substr(0, good.size() - 7));
  ExpectPersistError([&] { ReadSnapshot(path); }, "truncated");
}

TEST(SnapshotTest, EveryRegistryLeafSupportsSnapshots) {
  const workload::ScenarioRunner& r = SmokeRunner();
  for (const char* spec :
       {"gamma", "multi", "tf", "sym", "rf", "cl", "gf",
        "sharded(gamma, shards=2)", "sharded(rf, shards=2)"}) {
    std::unique_ptr<Engine> engine = MakeEngine(spec, r.graph());
    EXPECT_TRUE(engine->Describe().supports_snapshot) << spec;
  }
}

TEST(SnapshotTest, RegisteredQueriesSurviveRemovalGaps) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::unique_ptr<Engine> engine =
      MakeEngine("sharded(gamma, shards=2)", r.graph());
  QueryId a = engine->AddQuery(r.queries()[0]);
  QueryId b = engine->AddQuery(r.queries()[1]);
  QueryId c = engine->AddQuery(r.queries()[0]);
  ASSERT_TRUE(engine->RemoveQuery(b));

  Snapshot snap = CaptureSnapshot(*engine, 1, "", 0);
  ASSERT_EQ(snap.queries.size(), 2u);
  EXPECT_EQ(snap.queries[0].id, a);
  EXPECT_EQ(snap.queries[1].id, c);

  std::unique_ptr<Engine> restored = BuildEngineFromSnapshot(snap);
  EXPECT_EQ(restored->QueryIds(), engine->QueryIds());
  // The id counter advanced past the gap: the next id is fresh on both.
  EXPECT_EQ(restored->AddQuery(r.queries()[1]),
            engine->AddQuery(r.queries()[1]));
}

TEST(SnapshotTest, RestoreQueryRefusesOutOfOrderIds) {
  const workload::ScenarioRunner& r = SmokeRunner();
  for (const char* spec : {"gamma", "multi", "tf",
                           "sharded(gamma, shards=2)"}) {
    std::unique_ptr<Engine> engine = MakeEngine(spec, r.graph());
    EXPECT_TRUE(engine->RestoreQuery(r.queries()[0], 3)) << spec;
    // 3 is live, 2 is behind the counter: both must be refused.
    EXPECT_FALSE(engine->RestoreQuery(r.queries()[1], 3)) << spec;
    EXPECT_FALSE(engine->RestoreQuery(r.queries()[1], 2)) << spec;
    EXPECT_TRUE(engine->RestoreQuery(r.queries()[1], 7)) << spec;
    EXPECT_EQ(engine->QueryIds(), (std::vector<QueryId>{3, 7})) << spec;
  }
}

// ------------------------------------------------------------- manifest

TEST(ManifestTest, RoundTripAndSealedAgainstCorruption) {
  std::string dir = TempDir("manifest_rt");
  fs::create_directories(dir);
  Manifest m;
  m.engine_spec = "sharded(gamma, shards=4)";
  m.scenario = "churn";
  m.seed = 77;
  m.snapshot_file = "snapshot-0000000004.snap";
  m.snapshot_batch = 4;
  m.wal = {{"wal-0000000004.trc", 4}, {"wal-0000000260.trc", 260}};
  WriteManifest(dir, m);
  EXPECT_EQ(ReadManifest(dir), m);

  // Flip a byte in the body: the CRC seal must reject it.
  std::string path = dir + "/" + kManifestFileName;
  std::string bytes = ReadFileBytes(path);
  std::string bad = bytes;
  bad[bytes.find("churn")] = 'x';
  WriteFileBytes(path, bad);
  ExpectPersistError([&] { ReadManifest(dir); }, "CRC seal");

  // Truncation loses the seal line entirely.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 14));
  ExpectPersistError([&] { ReadManifest(dir); }, "seal");

  ExpectPersistError([&] { ReadManifest(TempDir("manifest_none")); },
                     "no checkpoint");
}

// -------------------------------------------------- checkpoint policies

TEST(CheckpointerTest, EveryBatchesPolicySnapshotsAndPrunes) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("ckpt_policy_batches");
  std::unique_ptr<Engine> engine = MakeEngine("gamma", r.graph());
  for (const QueryGraph& q : r.queries()) engine->AddQuery(q);

  Checkpointer cp(dir, CheckpointPolicy{.every_batches = 1,
                                        .every_updates = 0,
                                        .prune = true});
  cp.Begin(*engine, 2024, "smoke");
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
  }
  cp.Finish();
  // Base snapshot + one per batch.
  EXPECT_EQ(cp.snapshots_taken(), 1 + r.stream().size());
  EXPECT_EQ(cp.totals().batches, r.stream().size());

  // Pruning leaves exactly the latest snapshot + the tail segment(s).
  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  Manifest m = ReadManifest(dir);
  EXPECT_EQ(m.snapshot_batch, r.stream().size());
  std::set<std::string> expected = {kManifestFileName, m.snapshot_file};
  for (const WalSegment& seg : m.wal) expected.insert(seg.file);
  EXPECT_EQ(files, expected);

  // Restore from the final checkpoint: nothing left to replay.
  RestoredEngine restored = RestoreEngine(dir);
  EXPECT_EQ(restored.next_batch, r.stream().size());
  EXPECT_EQ(restored.wal_batches_replayed, 0u);
  EXPECT_FALSE(restored.wal_tail_torn);
  EXPECT_EQ(restored.engine->host_graph(), engine->host_graph());
}

TEST(CheckpointerTest, EveryUpdatesPolicyTriggersOnOps) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("ckpt_policy_updates");
  std::unique_ptr<Engine> engine = MakeEngine("gamma", r.graph());
  for (const QueryGraph& q : r.queries()) engine->AddQuery(q);

  // Smoke batches carry ~48 ops: a 60-op budget fires roughly every
  // other batch, strictly more than the base snapshot alone.
  Checkpointer cp(dir, CheckpointPolicy{.every_batches = 0,
                                        .every_updates = 60,
                                        .prune = true});
  cp.Begin(*engine, 2024, "smoke");
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
  }
  cp.Finish();
  EXPECT_GT(cp.snapshots_taken(), 1u);
  EXPECT_LT(ReadManifest(dir).snapshot_batch, r.stream().size());
}

TEST(CheckpointerTest, BeginSweepsStaleArtifacts) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("ckpt_sweep");
  fs::create_directories(dir);
  WriteFileBytes(dir + "/snapshot-0000000099.snap", "stale");
  WriteFileBytes(dir + "/wal-0000000099.trc", "stale");
  WriteFileBytes(dir + "/README.txt", "user file, not ours");

  std::unique_ptr<Engine> engine = MakeEngine("gamma", r.graph());
  Checkpointer cp(dir);
  cp.Begin(*engine, 1, "");
  cp.Finish();
  EXPECT_FALSE(fs::exists(dir + "/snapshot-0000000099.snap"));
  EXPECT_FALSE(fs::exists(dir + "/wal-0000000099.trc"));
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));  // never touch user files
  EXPECT_NO_THROW(RestoreEngine(dir));
}

// ---------------------------------------------------- torn-tail recovery

TEST(WalTest, TornTailRecoversToLastDurableBatch) {
  const workload::ScenarioRunner& r = SmokeRunner();
  std::string dir = TempDir("ckpt_torn");
  std::unique_ptr<Engine> engine = MakeEngine("gamma", r.graph());
  for (const QueryGraph& q : r.queries()) engine->AddQuery(q);

  Checkpointer cp(dir);  // base snapshot only; the whole stream is WAL
  cp.Begin(*engine, 2024, "smoke");
  for (const UpdateBatch& batch : r.stream()) {
    BatchReport report = engine->ProcessBatch(batch);
    cp.OnBatchApplied(*engine, batch, report);
  }
  cp.Finish();

  // Crash surgery: tear the final bytes of the last WAL segment.
  Manifest m = ReadManifest(dir);
  ASSERT_FALSE(m.wal.empty());
  std::string seg = dir + "/" + m.wal.back().file;
  std::string bytes = ReadFileBytes(seg);
  WriteFileBytes(seg, bytes.substr(0, bytes.size() - 3));

  RestoredEngine restored = RestoreEngine(dir);
  EXPECT_TRUE(restored.wal_tail_torn);
  // The torn batch is gone; everything before it replayed.
  EXPECT_EQ(restored.next_batch, r.stream().size() - 1);
  EXPECT_EQ(restored.wal_batches_replayed, r.stream().size() - 1);

  // Finishing the lost batch converges with the uninterrupted engine.
  restored.engine->ProcessBatch(r.stream().back());
  EXPECT_EQ(restored.engine->host_graph(), engine->host_graph());
}

TEST(WalTest, RolledBackHeaderOnRotatedSegmentLosesNothing) {
  // Power-loss shape the rotation fsync guards against — and the
  // reader tolerates regardless: a rotated (non-final) segment whose
  // patched header count rolled back to the placeholder 0.  The
  // batches' bytes are durable, so replay must see all of them.
  std::string dir = TempDir("wal_header_rollback");
  fs::create_directories(dir);
  std::vector<UpdateBatch> batches = {
      {UpdateOp{true, 1, 2, 0}},
      {UpdateOp{true, 3, 4, 0}},
      {UpdateOp{false, 1, 2, 0}}};
  WalOptions opts;
  opts.batches_per_segment = 2;  // forces a rotation at batch 2
  std::vector<WalSegment> segments;
  {
    WalWriter wal(dir, workload::TraceMeta{1, "t"}, opts);
    for (const UpdateBatch& b : batches) wal.Append(b);
    ASSERT_TRUE(wal.ok());
    wal.Close();
    segments = wal.segments();
  }
  ASSERT_EQ(segments.size(), 2u);

  // Roll the first (non-final) segment's header count back to 0.
  std::string first = dir + "/" + segments[0].file;
  std::string bytes = ReadFileBytes(first);
  for (int i = 0; i < 8; ++i) bytes[24 + i] = '\0';  // num_batches field
  WriteFileBytes(first, bytes);

  bool torn = false;
  std::vector<UpdateBatch> replayed = ReadWalTail(dir, segments, 0, &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(replayed, batches);

  // A non-final segment that is actually SHORT is data loss, not a
  // recoverable tail.
  WriteFileBytes(first, ReadFileBytes(first).substr(0, bytes.size() - 4));
  ExpectPersistError([&] { ReadWalTail(dir, segments, 0); },
                     "corrupt mid-stream");
}

// --------------------------------------- restore == cold replay (core)

struct RestoreCase {
  const char* scenario;
  const char* engine;
  /// Bit-identical per-query match *vectors* (order included); false
  /// for "multi", whose fused-launch emission order legitimately
  /// differs after the snapshot decomposes construction — its match
  /// multisets must still be identical.
  bool bitwise;
};

class RestoreParityTest : public ::testing::TestWithParam<RestoreCase> {};

TEST_P(RestoreParityTest, WarmRestoreMatchesColdReplay) {
  const RestoreCase& param = GetParam();
  workload::ScenarioRunner runner(*workload::FindScenario(param.scenario),
                                  workload::kDefaultScenarioSeed);
  const std::vector<UpdateBatch>& stream = runner.stream();
  const size_t kill = stream.size() / 2;

  // Cold reference: one engine, the whole stream.
  std::unique_ptr<Engine> cold = MakeEngine(param.engine, runner.graph());
  for (const QueryGraph& q : runner.queries()) cold->AddQuery(q);
  std::vector<BatchReport> cold_tail;
  for (size_t i = 0; i < stream.size(); ++i) {
    BatchReport report = cold->ProcessBatch(stream[i]);
    if (i >= kill) cold_tail.push_back(std::move(report));
  }

  // Warm path: checkpoint the first half (snapshot every 2 batches, so
  // the restore point uses snapshot + a WAL tail, not just a
  // snapshot), die, restore, finish.
  std::string dir = TempDir("ckpt_parity");
  {
    std::unique_ptr<Engine> dying = MakeEngine(param.engine, runner.graph());
    for (const QueryGraph& q : runner.queries()) dying->AddQuery(q);
    Checkpointer cp(dir, CheckpointPolicy{.every_batches = 2,
                                          .every_updates = 0,
                                          .prune = true});
    cp.Begin(*dying, runner.seed(), param.scenario);
    for (size_t i = 0; i < kill; ++i) {
      BatchReport report = dying->ProcessBatch(stream[i]);
      cp.OnBatchApplied(*dying, stream[i], report);
    }
  }
  RestoredEngine restored = RestoreEngine(dir);
  EXPECT_EQ(restored.next_batch, kill);
  EXPECT_EQ(restored.manifest.engine_spec,
            cold->Describe().canonical_spec);

  // The tail must reproduce the cold run bit for bit.
  for (size_t i = kill; i < stream.size(); ++i) {
    BatchReport warm = restored.engine->ProcessBatch(stream[i]);
    const BatchReport& ref = cold_tail[i - kill];
    ASSERT_EQ(warm.queries.size(), ref.queries.size()) << "batch " << i;
    for (size_t q = 0; q < ref.queries.size(); ++q) {
      const QueryReport& wq = warm.queries[q];
      const QueryReport& rq = ref.queries[q];
      ASSERT_EQ(wq.id, rq.id) << "batch " << i;
      EXPECT_EQ(wq.num_positive, rq.num_positive) << "batch " << i;
      EXPECT_EQ(wq.num_negative, rq.num_negative) << "batch " << i;
      EXPECT_EQ(wq.timed_out, rq.timed_out) << "batch " << i;
      EXPECT_EQ(wq.overflowed, rq.overflowed) << "batch " << i;
      if (param.bitwise) {
        EXPECT_EQ(wq.positive_matches, rq.positive_matches)
            << "batch " << i << " query " << q;
        EXPECT_EQ(wq.negative_matches, rq.negative_matches)
            << "batch " << i << " query " << q;
      } else {
        EXPECT_EQ(CanonicalKeys(wq.positive_matches),
                  CanonicalKeys(rq.positive_matches))
            << "batch " << i << " query " << q;
        EXPECT_EQ(CanonicalKeys(wq.negative_matches),
                  CanonicalKeys(rq.negative_matches))
            << "batch " << i << " query " << q;
      }
    }
    if (param.bitwise) {
      // The matching kernels' modeled stats reproduce too: candidate
      // structures and match schedules are pure functions of (graph,
      // query).  update_stats is *not* asserted — the GPMA's physical
      // segment layout after a warm bulk-build legitimately differs
      // from the incrementally-evolved one, so the update kernel's
      // memory-traffic counters may differ (docs/PERSISTENCE.md).
      EXPECT_EQ(warm.match_stats, ref.match_stats) << "batch " << i;
    }
  }
  EXPECT_EQ(restored.engine->host_graph(), cold->host_graph());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndScenarios, RestoreParityTest,
    ::testing::Values(
        RestoreCase{"smoke", "gamma", true},
        RestoreCase{"smoke", "tf", true},
        RestoreCase{"smoke", "multi", false},
        RestoreCase{"smoke", "sharded(gamma, shards=4)", true},
        RestoreCase{"churn", "gamma", true},
        RestoreCase{"churn", "rf", true},
        RestoreCase{"churn", "sharded(gamma, shards=4)", true},
        RestoreCase{"churn", "multi", false}),
    [](const ::testing::TestParamInfo<RestoreCase>& info) {
      std::string name = std::string(info.param.scenario) + "_" +
                         info.param.engine;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ------------------------------------------- restart drill + serving tee

TEST(RestartScenarioTest, StitchedRunEqualsColdRun) {
  RestartOutcome outcome = RunRestartScenario(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed,
      "sharded(gamma, shards=2)", 2, TempDir("ckpt_drill"));
  EXPECT_TRUE(outcome.identical) << outcome.detail;
  EXPECT_EQ(outcome.restored_at, 2u);
  EXPECT_EQ(outcome.prefix.batches.size() + outcome.tail.batches.size(),
            outcome.cold.batches.size());
  EXPECT_EQ(outcome.restored_totals.batches, 2u);
}

TEST(RestartScenarioTest, KillPointBeyondStreamClamps) {
  RestartOutcome outcome = RunRestartScenario(
      *workload::FindScenario("smoke"), workload::kDefaultScenarioSeed,
      "gamma", 999, TempDir("ckpt_drill_clamp"));
  EXPECT_TRUE(outcome.identical) << outcome.detail;
  EXPECT_TRUE(outcome.tail.batches.empty());
}

}  // namespace
}  // namespace bdsm::persist
