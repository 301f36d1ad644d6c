/// Stream-pipeline tests: the asynchronous overlap must be a pure
/// scheduling change — results identical to per-batch ProcessBatch for
/// every engine it drives, the end-of-batch hook (a replica group's
/// WAL tee) and the obs publish included — the bookkeeping
/// (hidden-prep accounting, per-batch stats) sane, and every report's
/// `latency_seconds` stamped on the engine's own clock on both paths.
#include <gtest/gtest.h>

#include <functional>

#include "core/stream_pipeline.hpp"
#include "graph/graph_generator.hpp"
#include "obs/metrics.hpp"
#include "workload/scenario_runner.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

std::vector<UpdateBatch> MakeStream(const LabeledGraph& g, size_t batches,
                                    size_t ops, uint64_t seed) {
  // 2:1 mixed batches generated against the evolving graph so they stay
  // valid.
  workload::StreamSpec spec = workload::PreferentialSpec(ops, 2.0 / 3);
  spec.num_batches = batches;
  return workload::StreamGenerator(spec, seed).Generate(g);
}

QueryGraph TestQuery() {
  QueryGraph q({0, 1, 1});
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

TEST(StreamPipelineTest, MatchesSerialProcessing) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 61);
  QueryGraph q = TestQuery();
  auto stream = MakeStream(g, 5, 40, 62);

  EngineOptions opts;
  opts.gamma.device.num_sms = 2;

  // Serial reference.
  auto serial = MakeEngine("gamma", g, opts);
  QueryId sq = serial->AddQuery(q);
  std::vector<std::vector<std::string>> want;
  for (const UpdateBatch& b : stream) {
    BatchReport r = serial->ProcessBatch(b);
    const QueryReport* qr = r.Find(sq);
    ASSERT_NE(qr, nullptr);
    auto keys = CanonicalKeys(qr->positive_matches);
    auto neg = CanonicalKeys(qr->negative_matches);
    keys.insert(keys.end(), neg.begin(), neg.end());
    want.push_back(keys);
  }

  // Pipelined run.
  auto pipelined = MakeEngine("gamma", g, opts);
  QueryId pq = pipelined->AddQuery(q);
  StreamPipeline pipe(pipelined.get());
  std::vector<BatchReport> reports;
  PipelineStats stats = pipe.Run(stream, &reports);

  ASSERT_EQ(reports.size(), stream.size());
  ASSERT_EQ(stats.batches.size(), stream.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    const QueryReport* qr = reports[i].Find(pq);
    ASSERT_NE(qr, nullptr);
    auto keys = CanonicalKeys(qr->positive_matches);
    auto neg = CanonicalKeys(qr->negative_matches);
    keys.insert(keys.end(), neg.begin(), neg.end());
    EXPECT_EQ(keys, want[i]) << "batch " << i;
  }
}

// The acceptance bar for multi-query pipelining: StreamPipeline over a
// device engine with several queries must be *bit-identical* to
// per-batch ProcessBatch — same match vectors in the same order, same
// stats.  The stream is raw, so the async preparation really sanitizes
// against the engine's host graph while the positive phase runs: the
// one canonical graph every query's deltas read, in "gamma" and "multi"
// alike.  Under TSan this also checks that overlap is race-free.
TEST(StreamPipelineTest, OverDeviceEnginesBitIdenticalToPerBatch) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 71);
  std::vector<UpdateBatch> stream = MakeStream(g, 6, 40, 72);
  QueryGraph wedge({1, 0, 1});
  wedge.AddEdge(0, 1);
  wedge.AddEdge(1, 2);

  EngineOptions opts;
  opts.gamma.device.num_sms = 2;

  for (const char* name : {"multi", "gamma"}) {
    SCOPED_TRACE(name);
    auto serial = MakeEngine(name, g, opts);
    auto pipelined = MakeEngine(name, g, opts);
    for (const QueryGraph& q : {TestQuery(), PathQuery(), wedge}) {
      ASSERT_EQ(serial->AddQuery(q), pipelined->AddQuery(q));
    }

    std::vector<BatchReport> want;
    for (const UpdateBatch& b : stream) {
      want.push_back(serial->ProcessBatch(b));
    }
    StreamPipeline pipe(pipelined.get());
    std::vector<BatchReport> got;
    pipe.Run(stream, &got);

    ASSERT_EQ(got.size(), want.size());
    size_t matches = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].queries.size(), 3u);
      ASSERT_EQ(want[i].queries.size(), 3u);
      for (size_t q = 0; q < 3; ++q) {
        const QueryReport& p = got[i].queries[q];
        const QueryReport& w = want[i].queries[q];
        EXPECT_EQ(p.id, w.id);
        // Bit-identical: exact vectors, not just canonicalized sets.
        EXPECT_EQ(p.positive_matches, w.positive_matches)
            << "batch " << i << " query " << q;
        EXPECT_EQ(p.negative_matches, w.negative_matches)
            << "batch " << i << " query " << q;
        EXPECT_EQ(p.update_stats, w.update_stats);
        EXPECT_EQ(p.match_stats, w.match_stats);
        matches += w.TotalMatches();
      }
      EXPECT_EQ(got[i].update_stats, want[i].update_stats);
      EXPECT_EQ(got[i].match_stats, want[i].match_stats);
    }
    EXPECT_GT(matches, 0u);
    EXPECT_EQ(pipelined->host_graph(), serial->host_graph());
  }
}

// CPU (CSM) engines cannot split their phases; the pipeline must still
// produce the same results as per-batch ProcessBatch.
TEST(StreamPipelineTest, OverCsmEngineMatchesPerBatch) {
  LabeledGraph g = GenerateUniformGraph(100, 320, 2, 1, 73);
  auto stream = MakeStream(g, 3, 25, 74);

  auto serial = MakeEngine("rf", g);
  auto pipelined = MakeEngine("rf", g);
  QueryId sq = serial->AddQuery(TestQuery());
  QueryId pq = pipelined->AddQuery(TestQuery());

  std::vector<BatchReport> want;
  for (const UpdateBatch& b : stream) {
    want.push_back(serial->ProcessBatch(b));
  }
  StreamPipeline pipe(pipelined.get());
  std::vector<BatchReport> got;
  pipe.Run(stream, &got);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].Find(pq)->positive_matches,
              want[i].Find(sq)->positive_matches);
    EXPECT_EQ(got[i].Find(pq)->negative_matches,
              want[i].Find(sq)->negative_matches);
  }
}

TEST(StreamPipelineTest, StatsAreConsistent) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 2, 1, 63);
  QueryGraph q = TestQuery();
  auto stream = MakeStream(g, 4, 30, 64);

  auto engine = MakeEngine("gamma", g);
  QueryId qid = engine->AddQuery(q);
  StreamPipeline pipe(engine.get());
  std::vector<BatchReport> reports;
  PipelineStats stats = pipe.Run(stream, &reports);

  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.total_hidden_seconds, 0.0);
  size_t total = 0;
  for (size_t i = 0; i < stats.batches.size(); ++i) {
    const PipelineBatchStats& b = stats.batches[i];
    const QueryReport* qr = reports[i].Find(qid);
    EXPECT_EQ(b.applied_ops, stream[i].size());
    EXPECT_EQ(b.positive_matches, qr->positive_matches.size());
    EXPECT_EQ(b.negative_matches, qr->negative_matches.size());
    EXPECT_GE(b.prep_seconds, b.prep_hidden_seconds);
    total += b.positive_matches + b.negative_matches;
  }
  EXPECT_EQ(stats.TotalMatches(), total);
}

TEST(StreamPipelineTest, EmptyStream) {
  LabeledGraph g = GenerateUniformGraph(50, 120, 2, 1, 65);
  auto engine = MakeEngine("gamma", g);
  engine->AddQuery(TestQuery());
  StreamPipeline pipe(engine.get());
  PipelineStats stats = pipe.Run({});
  EXPECT_TRUE(stats.batches.empty());
  EXPECT_EQ(stats.TotalMatches(), 0u);
}

TEST(StreamPipelineTest, GraphStateTracksStream) {
  LabeledGraph g = GenerateUniformGraph(100, 300, 2, 1, 66);
  auto stream = MakeStream(g, 3, 25, 67);
  LabeledGraph expected = g;
  for (const auto& b : stream) ApplyBatch(&expected, b);

  auto engine = MakeEngine("gamma", g);
  engine->AddQuery(TestQuery());
  StreamPipeline pipe(engine.get());
  pipe.Run(stream);
  EXPECT_EQ(engine->host_graph().NumEdges(), expected.NumEdges());
  EXPECT_EQ(engine->host_graph().CollectEdges(), expected.CollectEdges());
}

// Streaming delivery through the pipeline equals the materialized
// per-batch reports.
TEST(StreamPipelineTest, SinkThroughPipeline) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 68);
  auto stream = MakeStream(g, 3, 30, 69);

  auto engine = MakeEngine("gamma", g);
  QueryId qid = engine->AddQuery(TestQuery());

  CollectingSink sink;
  BatchOptions bo;
  bo.sink = &sink;
  bo.materialize = false;
  StreamPipeline pipe(engine.get());
  std::vector<BatchReport> reports;
  pipe.Run(stream, &reports, bo);

  size_t counted = 0;
  for (const BatchReport& r : reports) {
    const QueryReport* qr = r.Find(qid);
    EXPECT_TRUE(qr->positive_matches.empty());  // not materialized
    EXPECT_TRUE(qr->negative_matches.empty());
    counted += qr->TotalMatches();
  }
  EXPECT_EQ(sink.MatchesFor(qid).size(), counted);
  EXPECT_GT(counted, 0u);
}

// A replica group tees each digested batch into its WAL and advances
// its followers from the end-of-batch hook.  The pipeline runs the
// engine's own batch loop, so pipelined batches must ship exactly like
// ProcessBatch'd ones and the drained followers must equal the leader.
TEST(StreamPipelineTest, OverReplicaGroupShipsEveryBatch) {
  workload::ScenarioRunner runner(*workload::FindScenario("smoke"),
                                  workload::kDefaultScenarioSeed);
  const std::vector<UpdateBatch>& stream = runner.stream();
  ASSERT_FALSE(stream.empty());

  auto engine =
      MakeEngine("replicated(gamma, followers=2)", runner.graph());
  for (const QueryGraph& q : runner.queries()) engine->AddQuery(q);
  ReplicationControl* rc = engine->replication_control();
  ASSERT_NE(rc, nullptr);
  StreamPipeline pipe(engine.get());
  pipe.Run(stream);

  ReplicationStats stats = rc->Stats();
  EXPECT_EQ(stats.leader_batches, stream.size());
  EXPECT_EQ(stats.shipped_batches, 2 * stream.size());
  rc->DrainFollowers();
  ASSERT_EQ(rc->NumFollowers(), 2u);
  for (size_t i = 0; i < rc->NumFollowers(); ++i) {
    SCOPED_TRACE("follower " + std::to_string(i));
    const Engine* follower = rc->FollowerEngine(i);
    ASSERT_NE(follower, nullptr);
    EXPECT_EQ(follower->host_graph(), engine->host_graph());
    EXPECT_EQ(follower->QueryIds(), engine->QueryIds());
  }
}

#if BDSM_OBS
// Pipelined batches publish the same engine counters a ProcessBatch
// run does (the obs publish is part of the engine's batch loop).
TEST(StreamPipelineTest, PublishesTheSameEngineCountersAsProcessBatch) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 75);
  auto stream = MakeStream(g, 4, 30, 76);
  auto counters = [&](bool pipelined) {
    obs::MetricsRegistry::Instance().Reset();
    obs::SetEnabled(true);
    auto engine = MakeEngine("gamma", g);
    engine->AddQuery(TestQuery());
    if (pipelined) {
      StreamPipeline(engine.get()).Run(stream);
    } else {
      for (const UpdateBatch& b : stream) engine->ProcessBatch(b);
    }
    obs::SetEnabled(false);
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Instance().Snapshot();
    obs::MetricsRegistry::Instance().Reset();
    return std::make_pair(snap.CounterValue("engine.batches"),
                          snap.CounterValue("engine.ops"));
  };
  const auto serial = counters(/*pipelined=*/false);
  const auto pipelined = counters(/*pipelined=*/true);
  EXPECT_EQ(serial.first, stream.size());
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(pipelined.first, serial.first);
  EXPECT_EQ(pipelined.second, serial.second);
}
#endif

// BatchReport::latency_seconds is stamped once, by the engine's batch
// loop, on the engine's own clock — through ProcessBatch and
// StreamPipeline alike.  Each case states the clock's value from the
// report's own fields: modeled engines (and wrappers over one) equal
// ModeledSeconds under the engine's DeviceConfig bit for bit, CPU
// engines their host wall time, sharded CPU engines their critical
// path.
TEST(StreamPipelineTest, LatencySecondsIsTheEngineClockOnBothPaths) {
  LabeledGraph g = GenerateUniformGraph(150, 500, 3, 1, 77);
  auto stream = MakeStream(g, 4, 30, 78);
  EngineOptions opts;
  opts.gamma.device.num_sms = 2;
  // A slow modeled clock (10 us per tick, not the default): the device
  // makespan, not the measured host preprocess, then decides the
  // modeled max, so a stamp on the wrong tick cannot pass.
  opts.gamma.device.clock_ghz = 1e-4;
  const auto modeled = [&](const BatchReport& r) {
    return r.ModeledSeconds(opts.gamma.device);
  };
  const auto host_wall = [](const BatchReport& r) {
    return r.host_wall_seconds;
  };
  const auto critical_path = [](const BatchReport& r) {
    return r.critical_path_seconds;
  };
  const std::vector<
      std::pair<const char*, std::function<double(const BatchReport&)>>>
      cases = {
          {"gamma", modeled},
          {"multi", modeled},
          {"rf", host_wall},
          {"sharded(rf, shards=2)", critical_path},
          {"tenant(gamma)", modeled},
          {"replicated(gamma)", modeled},
      };
  for (const auto& [spec, expected] : cases) {
    SCOPED_TRACE(spec);
    for (bool pipelined : {false, true}) {
      SCOPED_TRACE(pipelined ? "StreamPipeline" : "ProcessBatch");
      auto engine = MakeEngine(spec, g, opts);
      engine->AddQuery(TestQuery());
      engine->AddQuery(PathQuery());
      std::vector<BatchReport> reports;
      if (pipelined) {
        StreamPipeline(engine.get()).Run(stream, &reports);
      } else {
        for (const UpdateBatch& b : stream) {
          reports.push_back(engine->ProcessBatch(b));
        }
      }
      ASSERT_EQ(reports.size(), stream.size());
      for (size_t i = 0; i < reports.size(); ++i) {
        EXPECT_GT(reports[i].latency_seconds, 0.0) << "batch " << i;
        EXPECT_EQ(reports[i].latency_seconds, expected(reports[i]))
            << "batch " << i;
      }
    }
  }
}

}  // namespace
}  // namespace bdsm
