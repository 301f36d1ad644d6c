/// Serving-layer tests (src/serve/): ShardedEngine parity against the
/// unsharded inner engine for every registry name, determinism across
/// pool sizes, query removal on shards, streaming fan-in, back-pressure
/// through the tenant front door, poisoning after a mid-batch shard
/// failure, StreamPipeline over a sharded engine, and the registry's
/// composite-spec syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_pipeline.hpp"
#include "graph/graph_generator.hpp"
#include "serve/sharded_engine.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

using workload::PreferentialSpec;
using workload::StreamGenerator;

using serve::ShardedEngine;

const char* const kAllEngines[] = {"gamma", "multi", "tf", "sym",
                                   "rf",    "cl",    "gf"};

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

QueryGraph WedgeQuery() {
  QueryGraph q({1, 0, 1});
  q.AddEdge(0, 1);
  q.AddEdge(1, 2);
  return q;
}

std::vector<QueryGraph> FiveQueries() {
  return {TriangleQuery(), PathQuery(), WedgeQuery(), PathQuery(),
          TriangleQuery()};
}

void ExpectStatsEq(const DeviceStats& a, const DeviceStats& b,
                   const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.makespan_ticks, b.makespan_ticks);
  EXPECT_EQ(a.total_busy_ticks, b.total_busy_ticks);
  EXPECT_EQ(a.total_warp_ticks, b.total_warp_ticks);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.coalesced_words, b.coalesced_words);
  EXPECT_EQ(a.uncoalesced_words, b.uncoalesced_words);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.compute_steps, b.compute_steps);
  EXPECT_EQ(a.steal_events, b.steal_events);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.transfer_bytes, b.transfer_bytes);
  EXPECT_EQ(a.transfer_ticks, b.transfer_ticks);
  EXPECT_EQ(a.peak_device_bytes, b.peak_device_bytes);
  EXPECT_EQ(a.timed_out, b.timed_out);
}

std::vector<std::string> SortedKeys(const std::vector<MatchRecord>& ms) {
  std::vector<std::string> keys = CanonicalKeys(ms);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Everything deterministic in two reports must match.  `with_stats`
/// (which also demands exact match-vector order) is dropped only for
/// inner engines whose launch decomposition legitimately changes under
/// sharding: "multi" fuses each shard's queries into shared launches,
/// so its schedule-dependent emission order and launch stats reflect
/// the decomposition, while each query's match multiset does not.
void ExpectReportsEq(const BatchReport& got, const BatchReport& want,
                     bool with_stats) {
  ASSERT_EQ(got.queries.size(), want.queries.size());
  for (size_t i = 0; i < want.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const QueryReport& g = got.queries[i];
    const QueryReport& w = want.queries[i];
    EXPECT_EQ(g.id, w.id);
    if (with_stats) {
      EXPECT_EQ(g.positive_matches, w.positive_matches);
      EXPECT_EQ(g.negative_matches, w.negative_matches);
    } else {
      EXPECT_EQ(SortedKeys(g.positive_matches),
                SortedKeys(w.positive_matches));
      EXPECT_EQ(SortedKeys(g.negative_matches),
                SortedKeys(w.negative_matches));
    }
    EXPECT_EQ(g.num_positive, w.num_positive);
    EXPECT_EQ(g.num_negative, w.num_negative);
    EXPECT_EQ(g.timed_out, w.timed_out);
    EXPECT_EQ(g.overflowed, w.overflowed);
    if (with_stats) {
      ExpectStatsEq(g.update_stats, w.update_stats, "query update_stats");
      ExpectStatsEq(g.match_stats, w.match_stats, "query match_stats");
    }
  }
  if (with_stats) {
    ExpectStatsEq(got.update_stats, want.update_stats, "update_stats");
    ExpectStatsEq(got.match_stats, want.match_stats, "match_stats");
  }
}

/// A 3-batch 2:1 mixed stream prepared against the evolving graph (the
/// per-batch sanitized form every engine will see).
std::vector<UpdateBatch> MakeStream(const LabeledGraph& g, uint64_t seed,
                                    size_t ops_per_batch = 25) {
  workload::StreamSpec spec = PreferentialSpec(ops_per_batch, 2.0 / 3);
  spec.num_batches = 3;
  return StreamGenerator(spec, seed).Generate(g);
}

// The acceptance bar: for every registry engine and several shard
// counts, the sharded report is bit-identical to the unsharded inner
// engine's over a multi-batch stream — matches (order included),
// counts, truncation flags, and, for per-query-independent engines,
// the full deterministic device stats.  "multi" fuses each shard's
// queries into shared launches, so its launch-level stats legitimately
// reflect the sharded decomposition; everything else is still
// bit-identical.
TEST(ShardedEngineTest, BitIdenticalToUnshardedForAllEngines) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, 2024);
  std::vector<UpdateBatch> stream = MakeStream(g, 2025);

  for (const char* name : kAllEngines) {
    bool with_stats = std::string(name) != "multi";
    auto reference = MakeEngine(name, g);
    for (const QueryGraph& q : FiveQueries()) reference->AddQuery(q);
    std::vector<BatchReport> want;
    for (const UpdateBatch& b : stream) {
      want.push_back(reference->ProcessBatch(b));
    }
    ASSERT_GT(want[0].TotalMatches(), 0u)
        << "workload must exercise matching";

    for (size_t shards : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(name) + " @ " + std::to_string(shards));
      ShardedEngine sharded(name, shards, g);
      for (const QueryGraph& q : FiveQueries()) sharded.AddQuery(q);
      for (size_t i = 0; i < stream.size(); ++i) {
        SCOPED_TRACE("batch " + std::to_string(i));
        BatchReport got = sharded.ProcessBatch(stream[i]);
        ExpectReportsEq(got, want[i], with_stats);
      }
      EXPECT_EQ(sharded.host_graph().NumEdges(),
                reference->host_graph().NumEdges());
    }
  }
}

// Output must not depend on the pool size: merging happens in fixed
// shard order after a barrier, never in completion order.
TEST(ShardedEngineTest, DeterministicAcrossThreadCounts) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 61);
  std::vector<UpdateBatch> stream = MakeStream(g, 62);

  for (const char* name : {"gamma", "multi", "rf"}) {
    SCOPED_TRACE(name);
    std::vector<BatchReport> baseline;
    for (size_t threads : {1u, 2u, 8u}) {
      EngineOptions opts;
      opts.serve_threads = threads;
      ShardedEngine sharded(name, /*num_shards=*/4, g, opts);
      for (const QueryGraph& q : FiveQueries()) sharded.AddQuery(q);
      for (size_t i = 0; i < stream.size(); ++i) {
        BatchReport report = sharded.ProcessBatch(stream[i]);
        if (threads == 1) {
          baseline.push_back(std::move(report));
        } else {
          SCOPED_TRACE("threads " + std::to_string(threads) + " batch " +
                       std::to_string(i));
          // Same shard decomposition -> stats identical even for multi.
          ExpectReportsEq(report, baseline[i], /*with_stats=*/true);
        }
      }
    }
  }
}

// Removing a query on one shard must not disturb the others, and a
// query added after batches have been processed must see the evolved
// graph — both compared against an unsharded engine doing the same
// add/remove sequence.
TEST(ShardedEngineTest, RemoveAndLateAddOnShards) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 71);
  std::vector<UpdateBatch> stream = MakeStream(g, 72);

  ShardedEngine sharded("gamma", 3, g);
  auto reference = MakeEngine("gamma", g);

  std::vector<QueryId> sharded_ids, ref_ids;
  for (const QueryGraph& q : FiveQueries()) {
    sharded_ids.push_back(sharded.AddQuery(q));
    ref_ids.push_back(reference->AddQuery(q));
  }
  EXPECT_EQ(sharded_ids, ref_ids);  // stable engine-scoped ids
  // Round-robin placement is deterministic.
  EXPECT_EQ(sharded.ShardOf(sharded_ids[0]), 0u);
  EXPECT_EQ(sharded.ShardOf(sharded_ids[4]), 1u);

  // Drop one query from each shard (ids 1, 2, 3 live on shards 1, 2, 0).
  for (QueryId id : {sharded_ids[1], sharded_ids[2], sharded_ids[3]}) {
    EXPECT_TRUE(sharded.RemoveQuery(id));
    EXPECT_FALSE(sharded.RemoveQuery(id));  // ids are never reused
    EXPECT_TRUE(reference->RemoveQuery(id));
  }
  EXPECT_EQ(sharded.ShardOf(sharded_ids[1]), ShardedEngine::kInvalidShard);
  EXPECT_EQ(sharded.QueryIds(), reference->QueryIds());

  ExpectReportsEq(sharded.ProcessBatch(stream[0]),
                  reference->ProcessBatch(stream[0]),
                  /*with_stats=*/true);

  // Late registration lands on a shard whose replica has evolved.
  QueryId late_s = sharded.AddQuery(WedgeQuery());
  QueryId late_r = reference->AddQuery(WedgeQuery());
  EXPECT_EQ(late_s, late_r);
  BatchReport got = sharded.ProcessBatch(stream[1]);
  BatchReport want = reference->ProcessBatch(stream[1]);
  ExpectReportsEq(got, want, /*with_stats=*/true);
  EXPECT_NE(got.Find(late_s), nullptr);
}

// Runtime query-set mutation between every batch of a longer stream —
// the registration state the persistence layer serializes.  Adds and
// removals interleave until shards empty and refill; after every
// mutation the sharded report must stay bit-identical to the unsharded
// reference, placement must stay the pure function of the public id
// (round-robin), and ids must never be reused.
TEST(ShardedEngineTest, InterleavedMutationStreamStaysBitIdentical) {
  LabeledGraph g = GenerateUniformGraph(120, 400, 3, 1, 91);
  workload::StreamSpec spec = PreferentialSpec(20, 2.0 / 3);
  spec.num_batches = 8;
  const std::vector<UpdateBatch> stream = StreamGenerator(spec, 92).Generate(g);

  constexpr size_t kShards = 3;
  ShardedEngine sharded("gamma", kShards, g);
  auto reference = MakeEngine("gamma", g);
  std::vector<QueryGraph> pool = FiveQueries();

  std::vector<QueryId> live;
  auto add = [&](const QueryGraph& q) {
    QueryId s = sharded.AddQuery(q);
    QueryId r = reference->AddQuery(q);
    ASSERT_EQ(s, r);
    // Placement is id % shards, always — the invariant that lets a
    // snapshot restore reproduce the sharding from public ids alone.
    EXPECT_EQ(sharded.ShardOf(s), s % kShards);
    live.push_back(s);
  };
  auto remove_at = [&](size_t idx) {
    QueryId id = live[idx];
    EXPECT_TRUE(sharded.RemoveQuery(id));
    EXPECT_TRUE(reference->RemoveQuery(id));
    EXPECT_FALSE(sharded.RemoveQuery(id));  // never reused
    EXPECT_EQ(sharded.ShardOf(id), ShardedEngine::kInvalidShard);
    live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
  };

  add(pool[0]);
  add(pool[1]);
  add(pool[2]);
  for (size_t step = 0; step < 8; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Mutate: drain towards empty on even steps, grow on odd ones.
    if (step % 2 == 0 && !live.empty()) {
      remove_at(step % live.size());
      if (live.size() > 1) remove_at(0);
    } else {
      add(pool[step % pool.size()]);
      add(pool[(step + 2) % pool.size()]);
    }
    EXPECT_EQ(sharded.QueryIds(), reference->QueryIds());
    EXPECT_EQ(sharded.NumQueries(), live.size());

    const UpdateBatch& b = stream[step];
    ExpectReportsEq(sharded.ProcessBatch(b), reference->ProcessBatch(b),
                    /*with_stats=*/true);
  }
  // The drain phase above must actually have emptied a shard at some
  // point for the refill path to be exercised; ids grew past 2 rounds
  // of additions either way.
  EXPECT_GE(live.size(), 1u);
}

// The mutated registration state round-trips through the snapshot
// layer: ids with gaps, their shard placement, and the queries
// themselves (RegisteredQueries / RestoreQuery are what
// persist::CaptureSnapshot serializes).
TEST(ShardedEngineTest, MutatedQuerySetSurvivesSnapshotRestore) {
  LabeledGraph g = GenerateUniformGraph(100, 320, 3, 1, 95);
  ShardedEngine sharded("gamma", 3, g);
  std::vector<QueryGraph> pool = FiveQueries();
  std::vector<QueryId> ids;
  for (const QueryGraph& q : pool) ids.push_back(sharded.AddQuery(q));
  ASSERT_TRUE(sharded.RemoveQuery(ids[1]));
  ASSERT_TRUE(sharded.RemoveQuery(ids[3]));
  QueryId late = sharded.AddQuery(WedgeQuery());  // id 5, shard 2

  std::vector<RegisteredQuery> captured = sharded.RegisteredQueries();
  ASSERT_EQ(captured.size(), 4u);
  EXPECT_EQ(captured[0].id, ids[0]);
  EXPECT_EQ(captured[1].id, ids[2]);
  EXPECT_EQ(captured[2].id, ids[4]);
  EXPECT_EQ(captured[3].id, late);
  EXPECT_EQ(captured[3].query, WedgeQuery());

  ShardedEngine restored("gamma", 3, g);
  for (const RegisteredQuery& rq : captured) {
    ASSERT_TRUE(restored.RestoreQuery(rq.query, rq.id));
  }
  EXPECT_EQ(restored.QueryIds(), sharded.QueryIds());
  for (QueryId id : restored.QueryIds()) {
    EXPECT_EQ(restored.ShardOf(id), sharded.ShardOf(id)) << id;
  }
  // Both engines assign the same fresh id next — the counter survived
  // the gaps.
  EXPECT_EQ(restored.AddQuery(PathQuery()), sharded.AddQuery(PathQuery()));
}

// Fewer queries than shards (empty shards) and zero queries: replicas
// still advance in lockstep.
TEST(ShardedEngineTest, EmptyShardsStayInLockstep) {
  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 81);
  std::vector<UpdateBatch> stream = MakeStream(g, 82, /*ops_per_batch=*/10);

  ShardedEngine sharded("gamma", 4, g);
  BatchReport empty = sharded.ProcessBatch(stream[0]);
  EXPECT_TRUE(empty.queries.empty());
  EXPECT_EQ(sharded.host_graph().NumEdges(),
            [&] {
              LabeledGraph w = g;
              ApplyBatch(&w, stream[0]);
              return w.NumEdges();
            }());

  QueryId q = sharded.AddQuery(TriangleQuery());  // three shards stay empty
  BatchReport got = sharded.ProcessBatch(stream[1]);

  LabeledGraph evolved = g;
  ApplyBatch(&evolved, stream[0]);
  auto witness = MakeEngine("gamma", evolved);
  QueryId wq = witness->AddQuery(TriangleQuery());
  BatchReport want = witness->ProcessBatch(stream[1]);
  EXPECT_EQ(got.Find(q)->positive_matches, want.Find(wq)->positive_matches);
  EXPECT_EQ(got.Find(q)->negative_matches, want.Find(wq)->negative_matches);
  ExpectStatsEq(got.match_stats, want.match_stats, "match_stats");
}

// Streaming under sharding: the fan-in preserves each query's emission
// sequence exactly as the unsharded engine streams it, and counts
// survive materialize=false.
TEST(ShardedEngineTest, StreamingFanInPreservesPerQueryOrder) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 91);
  std::vector<UpdateBatch> stream = MakeStream(g, 92);

  // "gamma" flushes per phase; "gf" delivers match-by-match through
  // DeliverDirect — both delivery paths must survive the fan-in.
  for (const char* name : {"gamma", "gf"}) {
    SCOPED_TRACE(name);
    auto reference = MakeEngine(name, g);
    ShardedEngine sharded(name, 3, g);
    for (const QueryGraph& q : FiveQueries()) {
      reference->AddQuery(q);
      sharded.AddQuery(q);
    }

    CollectingSink want_sink, got_sink;
    BatchOptions bo;
    bo.materialize = false;
    for (const UpdateBatch& b : stream) {
      bo.sink = &want_sink;
      BatchReport want = reference->ProcessBatch(b, bo);
      bo.sink = &got_sink;
      BatchReport got = sharded.ProcessBatch(b, bo);

      ExpectReportsEq(got, want, /*with_stats=*/false);
      for (const QueryReport& qr : got.queries) {
        EXPECT_TRUE(qr.positive_matches.empty());
        EXPECT_TRUE(qr.negative_matches.empty());
      }
    }
    ASSERT_GT(want_sink.TotalCount(), 0u);
    for (QueryId q : sharded.QueryIds()) {
      SCOPED_TRACE("query " + std::to_string(q));
      // Per-query arrival sequence is identical, not just the multiset.
      EXPECT_EQ(got_sink.MatchesFor(q), want_sink.MatchesFor(q));
    }
  }
}

// Back-pressure fairness through the tenant layer, the serving stack's
// ingest queue: two producers race, each ingesting into its own
// bounded tenant queue of a tenant(sharded(...)) front door
// (externally synchronized, per the Engine contract) while a consumer
// pumps.  Both tenants get admitted work and every offered op is
// accounted admitted-or-shed.
TEST(ShardedEngineTest, TwoProducersBothProgressThroughTenantLayer) {
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 137);
  std::vector<UpdateBatch> stream = MakeStream(g, 138, 40);

  EngineOptions opts;
  opts.front_door.batch_ops_init = 16;
  opts.front_door.batch_ops_min = 8;
  opts.front_door.batch_ops_max = 16;
  auto engine = MakeEngine("tenant(sharded(gamma, shards=2))", g, opts);
  TenantControl* tc = engine->tenant_control();
  ASSERT_NE(tc, nullptr);
  TenantPolicy bounded;
  bounded.queue_limit_ops = 24;
  TenantId ta = tc->RegisterTenant("a", bounded);
  TenantId tb = tc->RegisterTenant("b", bounded);
  tc->AddTenantQuery(ta, PathQuery());
  tc->AddTenantQuery(tb, WedgeQuery());

  std::mutex mu;  // the front door itself is externally synchronized
  std::vector<std::thread> producers;
  for (TenantId id : {ta, tb}) {
    producers.emplace_back([&, id] {
      for (const UpdateBatch& batch : stream) {
        std::lock_guard<std::mutex> lock(mu);
        tc->Ingest(id, batch);  // sheds past the bound, never blocks
      }
    });
  }
  bool done = false;
  std::thread consumer([&] {
    while (true) {
      bool formed;
      {
        std::lock_guard<std::mutex> lock(mu);
        FormedBatchStats fb;
        formed = tc->PumpFormedBatch(&fb);
        if (!formed && done) return;
      }
      if (!formed) std::this_thread::yield();
    }
  });
  for (std::thread& t : producers) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  consumer.join();

  for (TenantId id : {ta, tb}) {
    SCOPED_TRACE(id);
    const TenantCounters c = tc->Snapshot(id).counters;
    EXPECT_GT(c.admitted_ops, 0u);  // neither producer starved
    EXPECT_EQ(c.offered_ops, c.admitted_ops + c.shed_ops);
  }
  EXPECT_EQ(tc->PendingOps(), 0u);
}

// StreamPipeline drives a sharded engine through the same phases it
// drives any engine — bit-identical to per-batch ProcessBatch.
TEST(ShardedEngineTest, StreamPipelineOverShardedIsBitIdentical) {
  LabeledGraph g = GenerateUniformGraph(120, 420, 3, 1, 121);
  std::vector<UpdateBatch> stream = MakeStream(g, 122);

  ShardedEngine piped("gamma", 3, g);
  ShardedEngine batched("gamma", 3, g);
  for (const QueryGraph& q : FiveQueries()) {
    piped.AddQuery(q);
    batched.AddQuery(q);
  }

  StreamPipeline pipe(&piped);
  std::vector<BatchReport> got;
  PipelineStats stats = pipe.Run(stream, &got);
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_GT(stats.TotalMatches(), 0u);

  for (size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    ExpectReportsEq(got[i], batched.ProcessBatch(stream[i]),
                    /*with_stats=*/true);
  }
}

/// Host-wall test engine that applies batches to its graph and finds
/// no matches, except that its update phase throws at batch kFailAt
/// on an instance holding a query.  Under round-robin placement one
/// query lands on shard 0 only, so exactly one shard fails mid-batch.
class FailAtBatchEngine final : public Engine {
 public:
  static constexpr size_t kFailAt = 1;

  explicit FailAtBatchEngine(const LabeledGraph& g) : graph_(g) {}
  const char* Name() const override { return "fail-at-batch"; }
  EngineInfo Describe() const override {
    EngineInfo info;
    info.canonical_spec = CanonicalSpecOrName();
    return info;
  }
  QueryId AddQuery(const QueryGraph&) override {
    ids_.push_back(static_cast<QueryId>(ids_.size()));
    return ids_.back();
  }
  bool RemoveQuery(QueryId) override { return false; }
  std::vector<QueryId> QueryIds() const override { return ids_; }
  const LabeledGraph& host_graph() const override { return graph_; }

 protected:
  void RunMatchPhase(const UpdateBatch&, bool, const BatchOptions&,
                     BatchReport*) override {}
  void RunUpdatePhase(const UpdateBatch& batch, const BatchOptions&,
                      BatchReport*) override {
    if (!ids_.empty() && batches_++ == kFailAt) {
      throw std::runtime_error("injected shard failure");
    }
    ApplyBatch(&graph_, batch);
  }

 private:
  LabeledGraph graph_;
  std::vector<QueryId> ids_;
  size_t batches_ = 0;
};

// A shard failing mid-batch may leave the replicas diverged, so the
// sharded engine rethrows the failure, poisons itself, and refuses
// every later batch instead of merging inconsistent shard results.
TEST(ShardedEngineTest, ShardFailurePoisonsTheEngine) {
  EngineRegistry::Instance().Register(
      "fail-at-batch",
      [](const EngineSpec&, const LabeledGraph& g, const EngineOptions&) {
        return std::unique_ptr<Engine>(new FailAtBatchEngine(g));
      });
  LabeledGraph g = GenerateUniformGraph(100, 350, 3, 1, 141);
  std::vector<UpdateBatch> stream = MakeStream(g, 142);
  ASSERT_GT(stream.size(), FailAtBatchEngine::kFailAt + 1);

  auto engine = MakeEngine("sharded(fail-at-batch, shards=2)", g);
  auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
  ASSERT_NE(sharded, nullptr);
  sharded->AddQuery(PathQuery());
  ASSERT_EQ(sharded->ShardOf(0), 0u);

  for (size_t b = 0; b < FailAtBatchEngine::kFailAt; ++b) {
    sharded->ProcessBatch(stream[b]);
  }
  EXPECT_FALSE(sharded->Poisoned());

  // The shard's own failure surfaces unchanged.
  try {
    sharded->ProcessBatch(stream[FailAtBatchEngine::kFailAt]);
    FAIL() << "the failing shard's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected shard failure");
  }
  EXPECT_TRUE(sharded->Poisoned());

  // Every later batch fails with the poison error, not a merge.
  try {
    sharded->ProcessBatch(stream[FailAtBatchEngine::kFailAt + 1]);
    FAIL() << "a poisoned engine processed a batch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(sharded->Poisoned());
}

TEST(ShardedSpecTest, CanonicalSpecsResolve) {
  EngineRegistry& reg = EngineRegistry::Instance();
  EXPECT_TRUE(reg.Has("sharded(gamma, shards=2)"));
  EXPECT_TRUE(reg.Has("sharded(turboflux)"));  // inner aliases resolve
  EXPECT_TRUE(reg.Has("SHARDED(Gamma, shards=2)"));  // case-insensitive
  EXPECT_FALSE(reg.Has("sharded(no-such-engine, shards=2)"));
  EXPECT_FALSE(reg.Has("sharded(gamma, shards=0)"));
  EXPECT_FALSE(reg.Has("nosuchprefix(gamma, shards=2)"));
  EXPECT_FALSE(reg.Has("sharded"));  // a wrapper needs an inner spec
  // The retired ingest-queue key fails loudly, naming the valid keys.
  std::optional<std::string> retired =
      reg.Validate("sharded(gamma, queue=16)");
  ASSERT_TRUE(retired.has_value());
  EXPECT_NE(retired->find("\"queue\""), std::string::npos) << *retired;
  EXPECT_NE(retired->find("valid keys: shards, threads"), std::string::npos)
      << *retired;
  // Wrappers nest recursively in the canonical grammar.
  EXPECT_TRUE(reg.Has("sharded(sharded(rf, shards=2), shards=2)"));

  // Composite specs don't pollute the plain-name listing.
  for (const std::string& n : EngineNames()) {
    EXPECT_EQ(n.find('('), std::string::npos) << n;
  }

  LabeledGraph g = GenerateUniformGraph(60, 150, 2, 1, 131);
  auto engine = MakeEngine("SHARDED(Gamma, shards=2)", g);
  EXPECT_STREQ(engine->Name(), "sharded(gamma, shards=2)");
  EngineInfo info = engine->Describe();
  EXPECT_EQ(info.clock, ClockDomain::kModeledDevice);
  EXPECT_EQ(info.canonical_spec, "sharded(gamma, shards=2)");
  EXPECT_EQ(info.num_shards, 2u);
  EXPECT_EQ(info.inner_spec, "gamma");
  auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->NumShards(), 2u);

  auto defaulted = MakeEngine("sharded(gf)", g);
  EXPECT_STREQ(defaulted->Name(),
               ("sharded(gf, shards=" +
                std::to_string(ShardedEngine::kDefaultShards) + ")")
                   .c_str());
  // The stamped canonical spec materializes the defaulted shard count
  // (Name() and provenance agree).
  EXPECT_EQ(defaulted->Describe().canonical_spec,
            std::string(defaulted->Name()));
  EXPECT_EQ(defaulted->Describe().clock, ClockDomain::kCriticalPath);
}

// Nested wrappers must keep the critical-path clock honest: the outer
// layer's workers block on the inner pools (accruing ~no thread-CPU of
// their own), so the outer critical path has to charge each shard's
// inner critical path, not just the worker's own time.
TEST(ShardedNestingTest, NestedCriticalPathChargesInnerLayer) {
  LabeledGraph g = GenerateUniformGraph(300, 1400, 2, 1, 77);
  auto flat = MakeEngine("sharded(rf, shards=4)", g);
  auto nested = MakeEngine("sharded(sharded(rf, shards=2), shards=2)", g);
  EXPECT_EQ(nested->Describe().clock, ClockDomain::kCriticalPath);
  EXPECT_EQ(nested->Describe().num_shards, 2u);
  EXPECT_EQ(nested->Describe().inner_spec, "sharded(rf, shards=2)");
  for (Engine* e : {flat.get(), nested.get()}) {
    for (const QueryGraph& q : FiveQueries()) e->AddQuery(q);
  }
  UpdateBatch batch =
      StreamGenerator(PreferentialSpec(60, 2.0 / 3), 78).Next(g);
  BatchReport fr = flat->ProcessBatch(batch);
  BatchReport nr = nested->ProcessBatch(batch);
  EXPECT_EQ(fr.TotalMatches(), nr.TotalMatches());
  EXPECT_GT(fr.critical_path_seconds, 0.0);
  EXPECT_GT(nr.critical_path_seconds, 0.0);
  // Both decompose the same work 4 ways; without inner-layer charging
  // the nested clock would be orders of magnitude below the flat one.
  EXPECT_GT(nr.critical_path_seconds, 0.1 * fr.critical_path_seconds);
}

}  // namespace
}  // namespace bdsm
