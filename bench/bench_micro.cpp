/// Micro-benchmarks (google-benchmark) for the substrate hot paths: the
/// operations §I identifies as dominating subgraph matching (set
/// intersections / adjacency probes), GPMA updates, incremental
/// encoding, and the unified engine layer (dispatch + streaming
/// delivery overhead).  Not a paper table — engineering guardrails.
///
/// Like every other bench, accepts `--json <path>` (perf-trajectory
/// schema in docs/BENCHMARKS.md): each google-benchmark run lands as
/// one row (name, iterations, real/cpu time in the run's time unit).
/// The flag is peeled off before google-benchmark parses the rest of
/// the command line, so all `--benchmark_*` flags keep working.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_common.hpp"
#include "core/encoder.hpp"
#include "core/engine.hpp"
#include "gpma/gpma.hpp"
#include "gpusim/device.hpp"
#include "graph/graph_generator.hpp"
#include "util/timer.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm {
namespace {

LabeledGraph& BenchGraph() {
  static LabeledGraph g = [] {
    GeneratorParams p;
    p.num_vertices = 4000;
    p.avg_degree = 12;
    p.vertex_labels = 5;
    p.seed = 7;
    return GeneratePowerLawGraph(p);
  }();
  return g;
}

QueryGraph BenchQuery() {
  QueryGraph q({0, 1, 1, 2});
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(1, 2);
  q.AddEdge(1, 3);
  return q;
}

void BM_GpmaBuild(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  for (auto _ : state) {
    Gpma gpma(32);
    gpma.BuildFrom(g);
    benchmark::DoNotOptimize(gpma.NumEdges());
  }
}
BENCHMARK(BM_GpmaBuild);

void BM_GpmaBatchInsert(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  workload::StreamSpec growth =
      workload::PreferentialSpec(static_cast<size_t>(state.range(0)), 1);
  UpdateBatch batch = workload::StreamGenerator(growth, 11).Next(g);
  for (auto _ : state) {
    state.PauseTiming();
    Gpma gpma(32);
    gpma.BuildFrom(g);
    state.ResumeTiming();
    UpdatePlan plan = gpma.ApplyBatch(batch);
    benchmark::DoNotOptimize(plan.ops.size());
  }
}
BENCHMARK(BM_GpmaBatchInsert)->Arg(64)->Arg(256)->Arg(1024);

void BM_GpmaNeighborScan(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  Gpma gpma(32);
  gpma.BuildFrom(g);
  std::vector<Neighbor> scratch;
  VertexId v = 0;
  for (auto _ : state) {
    gpma.NeighborsInto(v, &scratch);
    benchmark::DoNotOptimize(scratch.size());
    v = (v + 17) % static_cast<VertexId>(g.NumVertices());
  }
}
BENCHMARK(BM_GpmaNeighborScan);

void BM_GpmaEdgeProbe(benchmark::State& state) {
  // The "set intersection" primitive: adjacency membership probes are
  // 58.2% of matching runtime per the paper's citation [20].
  LabeledGraph& g = BenchGraph();
  Gpma gpma(32);
  gpma.BuildFrom(g);
  VertexId a = 1, b = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpma.HasEdge(a, b));
    a = (a + 13) % static_cast<VertexId>(g.NumVertices());
    b = (b + 29) % static_cast<VertexId>(g.NumVertices());
  }
}
BENCHMARK(BM_GpmaEdgeProbe);

void BM_EncoderBuildAll(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  QueryGraph q = BenchQuery();
  for (auto _ : state) {
    CandidateEncoder enc(q);
    enc.BuildAll(g);
    benchmark::DoNotOptimize(enc.CandidateMask(0));
  }
}
BENCHMARK(BM_EncoderBuildAll);

void BM_EncoderDirtyUpdate(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  QueryGraph q = BenchQuery();
  CandidateEncoder enc(q);
  enc.BuildAll(g);
  const UpdateBatch insert =
      workload::StreamGenerator(workload::PreferentialSpec(128, 1), 13).Next(g);
  UpdateBatch remove = insert;
  for (UpdateOp& op : remove) op.is_insert = false;
  // Alternate the batch and its inverse on graph and encoder alike, so
  // every refresh is a valid delta and the shared graph ends unchanged.
  bool inserted = false;
  for (auto _ : state) {
    state.PauseTiming();
    if (inserted) {
      RevertBatch(&g, insert);
    } else {
      ApplyBatch(&g, insert);
    }
    state.ResumeTiming();
    enc.ApplyBatchDirty(g, inserted ? remove : insert);
    inserted = !inserted;
    benchmark::DoNotOptimize(enc.CandidateMask(0));
  }
  if (inserted) RevertBatch(&g, insert);
}
BENCHMARK(BM_EncoderDirtyUpdate);

// The "gamma" engine's update phase as it reports it: one host mirror
// of the canonical graph plus each query's label-count deltas
// (BatchReport::preprocess_host_seconds).  Host ns per op should grow
// by a small per-query delta from 1 to 8 queries, not by a mirror each.
// The batch alternates with its inverse so the graph stays stationary;
// matching runs but is not timed.
void BM_GammaEngineUpdatePhase(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  const LabeledGraph& g = bench::CachedDataset(DatasetId::kAmazon);
  auto engine = MakeEngine("gamma", g);
  for (size_t i = 0; i < num_queries; ++i) engine->AddQuery(BenchQuery());
  const UpdateBatch insert =
      workload::StreamGenerator(workload::PreferentialSpec(256, 1), 23).Next(g);
  UpdateBatch remove = insert;
  for (UpdateOp& op : remove) op.is_insert = false;
  bool inserted = false;
  double seconds = 0.0;
  size_t ops = 0;
  for (auto _ : state) {
    BatchReport report = engine->ProcessBatch(inserted ? remove : insert);
    inserted = !inserted;
    benchmark::DoNotOptimize(report.TotalMatches());
    state.SetIterationTime(report.preprocess_host_seconds);
    seconds += report.preprocess_host_seconds;
    ops += insert.size();
  }
  state.counters["host_ns_per_op"] = seconds * 1e9 / static_cast<double>(ops);
}
BENCHMARK(BM_GammaEngineUpdatePhase)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(64)
    ->Unit(benchmark::kMicrosecond);

// Engine choice is a registry index here — the same ProcessBatch loop
// drives the device systems and the CPU baselines.
const char* const kMicroEngines[] = {"gamma", "multi", "tf", "rf"};

void BM_EngineProcessBatch(benchmark::State& state) {
  const char* name = kMicroEngines[state.range(0)];
  state.SetLabel(name);
  LabeledGraph& g = BenchGraph();
  QueryGraph q = BenchQuery();
  workload::StreamSpec growth =
      workload::PreferentialSpec(static_cast<size_t>(state.range(1)), 1);
  UpdateBatch batch = workload::StreamGenerator(growth, 17).Next(g);
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MakeEngine(name, g);
    engine->AddQuery(q);
    state.ResumeTiming();
    BatchReport report = engine->ProcessBatch(batch);
    benchmark::DoNotOptimize(report.TotalMatches());
  }
}
BENCHMARK(BM_EngineProcessBatch)
    ->ArgsProduct({{0, 1, 2, 3}, {32, 128}});

// Streaming delivery vs materialized vectors: the sink path must not
// cost more than the vectors it saves.
void BM_EngineStreamingSink(benchmark::State& state) {
  LabeledGraph& g = BenchGraph();
  QueryGraph q = BenchQuery();
  UpdateBatch batch =
      workload::StreamGenerator(workload::PreferentialSpec(128, 1), 19).Next(g);
  struct CountingSink final : ResultSink {
    size_t n = 0;
    void OnMatch(QueryId, const MatchRecord&) override { ++n; }
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MakeEngine("gamma", g);
    engine->AddQuery(q);
    CountingSink sink;
    BatchOptions opts;
    opts.sink = &sink;
    opts.materialize = false;
    state.ResumeTiming();
    BatchReport report = engine->ProcessBatch(batch, opts);
    benchmark::DoNotOptimize(report.TotalMatches());
    benchmark::DoNotOptimize(sink.n);
  }
}
BENCHMARK(BM_EngineStreamingSink);

// Simulator host cost of a launch of many tiny warp tasks — the shape of
// a fused "multi" launch, one task per (query, updated edge).  Each task
// owns a small heap frame stack, as a WBM task does, and finishes in one
// step.  Host ns per task must not grow from 1 to 4 host threads: task
// memory is built, run and freed on the thread simulating its block.
// Informational; not gated.
class TinyTask final : public WarpTask {
 public:
  TinyTask() : frames_(8) {}
  bool Step(WarpContext& ctx) override {
    ctx.ChargeCompute(frames_.size());
    return false;
  }

 private:
  std::vector<uint64_t> frames_;
};

void BM_DeviceLaunchTinyTasks(benchmark::State& state) {
  constexpr size_t kTasks = 4096;
  Device device(DeviceConfig{}, static_cast<uint32_t>(state.range(0)));
  double seconds = 0.0;
  size_t tasks = 0;
  for (auto _ : state) {
    Timer timer;
    const DeviceStats stats = device.Launch(
        kTasks, [](size_t) { return std::make_unique<TinyTask>(); });
    seconds += timer.ElapsedSeconds();
    tasks += kTasks;
    benchmark::DoNotOptimize(stats.makespan_ticks);
  }
  state.counters["host_ns_per_task"] =
      seconds * 1e9 / static_cast<double>(tasks);
}
BENCHMARK(BM_DeviceLaunchTinyTasks)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// ----------------------------------------------- update-path profile
//
// Deterministic plan-counter profile of the GPMA update path: three
// seeded workloads (insert-heavy growth, deletion-heavy churn, a
// delete/re-insert locate+rebalance ping-pong) whose every metric
// derives from UpdatePlan counters and final structure state — no
// clocks — so two runs on any host produce identical rows.  These rows
// are the CI cost gate for the update path (scripts/bench_diff.py
// against bench/baselines/BENCH_micro.json; docs/BENCHMARKS.md):
// `resized_entries_per_update` and `moved_entries_per_update` are the
// gated fields.  `--profile-only` runs just this section.

struct PlanTotals {
  size_t batches = 0;
  size_t applied_updates = 0;   ///< sanitized ops submitted
  uint64_t locate_searches = 0;
  uint64_t resizes = 0;
  uint64_t resized_entries = 0;  ///< entries moved by grow/shrink
  uint64_t window_entries = 0;   ///< entries moved by window rebalances
  uint64_t segment_ops = 0;

  void Absorb(const UpdatePlan& plan, size_t batch_ops) {
    ++batches;
    applied_updates += batch_ops;
    locate_searches += plan.locate_searches;
    resizes += plan.resizes;
    resized_entries += plan.resized_entries;
    segment_ops += plan.ops.size();
    for (const SegmentOp& op : plan.ops) {
      if (op.window_segments > 1) window_entries += op.window_entries;
    }
  }
};

void EmitProfileRow(const char* workload, const Gpma& gpma,
                    const PlanTotals& t) {
  double per = t.applied_updates ? static_cast<double>(t.applied_updates)
                                 : 1.0;
  double resized_per = static_cast<double>(t.resized_entries) / per;
  double moved_per =
      static_cast<double>(t.resized_entries + t.window_entries) / per;
  double locates_per = static_cast<double>(t.locate_searches) / per;
  printf("%-16s %7zu %9zu | %8.3f %8.3f %8.3f | %5llu %8zu %6.3f\n",
         workload, t.batches, t.applied_updates, locates_per, resized_per,
         moved_per, static_cast<unsigned long long>(t.resizes),
         gpma.NumSegments(), gpma.Occupancy());
  bench::JsonRow row;
  row.Set("workload", workload)
      .Set("container", "gpma")
      .Set("batches", t.batches)
      .Set("applied_updates", t.applied_updates)
      .Set("locates_per_update", locates_per)
      .Set("resized_entries_per_update", resized_per)
      .Set("moved_entries_per_update", moved_per)
      .Set("resizes", static_cast<size_t>(t.resizes))
      .Set("segment_ops", static_cast<size_t>(t.segment_ops))
      .Set("final_segments", gpma.NumSegments())
      .Set("final_occupancy", gpma.Occupancy());
  bench::JsonSink::Instance().Add(std::move(row));
}

LabeledGraph ProfileGraph() {
  return GenerateUniformGraph(1200, 6000, 4, 2, 97);
}

void RunUpdatePathProfile() {
  printf("Update-path profile (deterministic UpdatePlan counters; the "
         "delete-churn\nrow's *_per_update fields are the CI gate vs "
         "bench/baselines/BENCH_micro.json)\n\n");
  printf("%-16s %7s %9s | %8s %8s %8s | %5s %8s %6s\n", "workload",
         "batches", "updates", "loc/upd", "rsz/upd", "mov/upd", "rsz",
         "segs", "occ");

  {  // Pure growth from the bulk-loaded state.
    LabeledGraph g = ProfileGraph();
    Gpma gpma(32);
    gpma.BuildFrom(g);
    workload::StreamGenerator gen(workload::PreferentialSpec(256, 1, 2), 101);
    PlanTotals t;
    for (int round = 0; round < 40; ++round) {
      UpdateBatch batch = gen.Next(g);
      t.Absorb(gpma.ApplyBatch(batch), batch.size());
      ApplyBatch(&g, batch);
    }
    EmitProfileRow("insert-heavy", gpma, t);
  }

  {  // Deletion-heavy turnover (65% deletes, the churn scenario's mix):
     // the structure must keep shedding capacity without sweeping.
    LabeledGraph g = ProfileGraph();
    Gpma gpma(32);
    gpma.BuildFrom(g);
    workload::StreamGenerator gen(workload::PreferentialSpec(256, 0.35, 2),
                                  103);
    PlanTotals t;
    for (int round = 0; round < 64; ++round) {
      UpdateBatch batch = gen.Next(g);
      t.Absorb(gpma.ApplyBatch(batch), batch.size());
      ApplyBatch(&g, batch);
    }
    EmitProfileRow("delete-churn", gpma, t);
  }

  {  // Steady-state locate + rebalance: delete a block of edges, then
     // re-insert exactly those edges next batch.
    LabeledGraph g = ProfileGraph();
    Gpma gpma(32);
    gpma.BuildFrom(g);
    workload::StreamGenerator gen(workload::PreferentialSpec(128, 0), 107);
    PlanTotals t;
    UpdateBatch deleted;
    for (int round = 0; round < 48; ++round) {
      UpdateBatch batch;
      if (round % 2 == 0) {
        batch = gen.Next(g);
        deleted = batch;
      } else {
        for (const UpdateOp& op : deleted) {
          batch.push_back(UpdateOp{true, op.u, op.v, op.elabel});
        }
      }
      batch = SanitizeBatch(g, batch);
      t.Absorb(gpma.ApplyBatch(batch), batch.size());
      ApplyBatch(&g, batch);
    }
    EmitProfileRow("locate-rebalance", gpma, t);
  }
  printf("\n");
}

// Mirrors every measured run into the shared JsonSink so bench_micro
// feeds the same perf-trajectory files as the figure benches.  Wraps
// the flag-selected display reporter (instead of subclassing
// ConsoleReporter) so --benchmark_format et al. keep working.
class TrajectoryReporter : public benchmark::BenchmarkReporter {
 public:
  explicit TrajectoryReporter(benchmark::BenchmarkReporter* inner)
      : inner_(inner) {}

  bool ReportContext(const Context& context) override {
    return inner_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::JsonRow row;
      row.Set("name", run.benchmark_name())
          .Set("label", run.report_label)
          .Set("iterations", static_cast<size_t>(run.iterations))
          .Set("real_time", run.GetAdjustedRealTime())
          .Set("cpu_time", run.GetAdjustedCPUTime())
          .Set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      bench::JsonSink::Instance().Add(std::move(row));
    }
    inner_->ReportRuns(runs);
  }
  void Finalize() override { inner_->Finalize(); }

 private:
  benchmark::BenchmarkReporter* inner_;
};

}  // namespace
}  // namespace bdsm

int main(int argc, char** argv) {
  // InitBench consumes --json <path>; google-benchmark must not see it
  // (it rejects unknown flags), so strip the pair from its argv copy —
  // same for our own --profile-only flag.
  bdsm::bench::InitBench("bench_micro", argc, argv);
  bool profile_only = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 ||
        std::strcmp(argv[i], "--out-dir") == 0 ||
        std::strcmp(argv[i], "--cell-id") == 0 ||
        std::strcmp(argv[i], "--cell-key") == 0) {
      ++i;  // skip the value too (all consumed by InitBench)
      continue;
    }
    if (std::strcmp(argv[i], "--profile-only") == 0) {
      profile_only = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  // The deterministic update-path profile always runs (it is the gated
  // part of this bench's JSON rows); the timing benchmarks follow
  // unless --profile-only asked for the counters alone.
  bdsm::RunUpdatePathProfile();
  if (profile_only) {
    // The atexit flush writes the rows; marking the run complete here
    // is what lets cell mode seal them.
    bdsm::bench::FinishBench();
    return 0;
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  std::unique_ptr<benchmark::BenchmarkReporter> display(
      benchmark::CreateDefaultDisplayReporter());
  bdsm::TrajectoryReporter reporter(display.get());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  bdsm::bench::FinishBench();
  return 0;
}
