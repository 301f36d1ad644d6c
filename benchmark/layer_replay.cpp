#include "layer_replay.hpp"

#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "core/encoder.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device.hpp"

namespace bdsm::bench {

BatchOutcome OutcomeOf(const BatchReport& report, const BatchCells& cells) {
  BatchOutcome out;
  out.update_stats = report.update_stats;
  out.match_stats = report.match_stats;
  for (const QueryReport& qr : report.queries) {
    out.queries.push_back(QueryOutcome{qr.num_positive, qr.num_negative,
                                       cells[qr.id], qr.update_stats,
                                       qr.match_stats});
  }
  return out;
}

// ----------------------------------------------------------- SpanRecorder

int32_t SpanRecorder::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, clock_.ElapsedSeconds(), 0.0, parent, batch_});
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int32_t span) {
  GAMMA_CHECK(!open_.empty() && open_.back() == span);
  spans_[span].end_s = clock_.ElapsedSeconds();
  open_.pop_back();
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  return self;
}

std::string SpanRecorder::ChromeJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"batch\": %lld}}",
                  i == 0 ? "" : ",\n", s.name, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<long long>(s.batch));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// A polarity's seeds in batch order plus the order map the dedup rule
/// consults (the same split Gamma and MultiGamma make).
struct PolaritySeeds {
  std::vector<SeedEdge> seeds;
  std::unordered_map<Edge, uint32_t, EdgeHash> order;
};

PolaritySeeds CollectSeeds(const UpdateBatch& batch, bool positive) {
  PolaritySeeds out;
  uint32_t next = 0;
  for (const UpdateOp& op : batch) {
    if (op.is_insert != positive) continue;
    out.seeds.push_back(SeedEdge{op.u, op.v, op.elabel, next});
    out.order.emplace(Edge(op.u, op.v), next);
    ++next;
  }
  return out;
}

void AbsorbPlan(const UpdatePlan& plan, size_t ops, ReplayCounters* c) {
  c->gpma_updates += ops;
  c->gpma_resized += plan.resized_entries;
  c->gpma_moved += plan.resized_entries;
  for (const SegmentOp& op : plan.ops) {
    if (op.window_segments > 1) c->gpma_moved += op.window_entries;
  }
  c->gpma_index_hops += plan.index_hops;
  c->gpma_inplace += plan.inplace_ops;
}

/// One phase's matches per query, as the engine holds them in its batch
/// report before streaming them out.
using PhaseMatches = std::vector<std::vector<MatchRecord>>;

/// Shared by both compositions: the engine's postprocess, which streams
/// each query's phase matches to the sink.
class ReplayBase : public LayerReplay {
 protected:
  ReplayBase(const GammaOptions& options, SpanRecorder* rec,
             size_t num_queries)
      : options_(options), rec_(rec), sink_(num_queries) {}

  void Deliver(PhaseMatches* phase, bool positive, BatchOutcome* out) {
    ScopedSpan s(rec_, "sink.deliver");
    for (size_t q = 0; q < phase->size(); ++q) {
      for (const MatchRecord& m : (*phase)[q]) sink_.OnMatch(q, m);
      const size_t n = (*phase)[q].size();
      (positive ? out->queries[q].num_positive
                : out->queries[q].num_negative) += n;
      counters_.matches += n;
    }
  }

  /// Moves the sink's digests into the finished outcome.
  void TakeDigests(BatchOutcome* out) {
    BatchCells cells = sink_.Take();
    for (size_t q = 0; q < out->queries.size(); ++q) {
      out->queries[q].matches = cells[q];
    }
  }

  GammaOptions options_;
  SpanRecorder* rec_;

 private:
  DigestSink sink_;
};

// ------------------------------------------------------------ gamma

/// "gamma": every query owns a full pipeline, phases run query by query
/// in the engine's order (all negatives, all updates plus the canonical
/// host graph, all positives).
class GammaReplay final : public ReplayBase {
 public:
  GammaReplay(const LabeledGraph& graph,
              const std::vector<QueryGraph>& queries,
              const GammaOptions& options, SpanRecorder* rec)
      : ReplayBase(options, rec, queries.size()) {
    ScopedSpan setup(rec_, "setup");
    {
      ScopedSpan s(rec_, "graph.copy");
      graph_ = graph;
    }
    for (const QueryGraph& q : queries) {
      auto lane = std::make_unique<Lane>(options_);
      {
        ScopedSpan s(rec_, "graph.copy");
        lane->graph = graph;
      }
      {
        ScopedSpan s(rec_, "core.query_context");
        lane->qctx = BuildQueryContext(q, options_.coalesced_search,
                                       options_.aggressive_coalescing);
      }
      lane->encoder = std::make_unique<CandidateEncoder>(q);
      {
        ScopedSpan s(rec_, "gpma.build");
        lane->gpma.BuildFrom(lane->graph);
      }
      {
        ScopedSpan s(rec_, "core.encode_build");
        lane->encoder->BuildAll(lane->graph);
      }
      lanes_.push_back(std::move(lane));
    }
  }

  BatchOutcome ProcessBatch(const UpdateBatch& raw) override {
    BatchOutcome out;
    out.queries.resize(lanes_.size());
    UpdateBatch batch;
    {
      ScopedSpan s(rec_, "graph.sanitize");
      batch = SanitizeBatch(graph_, raw);
    }
    counters_.raw_ops += raw.size();
    counters_.kept_ops += batch.size();

    MatchPhase(batch, /*positive=*/false, &out);
    for (size_t i = 0; i < lanes_.size(); ++i) {
      Lane& l = *lanes_[i];
      UpdatePlan plan;
      {
        ScopedSpan s(rec_, "gpma.apply");
        plan = l.gpma.ApplyBatch(batch);
      }
      AbsorbPlan(plan, batch.size(), &counters_);
      DeviceStats stats;
      {
        ScopedSpan s(rec_, "gpusim.price");
        stats = SimulateGpmaUpdate(l.device, plan, options_.gpma);
      }
      ++counters_.launches;
      {
        ScopedSpan s(rec_, "graph.mirror");
        ApplyBatch(&l.graph, batch);
      }
      {
        ScopedSpan s(rec_, "core.encode");
        l.encoder->ApplyBatchDirty(l.graph, batch);
      }
      out.queries[i].update_stats = stats;
      out.update_stats.MergeSequential(stats);
      counters_.truncated = counters_.truncated || stats.timed_out;
    }
    {
      ScopedSpan s(rec_, "graph.mirror");
      ApplyBatch(&graph_, batch);
    }
    MatchPhase(batch, /*positive=*/true, &out);
    TakeDigests(&out);
    return out;
  }

 private:
  struct Lane {
    explicit Lane(const GammaOptions& o)
        : gpma(o.gpma_segment_capacity), device(o.device) {}
    LabeledGraph graph;
    Gpma gpma;
    QueryContext qctx;
    std::unique_ptr<CandidateEncoder> encoder;
    Device device;
  };

  /// One WBM launch per query, then delivery of the whole phase.
  void MatchPhase(const UpdateBatch& batch, bool positive,
                  BatchOutcome* out) {
    PhaseMatches phase(lanes_.size());
    for (size_t i = 0; i < lanes_.size(); ++i) {
      ScopedSpan s(rec_, positive ? "core.match_pos" : "core.match_neg");
      Lane& l = *lanes_[i];
      PolaritySeeds seeds = CollectSeeds(batch, positive);
      WbmResult r;
      if (!seeds.seeds.empty()) {
        WbmEnv env{&l.gpma, &l.qctx, l.encoder.get(), &seeds.order,
                   positive};
        env.result_cap = options_.result_cap;
        r = RunWbmKernel(l.device, env, seeds.seeds);
        ++counters_.launches;
        counters_.seeds += seeds.seeds.size();
      }
      phase[i].insert(phase[i].end(),
                      std::make_move_iterator(r.matches.begin()),
                      std::make_move_iterator(r.matches.end()));
      out->queries[i].match_stats.MergeSequential(r.stats);
      out->match_stats.MergeSequential(r.stats);
      counters_.truncated =
          counters_.truncated || r.overflowed || r.stats.timed_out;
    }
    Deliver(&phase, positive, out);
  }

  LabeledGraph graph_;  ///< the engine's canonical host graph
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// ------------------------------------------------------------ multi

/// "multi": one shared graph, GPMA and device; each polarity is one
/// launch fusing every query's WBM tasks.
class MultiReplay final : public ReplayBase {
 public:
  MultiReplay(const LabeledGraph& graph,
              const std::vector<QueryGraph>& queries,
              const GammaOptions& options, SpanRecorder* rec)
      : ReplayBase(options, rec, queries.size()),
        gpma_(options.gpma_segment_capacity),
        device_(options.device) {
    ScopedSpan setup(rec_, "setup");
    {
      ScopedSpan s(rec_, "graph.copy");
      graph_ = graph;
    }
    {
      ScopedSpan s(rec_, "gpma.build");
      gpma_.BuildFrom(graph_);
    }
    for (const QueryGraph& q : queries) {
      PerQuery pq;
      {
        ScopedSpan s(rec_, "core.query_context");
        pq.qctx = BuildQueryContext(q, options_.coalesced_search,
                                    options_.aggressive_coalescing);
      }
      pq.encoder = std::make_unique<CandidateEncoder>(q);
      {
        ScopedSpan s(rec_, "core.encode_build");
        pq.encoder->BuildAll(graph_);
      }
      queries_.push_back(std::move(pq));
    }
  }

  BatchOutcome ProcessBatch(const UpdateBatch& raw) override {
    BatchOutcome out;
    out.queries.resize(queries_.size());
    UpdateBatch batch;
    {
      ScopedSpan s(rec_, "graph.sanitize");
      batch = SanitizeBatch(graph_, raw);
    }
    counters_.raw_ops += raw.size();
    counters_.kept_ops += batch.size();
    MatchPhase(batch, /*positive=*/false, &out);
    UpdatePlan plan;
    {
      ScopedSpan s(rec_, "gpma.apply");
      plan = gpma_.ApplyBatch(batch);
    }
    AbsorbPlan(plan, batch.size(), &counters_);
    {
      ScopedSpan s(rec_, "gpusim.price");
      out.update_stats = SimulateGpmaUpdate(device_, plan, options_.gpma);
    }
    ++counters_.launches;
    counters_.truncated = counters_.truncated || out.update_stats.timed_out;
    {
      ScopedSpan s(rec_, "graph.mirror");
      ApplyBatch(&graph_, batch);
    }
    for (PerQuery& pq : queries_) {
      ScopedSpan s(rec_, "core.encode");
      pq.encoder->ApplyBatchDirty(graph_, batch);
    }
    for (QueryOutcome& q : out.queries) q.update_stats = out.update_stats;
    MatchPhase(batch, /*positive=*/true, &out);
    TakeDigests(&out);
    return out;
  }

 private:
  struct PerQuery {
    QueryContext qctx;
    std::unique_ptr<CandidateEncoder> encoder;
  };

  /// One fused launch for every query, then delivery of the phase.
  void MatchPhase(const UpdateBatch& batch, bool positive,
                  BatchOutcome* out) {
    PhaseMatches phase(queries_.size());
    {
      ScopedSpan s(rec_, positive ? "core.match_pos" : "core.match_neg");
      PolaritySeeds seeds = CollectSeeds(batch, positive);
      DeviceStats stats;
      std::vector<std::vector<std::vector<MatchRecord>>> slots(
          queries_.size());
      if (!seeds.seeds.empty()) {
        std::atomic<size_t> emitted{0};
        std::atomic<bool> overflowed{false};
        // Every WbmTask points at its env, so the envs must outlive the
        // launch: they live in this vector, reserved up front.
        std::vector<WbmEnv> envs;
        envs.reserve(queries_.size());
        for (PerQuery& pq : queries_) {
          WbmEnv env{&gpma_, &pq.qctx, pq.encoder.get(), &seeds.order,
                     positive};
          env.result_cap = options_.result_cap;
          if (env.result_cap > 0) {
            env.emitted = &emitted;
            env.overflowed = &overflowed;
          }
          envs.push_back(env);
        }
        std::vector<std::unique_ptr<WarpTask>> tasks;
        for (size_t qi = 0; qi < queries_.size(); ++qi) {
          for (auto& t : MakeWbmTasks(envs[qi], seeds.seeds, &slots[qi])) {
            tasks.push_back(std::move(t));
          }
        }
        stats = device_.Launch(std::move(tasks));
        ++counters_.launches;
        counters_.seeds += seeds.seeds.size() * queries_.size();
        counters_.truncated = counters_.truncated ||
                              overflowed.load(std::memory_order_relaxed) ||
                              stats.timed_out;
      }
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        // MultiGamma gathers the slots into its per-query result, which
        // the engine then moves into the batch report.
        std::vector<MatchRecord> gathered;
        for (const auto& slot : slots[qi]) {
          gathered.insert(gathered.end(), slot.begin(), slot.end());
        }
        phase[qi].insert(phase[qi].end(),
                         std::make_move_iterator(gathered.begin()),
                         std::make_move_iterator(gathered.end()));
        out->queries[qi].match_stats.MergeSequential(stats);
      }
      if (!queries_.empty()) out->match_stats.MergeSequential(stats);
    }
    Deliver(&phase, positive, out);
  }

  LabeledGraph graph_;
  Gpma gpma_;
  Device device_;
  std::vector<PerQuery> queries_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

std::unique_ptr<LayerReplay> MakeLayerReplay(
    const std::string& engine, const LabeledGraph& graph,
    const std::vector<QueryGraph>& queries, const GammaOptions& options,
    SpanRecorder* rec) {
  if (engine == "gamma") {
    return std::make_unique<GammaReplay>(graph, queries, options, rec);
  }
  if (engine == "multi") {
    return std::make_unique<MultiReplay>(graph, queries, options, rec);
  }
  return nullptr;
}

namespace {

/// Self seconds per span name, over batch spans or over set-up spans.
std::map<std::string, double> SelfByName(const SpanRecorder& rec,
                                         bool setup) {
  std::map<std::string, double> by_name;
  const std::vector<double> self = rec.SelfSeconds();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if ((s.batch < 0) == setup) by_name[s.name] += self[i];
  }
  return by_name;
}

}  // namespace

std::map<std::string, double> LayerMetrics(
    const SpanRecorder& rec, const ReplayCounters& c,
    const std::vector<BatchOutcome>& outcomes, double tick_seconds,
    double engine_s, uint64_t mismatches) {
  std::map<std::string, double> self = SelfByName(rec, /*setup=*/false);
  std::map<std::string, double> setup = SelfByName(rec, /*setup=*/true);
  DeviceStats match, update;
  for (const BatchOutcome& o : outcomes) {
    match.MergeSequential(o.match_stats);
    update.MergeSequential(o.update_stats);
  }
  double replay_s = 0.0;
  for (const auto& [name, s] : self) replay_s += s;

  const double batches = static_cast<double>(outcomes.size());
  auto per_batch_ms = [&](const char* span) {
    return Ratio(self[span] * 1e3, batches);
  };
  const double updates = static_cast<double>(c.gpma_updates);
  std::map<std::string, double> m;
  m["core.match_neg_ms"] = per_batch_ms("core.match_neg");
  m["core.match_pos_ms"] = per_batch_ms("core.match_pos");
  m["core.match_device_ms"] =
      Ratio(static_cast<double>(match.makespan_ticks) * tick_seconds * 1e3,
            batches);
  m["core.warp_utilization"] = match.Utilization();
  m["core.steals_per_batch"] =
      Ratio(static_cast<double>(match.steal_events), batches);
  m["core.coalesced_ratio"] =
      Ratio(static_cast<double>(match.coalesced_words),
            static_cast<double>(match.coalesced_words +
                                match.uncoalesced_words));
  m["core.matches_per_seed"] = Ratio(static_cast<double>(c.matches),
                                     static_cast<double>(c.seeds));
  m["core.seeds_per_batch"] = Ratio(static_cast<double>(c.seeds), batches);
  m["core.encode_ms"] = per_batch_ms("core.encode");
  m["core.encode_build_ms"] = setup["core.encode_build"] * 1e3;
  m["gpma.apply_ms"] = per_batch_ms("gpma.apply");
  m["gpma.moved_per_update"] =
      Ratio(static_cast<double>(c.gpma_moved), updates);
  m["gpma.resized_per_update"] =
      Ratio(static_cast<double>(c.gpma_resized), updates);
  m["gpma.index_hops_per_update"] =
      Ratio(static_cast<double>(c.gpma_index_hops), updates);
  // Every undirected update touches two directed GPMA entries.
  m["gpma.inplace_ratio"] =
      Ratio(static_cast<double>(c.gpma_inplace), 2.0 * updates);
  m["gpma.update_device_ms"] =
      Ratio(static_cast<double>(update.makespan_ticks) * tick_seconds * 1e3,
            batches);
  m["gpma.build_ms"] = setup["gpma.build"] * 1e3;
  m["gpusim.price_ms"] = per_batch_ms("gpusim.price");
  m["gpusim.launches_per_batch"] =
      Ratio(static_cast<double>(c.launches), batches);
  m["gpusim.host_ns_per_tick"] =
      Ratio((self["core.match_neg"] + self["core.match_pos"]) * 1e9,
            static_cast<double>(match.makespan_ticks));
  m["graph.sanitize_ms"] = per_batch_ms("graph.sanitize");
  m["graph.mirror_ms"] = per_batch_ms("graph.mirror");
  m["graph.keep_ratio"] = Ratio(static_cast<double>(c.kept_ops),
                                static_cast<double>(c.raw_ops));
  m["sink.deliver_ms"] = per_batch_ms("sink.deliver");
  m["trace.overhead_frac"] = Ratio(replay_s, engine_s) - 1.0;
  m["trace.fidelity_mismatches"] = static_cast<double>(mismatches);
  return m;
}

std::string LayerSharesJson(const SpanRecorder& rec) {
  std::map<std::string, double> self = SelfByName(rec, /*setup=*/false);
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  std::string out = "{";
  char buf[160];
  for (const auto& [name, s] : self) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"self_ms\": %.6f, \"share\": %.6f}",
                  out.size() > 1 ? ", " : "", name.c_str(), s * 1e3,
                  Ratio(s, total));
    out += buf;
  }
  return out + "}";
}

}  // namespace bdsm::bench
