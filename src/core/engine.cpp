#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <unordered_map>

#include "baselines/csm_common.hpp"
#include "core/encoder.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/group.hpp"
#include "serve/sharded_engine.hpp"
#include "util/timer.hpp"

namespace bdsm {

const char* ClockDomainName(ClockDomain clock) {
  switch (clock) {
    case ClockDomain::kModeledDevice:
      return "modeled-device";
    case ClockDomain::kCriticalPath:
      return "critical-path";
    case ClockDomain::kHostWall:
      return "host-wall";
  }
  return "unknown";
}

obs::Domain ToObsTraceDomain(ClockDomain clock) {
  switch (clock) {
    case ClockDomain::kModeledDevice:
      return obs::Domain::kModeledDevice;
    case ClockDomain::kCriticalPath:
      return obs::Domain::kCriticalPath;
    case ClockDomain::kHostWall:
      return obs::Domain::kHostWall;
  }
  return obs::Domain::kHostWall;
}

namespace {

/// Modeled device latency: update + matching makespan with host
/// preprocessing overlapped (§IV-A).  The one formula behind both
/// ModeledSeconds accessors and the modeled-clock latency stamp.
double ModeledLatency(const DeviceStats& update, const DeviceStats& match,
                      double tick_seconds, double preprocess_host_seconds) {
  const double device =
      static_cast<double>(update.makespan_ticks + match.makespan_ticks) *
      tick_seconds;
  return std::max(device, preprocess_host_seconds);
}

}  // namespace

double QueryReport::ModeledSeconds(const DeviceConfig& cfg) const {
  return ModeledLatency(update_stats, match_stats, cfg.TickSeconds(),
                        preprocess_host_seconds);
}

double BatchReport::ModeledSeconds(const DeviceConfig& cfg) const {
  return ModeledLatency(update_stats, match_stats, cfg.TickSeconds(),
                        preprocess_host_seconds);
}

// ---------------------------------------------------------------- Engine

BatchReport Engine::ProcessBatch(const UpdateBatch& raw_batch,
                                 const BatchOptions& options) {
  Timer wall;
  return DigestBatch(SanitizeBatch(host_graph(), raw_batch), options, wall);
}

BatchReport Engine::DigestBatch(const UpdateBatch& batch,
                                const BatchOptions& options,
                                const Timer& wall,
                                const std::function<void()>& after_update) {
  BatchReport report;
  InitReport(&report);

#if BDSM_OBS
  const bool obs_on = obs::Enabled();
  double host_after[3] = {0.0, 0.0, 0.0};
  double cp_after[3] = {0.0, 0.0, 0.0};
  uint64_t match_ticks_after_neg = 0;
#endif

  // Negative matches: deleted-edge seeds on the pre-update state.
  RunMatchPhase(batch, /*positive=*/false, options, &report);
  FlushPhase(options, &report);
#if BDSM_OBS
  if (obs_on) {
    host_after[0] = wall.ElapsedSeconds();
    cp_after[0] = report.critical_path_seconds;
    match_ticks_after_neg = report.match_stats.makespan_ticks;
  }
#endif

  // Update: device graph + host mirror + candidate re-encode (CSM
  // engines run their whole sequential loop here).
  RunUpdatePhase(batch, options, &report);
  FlushPhase(options, &report);
#if BDSM_OBS
  if (obs_on) {
    host_after[1] = wall.ElapsedSeconds();
    cp_after[1] = report.critical_path_seconds;
  }
#endif
  if (after_update) after_update();

  // Positive matches: inserted-edge seeds on the post-update state.
  RunMatchPhase(batch, /*positive=*/true, options, &report);
  FlushPhase(options, &report);

  report.host_wall_seconds = wall.ElapsedSeconds();
  for (QueryReport& qr : report.queries) {
    if (qr.host_wall_seconds == 0.0) {
      qr.host_wall_seconds = report.host_wall_seconds;
    }
  }

  // The batch's latency on this engine's own clock — the one place it
  // is derived; every reader takes report.latency_seconds.
  if (clock_cache_ < 0) {
    const EngineInfo info = Describe();
    clock_cache_ = static_cast<int>(info.clock);
    tick_seconds_ = info.tick_seconds;
  }
  switch (static_cast<ClockDomain>(clock_cache_)) {
    case ClockDomain::kModeledDevice:
      report.latency_seconds =
          ModeledLatency(report.update_stats, report.match_stats,
                         tick_seconds_, report.preprocess_host_seconds);
      break;
    case ClockDomain::kCriticalPath:
      report.latency_seconds = report.critical_path_seconds;
      break;
    case ClockDomain::kHostWall:
      report.latency_seconds = report.host_wall_seconds;
      break;
  }

#if BDSM_OBS
  if (obs_on) {
    host_after[2] = report.host_wall_seconds;
    cp_after[2] = report.critical_path_seconds;
    RecordBatchObs(batch, report, host_after, match_ticks_after_neg,
                   cp_after);
  }
#endif
  // Outermost-layer end-of-batch hook (the replica group's WAL tee +
  // follower advance): after the clocks, so its work never inflates
  // this batch's reported latency.
  OnBatchDigested(batch, report);
  return report;
}

void Engine::RecordBatchObs(const UpdateBatch& batch,
                            const BatchReport& report,
                            const double host_after[3],
                            uint64_t match_ticks_after_neg,
                            const double cp_after[3]) {
#if BDSM_OBS
  const ClockDomain clock = static_cast<ClockDomain>(clock_cache_);
  // Counters: the registry-backed view of the report aggregates — read
  // from the same variables the report carries, so the two can never
  // disagree.
  size_t pos = 0, neg = 0, truncated = 0;
  for (const QueryReport& qr : report.queries) {
    pos += qr.num_positive;
    neg += qr.num_negative;
    if (qr.Truncated()) ++truncated;
  }
  BDSM_OBS_COUNT("engine.batches", 1);
  BDSM_OBS_COUNT("engine.ops", batch.size());
  BDSM_OBS_COUNT("engine.matches.positive", pos);
  BDSM_OBS_COUNT("engine.matches.negative", neg);
  BDSM_OBS_COUNT("engine.queries.truncated", truncated);
  BDSM_OBS_COUNT("engine.device.update.makespan_ticks",
                 report.update_stats.makespan_ticks);
  BDSM_OBS_COUNT("engine.device.match.makespan_ticks",
                 report.match_stats.makespan_ticks);
  BDSM_OBS_COUNT("engine.device.global_transactions",
                 report.update_stats.global_transactions +
                     report.match_stats.global_transactions);
  BDSM_OBS_COUNT_US("engine.host_us", report.host_wall_seconds);

  // Per-phase split of report.latency_seconds on the engine's own
  // clock (Describe().clock).
  double phase_s[3] = {0.0, 0.0, 0.0};
  switch (clock) {
    case ClockDomain::kModeledDevice: {
      const double tick = tick_seconds_;
      phase_s[0] = static_cast<double>(match_ticks_after_neg) * tick;
      phase_s[1] =
          static_cast<double>(report.update_stats.makespan_ticks) * tick;
      phase_s[2] = static_cast<double>(report.match_stats.makespan_ticks -
                                       match_ticks_after_neg) *
                   tick;
      break;
    }
    case ClockDomain::kCriticalPath:
      phase_s[0] = cp_after[0];
      phase_s[1] = cp_after[1] - cp_after[0];
      phase_s[2] = cp_after[2] - cp_after[1];
      break;
    case ClockDomain::kHostWall:
      phase_s[0] = host_after[0];
      phase_s[1] = host_after[1] - host_after[0];
      phase_s[2] = host_after[2] - host_after[1];
      break;
  }
  BDSM_OBS_HISTOGRAM_US("engine.batch_us", report.latency_seconds);

  obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
  if (tracer.enabled()) {
    const obs::Domain domain = ToObsTraceDomain(clock);
    obs::TraceSpan span;
    span.name = "engine.batch";
    span.domain = domain;
    span.batch = obs_batch_seq_;
    span.start_s = obs_cursor_seconds_;
    span.dur_s = report.latency_seconds;
    span.detail = "ops=" + std::to_string(batch.size());
    tracer.Record(std::move(span));
    static const char* kPhaseNames[3] = {"engine.match.neg",
                                         "engine.update",
                                         "engine.match.pos"};
    double cursor = obs_cursor_seconds_;
    for (int p = 0; p < 3; ++p) {
      obs::TraceSpan ps;
      ps.name = kPhaseNames[p];
      ps.domain = domain;
      ps.batch = obs_batch_seq_;
      ps.start_s = cursor;
      ps.dur_s = phase_s[p];
      cursor += phase_s[p];
      tracer.Record(std::move(ps));
    }
  }
  obs_cursor_seconds_ += report.latency_seconds;
  ++obs_batch_seq_;
#else
  (void)batch;
  (void)report;
  (void)host_after;
  (void)match_ticks_after_neg;
  (void)cp_after;
#endif
}

void Engine::InitReport(BatchReport* report) const {
  report->queries.clear();
  for (QueryId id : QueryIds()) {
    QueryReport qr;
    qr.id = id;
    report->queries.push_back(std::move(qr));
  }
}

void Engine::FlushPhase(const BatchOptions& options, BatchReport* report) {
  size_t delivered = 0;
  auto flush = [&](QueryId id, std::vector<MatchRecord>* v,
                   size_t* streamed, size_t* total) {
    for (size_t i = *streamed; i < v->size(); ++i) {
      ++*total;
      if (options.sink) {
        options.sink->OnMatch(id, (*v)[i]);
        ++delivered;
      }
    }
    *streamed = v->size();
    if (!options.materialize) {
      v->clear();
      *streamed = 0;
    }
  };
  for (QueryReport& qr : report->queries) {
    flush(qr.id, &qr.positive_matches, &qr.streamed_positive,
          &qr.num_positive);
    flush(qr.id, &qr.negative_matches, &qr.streamed_negative,
          &qr.num_negative);
  }
  if (delivered > 0) BDSM_OBS_COUNT("engine.sink.delivered", delivered);
  (void)delivered;  // referenced only through the macro when BDSM_OBS=1
}

void Engine::DeliverDirect(const BatchOptions& options, QueryReport* qr,
                           const MatchRecord& m) {
  if (m.positive) {
    ++qr->num_positive;
  } else {
    ++qr->num_negative;
  }
  if (options.sink) {
    options.sink->OnMatch(qr->id, m);
    BDSM_OBS_COUNT("engine.sink.delivered", 1);
  }
  if (options.materialize) {
    auto& v = m.positive ? qr->positive_matches : qr->negative_matches;
    v.push_back(m);
    // Already counted and streamed: advance the flush marker past it.
    (m.positive ? qr->streamed_positive : qr->streamed_negative) = v.size();
  }
}

namespace {

// ------------------------------------------------------------ SlotEngine

/// The query bookkeeping of every engine that keeps one slot of state
/// per registered query: ids assigned monotonically and never reused,
/// registration order, and the snapshot listing and restore.  An engine
/// supplies MakeSlot (the query's state, built against the current
/// graph) and SlotQuery (its pattern, for snapshots).
template <typename Slot>
class SlotEngine : public Engine {
 public:
  QueryId AddQuery(const QueryGraph& q) final {
    slots_.push_back(Entry{next_id_++, MakeSlot(q)});
    return slots_.back().id;
  }

  bool RestoreQuery(const QueryGraph& q, QueryId id) final {
    if (id < next_id_) return false;
    next_id_ = id;
    return AddQuery(q) == id;
  }

  bool RemoveQuery(QueryId id) final {
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [id](const Entry& e) { return e.id == id; });
    if (it == slots_.end()) return false;
    slots_.erase(it);
    return true;
  }

  std::vector<QueryId> QueryIds() const final {
    std::vector<QueryId> ids;
    ids.reserve(slots_.size());
    for (const Entry& e : slots_) ids.push_back(e.id);
    return ids;
  }

  std::vector<RegisteredQuery> RegisteredQueries() const final {
    std::vector<RegisteredQuery> out;
    out.reserve(slots_.size());
    for (const Entry& e : slots_) {
      out.push_back(RegisteredQuery{e.id, SlotQuery(e.slot)});
    }
    return out;
  }

 protected:
  struct Entry {
    QueryId id;
    Slot slot;
  };

  virtual Slot MakeSlot(const QueryGraph& q) = 0;
  virtual const QueryGraph& SlotQuery(const Slot& slot) const = 0;

  /// The slot of report->queries[i] (InitReport lists queries in
  /// registration order, the order of slots_).
  Slot& SlotFor(size_t i, const BatchReport& report) {
    GAMMA_CHECK(report.queries[i].id == slots_[i].id);
    return slots_[i].slot;
  }

  /// Live slots, in registration order.
  std::vector<Entry> slots_;

 private:
  QueryId next_id_ = 0;
};

// ---------------------------------------------------------- DeviceEngine

/// A device-engine query's own state: its matching orders and
/// equivalent-edge groups, and its candidate encoding (§IV).
struct DeviceSlot {
  QueryContext qctx;
  CandidateEncoder encoder;
};

/// "gamma" and "multi": the pipeline of Fig. 3 over one canonical host
/// graph, one GPMA and one device, keeping per query only a DeviceSlot.
/// `fused` is the one difference between the two names:
///   - match phase: one WBM grid per query, each under its own result
///     cap ("gamma"), or every query's tasks in one grid under one cap
///     ("multi"); either way one Device::Launch per phase, so gamma's
///     grids share one host region and one host budget clock;
///   - update charge: the batch's one GPMA update kernel is charged to
///     the report once per query, as if each query ran its own pipeline
///     ("gamma"), or once ("multi");
///   - per-query preprocess: the host mirror plus that query's
///     label-count deltas ("gamma"), or the batch total ("multi").
class DeviceEngine final : public SlotEngine<DeviceSlot> {
 public:
  DeviceEngine(const LabeledGraph& g, const EngineOptions& options,
               bool fused)
      : options_(options.gamma),
        fused_(fused),
        graph_(g),
        gpma_(options.gamma.gpma_segment_capacity),
        device_(options.gamma.device) {
    gpma_.BuildFrom(graph_);
  }

  const char* Name() const override { return fused_ ? "multi" : "gamma"; }

  EngineInfo Describe() const override {
    EngineInfo info;
    info.canonical_spec = CanonicalSpecOrName();
    info.clock = ClockDomain::kModeledDevice;
    info.supports_snapshot = true;
    info.tick_seconds = options_.device.TickSeconds();
    return info;
  }

  const LabeledGraph& host_graph() const override { return graph_; }

 protected:
  DeviceSlot MakeSlot(const QueryGraph& q) override {
    DeviceSlot slot{BuildQueryContext(q, options_.coalesced_search,
                                      options_.aggressive_coalescing),
                    CandidateEncoder(q)};
    slot.encoder.BuildAll(graph_);
    return slot;
  }

  const QueryGraph& SlotQuery(const DeviceSlot& slot) const override {
    return slot.qctx.q;
  }

  void RunMatchPhase(const UpdateBatch& batch, bool positive,
                     const BatchOptions& /*options*/,
                     BatchReport* report) override {
    // This polarity's seeds and the order map the dedup rule consults,
    // shared by every query.
    std::vector<SeedEdge> seeds;
    std::unordered_map<Edge, uint32_t, EdgeHash> order;
    for (const UpdateOp& op : batch) {
      if (op.is_insert != positive) continue;
      const uint32_t next = static_cast<uint32_t>(seeds.size());
      seeds.push_back(SeedEdge{op.u, op.v, op.elabel, next});
      order.emplace(Edge(op.u, op.v), next);
    }
    if (seeds.empty() || slots_.empty()) return;

    // One grid per query ("gamma") or one for all ("multi"), simulated in
    // one host region under one host budget.  Each grid has its own
    // result cap; each query's tasks read its own context and encoding.
    const size_t num_queries = slots_.size();
    const size_t num_grids = fused_ ? 1 : num_queries;
    std::vector<ResultCap> caps(num_grids);
    std::vector<WbmEnv> envs;
    envs.reserve(num_queries);
    // Per query, one match slot per seed.
    std::vector<std::vector<std::vector<MatchRecord>>> found(
        num_queries, std::vector<std::vector<MatchRecord>>(seeds.size()));
    for (size_t i = 0; i < num_queries; ++i) {
      DeviceSlot& slot = SlotFor(i, *report);
      WbmEnv& env = envs.emplace_back(
          WbmEnv{&gpma_, &slot.qctx, &slot.encoder, &order, positive});
      env.result_cap = options_.result_cap;
      if (env.result_cap > 0) {
        ResultCap& cap = caps[fused_ ? 0 : i];
        env.emitted = &cap.emitted;
        env.overflowed = &cap.overflowed;
      }
    }
    // Grid g's launch index k is query g * per_grid + k / |seeds|'s task
    // for seed k % |seeds|.
    const size_t per_grid = num_queries / num_grids;
    std::vector<Device::Grid> grids(num_grids);
    for (size_t g = 0; g < num_grids; ++g) {
      grids[g].n = per_grid * seeds.size();
      grids[g].make = [&, g](size_t k) {
        const size_t q = g * per_grid + k / seeds.size();
        const size_t s = k % seeds.size();
        return MakeWbmTask(envs[q], seeds[s], &found[q][s]);
      };
    }
    const std::vector<DeviceStats> stats = device_.Launch(grids);

    // Each grid's stats are charged to each of its queries and once to
    // the report.
    for (size_t i = 0; i < num_queries; ++i) {
      const size_t g = fused_ ? 0 : i;
      QueryReport& qr = report->queries[i];
      auto& dst = positive ? qr.positive_matches : qr.negative_matches;
      for (const auto& s : found[i]) dst.insert(dst.end(), s.begin(), s.end());
      qr.match_stats.MergeSequential(stats[g]);
      qr.timed_out = qr.timed_out || stats[g].timed_out;
      qr.overflowed =
          qr.overflowed || caps[g].overflowed.load(std::memory_order_relaxed);
    }
    for (const DeviceStats& s : stats) report->match_stats.MergeSequential(s);
  }

  void RunUpdatePhase(const UpdateBatch& batch,
                      const BatchOptions& /*options*/,
                      BatchReport* report) override {
    // The one host mirror, before the deltas: they read the post-batch
    // graph.  It runs even with no queries registered.
    Timer mirror;
    ApplyBatch(&graph_, batch);
    const double mirror_seconds = mirror.ElapsedSeconds();

    // The one GPMA update.  Its pricing is a pure function of the plan,
    // so one simulation stands for every charge.
    const UpdatePlan plan = gpma_.ApplyBatch(batch);
    const size_t charges = fused_ ? 1 : slots_.size();
    DeviceStats update;
    if (charges > 0) {
      update = SimulateGpmaUpdate(device_, plan, options_.gpma);
    }
    for (size_t c = 0; c < charges; ++c) {
      report->update_stats.MergeSequential(update);
    }

    std::vector<double> delta_seconds(slots_.size());
    double total_seconds = mirror_seconds;
    for (size_t i = 0; i < slots_.size(); ++i) {
      Timer delta;
      SlotFor(i, *report).encoder.ApplyBatchDirty(graph_, batch);
      delta_seconds[i] = delta.ElapsedSeconds();
      total_seconds += delta_seconds[i];
    }
    report->preprocess_host_seconds += total_seconds;
    for (size_t i = 0; i < slots_.size(); ++i) {
      QueryReport& qr = report->queries[i];
      qr.update_stats = update;
      qr.timed_out = qr.timed_out || update.timed_out;
      qr.preprocess_host_seconds =
          fused_ ? total_seconds : mirror_seconds + delta_seconds[i];
    }
  }

 private:
  /// One grid's shared match counter and overflow flag.
  struct ResultCap {
    std::atomic<size_t> emitted{0};
    std::atomic<bool> overflowed{false};
  };

  GammaOptions options_;
  bool fused_;
  LabeledGraph graph_;  ///< canonical evolving host graph
  Gpma gpma_;           ///< the device graph, mirroring graph_
  Device device_;
};

// ------------------------------------------------------------ CsmAdapter

/// The five sequential CPU baselines behind the Engine interface: one
/// CsmEngine instance per registered query, each processing the batch
/// edge-at-a-time.  Matching is interleaved with updates in the CSM
/// chassis, so everything happens in RunUpdatePhase.
class CsmAdapter final : public SlotEngine<std::unique_ptr<CsmEngine>> {
 public:
  CsmAdapter(const char* registry_name, std::string csm_key,
             const LabeledGraph& g, const EngineOptions& options)
      : name_(registry_name),
        csm_key_(std::move(csm_key)),
        graph_(g),
        result_cap_(options.csm_result_cap),
        default_budget_(options.csm_budget_seconds) {}

  const char* Name() const override { return name_; }

  EngineInfo Describe() const override {
    EngineInfo info;
    info.canonical_spec = CanonicalSpecOrName();
    info.clock = ClockDomain::kHostWall;
    info.supports_snapshot = true;
    return info;
  }

  const LabeledGraph& host_graph() const override { return graph_; }

 protected:
  std::unique_ptr<CsmEngine> MakeSlot(const QueryGraph& q) override {
    std::unique_ptr<CsmEngine> engine = MakeCsmEngine(csm_key_, graph_, q);
    engine->set_result_cap(result_cap_);
    return engine;
  }

  const QueryGraph& SlotQuery(
      const std::unique_ptr<CsmEngine>& engine) const override {
    return engine->query();
  }

  void RunMatchPhase(const UpdateBatch&, bool, const BatchOptions&,
                     BatchReport*) override {}

  void RunUpdatePhase(const UpdateBatch& batch,
                      const BatchOptions& options,
                      BatchReport* report) override {
    double budget = options.budget_seconds > 0 ? options.budget_seconds
                                               : default_budget_;
    for (size_t i = 0; i < slots_.size(); ++i) {
      CsmEngine& engine = *SlotFor(i, *report);
      QueryReport* qr = &report->queries[i];
      Timer t;
      std::vector<MatchRecord> raw = engine.ProcessBatch(batch, budget);
      qr->host_wall_seconds = t.ElapsedSeconds();
      qr->timed_out = qr->timed_out || engine.timed_out();
      qr->overflowed = qr->overflowed || engine.overflowed();
      // The chassis interleaves positives and negatives edge by edge;
      // deliver in that order so order-sensitive sinks (delta views)
      // see the same sequence the engine produced.
      for (const MatchRecord& m : raw) {
        DeliverDirect(options, qr, m);
      }
    }
    ApplyBatch(&graph_, batch);
  }

 private:
  const char* name_;
  std::string csm_key_;  ///< MakeCsmEngine key ("TF", "SYM", ...)
  LabeledGraph graph_;   ///< canonical evolving host graph
  size_t result_cap_;
  double default_budget_;
};

std::string Canonical(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

/// Joins strings as `a, b, c` for error messages and listings.
std::string JoinSorted(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

/// Inline option table of the device engines ("gamma", "multi").
std::vector<EngineOptionKey> DeviceOptionKeys() {
  return {
      {"result_cap",
       "cap on matches materialized per kernel launch (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->gamma.result_cap = n;
         return true;
       }},
      {"budget", "per-launch host budget in seconds (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->gamma.device.host_budget_seconds = s;
         return true;
       }},
      {"segment_capacity", "GPMA segment capacity (a power of two)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0 || (n & (n - 1)) != 0 ||
             n > (size_t{1} << 31)) {
           return false;
         }
         o->gamma.gpma_segment_capacity = static_cast<uint32_t>(n);
         return true;
       }},
      {"coalesced", "coalesced candidate search on/off (paper §V-B)",
       [](const std::string& v, EngineOptions* o) {
         bool b;
         if (!ParseBoolValue(v, &b)) return false;
         o->gamma.coalesced_search = b;
         return true;
       }},
      {"aggressive_coalescing",
       "coalesce equivalent edges across encoder-constraint orbits",
       [](const std::string& v, EngineOptions* o) {
         bool b;
         if (!ParseBoolValue(v, &b)) return false;
         o->gamma.aggressive_coalescing = b;
         return true;
       }},
  };
}

/// Inline option table of the CPU (CSM) baselines.
std::vector<EngineOptionKey> CsmOptionKeys() {
  return {
      {"result_cap", "cap on matches per query (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->csm_result_cap = n;
         return true;
       }},
      {"budget", "per-query host budget in seconds (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->csm_budget_seconds = s;
         return true;
       }},
  };
}

}  // namespace

// --------------------------------------------------------- EngineRegistry

EngineRegistry::EngineRegistry() {
  EngineDef gamma_def;
  gamma_def.option_keys = DeviceOptionKeys();
  gamma_def.example = "gamma(result_cap=100000)";
  gamma_def.factory = [](const EngineSpec&, const LabeledGraph& g,
                         const EngineOptions& o) {
    return std::unique_ptr<Engine>(new DeviceEngine(g, o, /*fused=*/false));
  };
  EngineDef multi_def = gamma_def;
  multi_def.example = "multi(budget=1.0)";
  multi_def.factory = [](const EngineSpec&, const LabeledGraph& g,
                         const EngineOptions& o) {
    return std::unique_ptr<Engine>(new DeviceEngine(g, o, /*fused=*/true));
  };
  Register("gamma", std::move(gamma_def));
  Register("multi", std::move(multi_def));

  struct Csm {
    const char* name;
    const char* alias;
    const char* key;
  };
  for (const Csm& c : {Csm{"tf", "turboflux", "TF"},
                       Csm{"sym", "symbi", "SYM"},
                       Csm{"rf", "rapidflow", "RF"},
                       Csm{"cl", "calig", "CL"},
                       Csm{"gf", "graphflow", "GF"}}) {
    EngineDef def;
    def.option_keys = CsmOptionKeys();
    def.example = std::string(c.name) + "(result_cap=100000, budget=1.0)";
    def.factory = [c](const EngineSpec&, const LabeledGraph& g,
                      const EngineOptions& o) {
      return std::unique_ptr<Engine>(new CsmAdapter(c.name, c.key, g, o));
    };
    Register(c.name, std::move(def));
    RegisterAlias(c.alias, c.name);
  }
  RegisterAlias("multigamma", "multi");

  // The serving wrapper ("sharded") and the replica group
  // ("replicated").  Registered through explicit hooks rather than
  // layer-local static initializers, which the linker would drop from
  // the static library whenever no serve//replica/ symbol is
  // referenced directly.
  serve::RegisterServeEngines(this);
  replica::RegisterReplicaEngines(this);
}

EngineRegistry& EngineRegistry::Instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::Register(const std::string& name, EngineDef def) {
  entries_[Canonical(name)] = Entry{std::move(def), /*alias_target=*/""};
}

void EngineRegistry::Register(const std::string& name,
                              EngineFactory factory) {
  EngineDef def;
  def.factory = std::move(factory);
  def.example = Canonical(name);
  Register(name, std::move(def));
}

void EngineRegistry::RegisterAlias(const std::string& alias,
                                   const std::string& target) {
  std::string canonical_target = Canonical(target);
  GAMMA_CHECK_MSG(entries_.count(canonical_target) > 0,
                  "alias target must be registered first");
  Entry entry;
  entry.alias_target = canonical_target;
  entries_[Canonical(alias)] = std::move(entry);
}

const EngineRegistry::Entry* EngineRegistry::Resolve(
    const std::string& name, std::string* canonical_name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  if (!it->second.alias_target.empty()) {
    *canonical_name = it->second.alias_target;
    it = entries_.find(it->second.alias_target);
    GAMMA_CHECK(it != entries_.end());
  } else {
    *canonical_name = name;
  }
  return &it->second;
}

EngineSpec EngineRegistry::Canonicalize(const EngineSpec& spec) const {
  EngineSpec out = spec;
  out.name = Canonical(out.name);
  std::string canonical_name;
  if (Resolve(out.name, &canonical_name) == nullptr) {
    throw EngineSpecError("unknown engine \"" + out.name +
                          "\"; registered engines: " + JoinSorted(Names()));
  }
  out.name = canonical_name;
  for (EngineSpec& child : out.children) child = Canonicalize(child);
  return out;
}

void EngineRegistry::ApplyOptions(const EngineSpec& spec,
                                  const EngineDef& def,
                                  EngineOptions* options) const {
  for (const auto& [key, value] : spec.options) {
    const EngineOptionKey* found = nullptr;
    for (const EngineOptionKey& ok : def.option_keys) {
      if (ok.key == key) {
        found = &ok;
        break;
      }
    }
    if (found == nullptr) {
      std::vector<std::string> keys;
      for (const EngineOptionKey& ok : def.option_keys) {
        keys.push_back(ok.key);
      }
      throw EngineSpecError(
          "unknown option \"" + key + "\" for engine \"" + spec.name +
          "\"; " +
          (keys.empty() ? std::string("it takes no options")
                        : "valid keys: " + JoinSorted(std::move(keys))));
    }
    if (!found->apply(value, options)) {
      throw EngineSpecError("bad value \"" + value + "\" for option \"" +
                            key + "\" of engine \"" + spec.name + "\"");
    }
  }
}

namespace {

/// Arity error text: "no inner engine spec" / "exactly one inner
/// engine spec" / "between 1 and 2 inner engine specs".
std::string ArityText(size_t min_children, size_t max_children) {
  if (max_children == 0) return "no inner engine spec";
  if (min_children == max_children) {
    return (min_children == 1 ? std::string("exactly one")
                              : std::to_string(min_children)) +
           " inner engine spec" + (min_children == 1 ? "" : "s");
  }
  return "between " + std::to_string(min_children) + " and " +
         std::to_string(max_children) + " inner engine specs";
}

}  // namespace

std::optional<std::string> EngineRegistry::Validate(
    const EngineSpec& spec) const {
  try {
    return ValidateCanonical(Canonicalize(spec));
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
}

std::optional<std::string> EngineRegistry::ValidateCanonical(
    const EngineSpec& canonical) const {
  try {
    // Walk the canonical tree: arity and option checks at every node.
    std::vector<const EngineSpec*> todo = {&canonical};
    while (!todo.empty()) {
      const EngineSpec* node = todo.back();
      todo.pop_back();
      std::string name;
      const Entry* entry = Resolve(node->name, &name);
      GAMMA_CHECK(entry != nullptr);  // Canonicalize resolved every name
      const EngineDef& def = entry->def;
      if (node->children.size() < def.min_children ||
          node->children.size() > def.max_children) {
        throw EngineSpecError(
            "engine \"" + node->name + "\" takes " +
            ArityText(def.min_children, def.max_children) + ", got " +
            std::to_string(node->children.size()) + " in \"" +
            node->ToString() + "\"" +
            (def.example.empty() ? "" : "; example: " + def.example));
      }
      EngineOptions scratch;
      ApplyOptions(*node, def, &scratch);
      for (const EngineSpec& child : node->children) todo.push_back(&child);
    }
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

std::optional<std::string> EngineRegistry::Validate(
    const std::string& spec) const {
  try {
    return Validate(EngineSpec::Parse(spec));
  } catch (const EngineSpecError& e) {
    return std::string(e.what());
  }
}

bool EngineRegistry::Has(const std::string& spec) const {
  return !Validate(spec).has_value();
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (entry.alias_target.empty()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<EngineRegistry::Listing> EngineRegistry::Listings() const {
  std::vector<Listing> listings;
  for (const std::string& name : Names()) {
    auto it = entries_.find(name);
    Listing listing;
    listing.name = name;
    listing.example = it->second.def.example;
    for (const EngineOptionKey& ok : it->second.def.option_keys) {
      listing.option_keys.push_back(ok.key);
    }
    std::sort(listing.option_keys.begin(), listing.option_keys.end());
    listings.push_back(std::move(listing));
  }
  return listings;
}

std::unique_ptr<Engine> EngineRegistry::Make(
    const EngineSpec& spec, const LabeledGraph& g,
    const EngineOptions& options) const {
  EngineSpec canonical = Canonicalize(spec);
  // Fail fast over the whole tree before any engine is built: a bad
  // inner spec must not surface after the outer wrapper spun up
  // threads or replicated graphs.
  if (std::optional<std::string> err = ValidateCanonical(canonical)) {
    throw EngineSpecError(*err);
  }
  std::string name;
  const Entry* entry = Resolve(canonical.name, &name);
  EngineOptions applied = options;
  ApplyOptions(canonical, entry->def, &applied);
  // Programmatic EngineOptions bypass the spec-string option parsers, so
  // the same structural constraints are re-checked here: a bad value must
  // surface as an EngineSpecError before any engine is constructed, not
  // as an internal-check abort inside the Gpma constructor.
  if (uint32_t cap = applied.gamma.gpma_segment_capacity;
      cap == 0 || (cap & (cap - 1)) != 0) {
    throw EngineSpecError(
        "gpma_segment_capacity must be a nonzero power of two, got " +
        std::to_string(cap) +
        " (set via EngineOptions.gamma.gpma_segment_capacity or the "
        "segment_capacity= spec option)");
  }
  std::unique_ptr<Engine> engine = entry->def.factory(canonical, g, applied);
  GAMMA_CHECK(engine != nullptr);
  // An engine that stamped its own spec during construction (wrappers
  // materialize defaults, e.g. the shard count) keeps it — but only
  // when that stamp names the engine we just built.  A delegating
  // factory (one that returns a nested Make() of another name) hands
  // back an engine stamped as the *inner* spec, which must not leak
  // into provenance: rebuilding from it would produce a different
  // engine.
  bool keep_stamp = false;
  if (!engine->canonical_spec_.empty()) {
    try {
      keep_stamp =
          EngineSpec::Parse(engine->canonical_spec_).name == canonical.name;
    } catch (const EngineSpecError&) {
      keep_stamp = false;
    }
  }
  if (!keep_stamp) engine->canonical_spec_ = canonical.ToString();
  return engine;
}

std::unique_ptr<Engine> EngineRegistry::Make(
    const std::string& spec, const LabeledGraph& g,
    const EngineOptions& options) const {
  return Make(EngineSpec::Parse(spec), g, options);
}

std::unique_ptr<Engine> MakeEngine(const std::string& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options) {
  return EngineRegistry::Instance().Make(spec, g, options);
}

std::unique_ptr<Engine> MakeEngine(const EngineSpec& spec,
                                   const LabeledGraph& g,
                                   const EngineOptions& options) {
  return EngineRegistry::Instance().Make(spec, g, options);
}

std::vector<std::string> EngineNames() {
  return EngineRegistry::Instance().Names();
}

std::vector<MatchRecord> NetDelta(const QueryReport& report) {
  std::vector<MatchRecord> raw = report.positive_matches;
  raw.insert(raw.end(), report.negative_matches.begin(),
             report.negative_matches.end());
  return NetEffect(raw);
}

}  // namespace bdsm
