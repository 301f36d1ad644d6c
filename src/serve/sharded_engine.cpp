#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/tenant_front_door.hpp"
#include "util/common.hpp"
#include "util/timer.hpp"

namespace bdsm::serve {

ShardedEngine::ShardedEngine(const EngineSpec& inner, size_t num_shards,
                             const LabeledGraph& g,
                             const EngineOptions& options)
    : pool_(options.serve_threads > 0 ? options.serve_threads : num_shards) {
  GAMMA_CHECK_MSG(num_shards > 0, "ShardedEngine needs at least one shard");
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.engine = MakeEngine(inner, g, options);
    shards_.push_back(std::move(shard));
  }
  // Compose the canonical spec from the *built* inner engine (aliases
  // resolved by the registry), not the raw argument, materializing
  // every non-default knob of this layer — whether it
  // arrived inline (threads=2) or via EngineOptions — so Name() and
  // Describe().canonical_spec fully identify the configuration (they
  // are the provenance key bench JSON rows are diffed by).
  const EngineOptions defaults;
  EngineSpec self;
  self.name = "sharded";
  self.children.push_back(
      EngineSpec::Parse(shards_.front().engine->Describe().canonical_spec));
  self.options.emplace_back("shards", std::to_string(num_shards));
  if (options.serve_threads != defaults.serve_threads) {
    self.options.emplace_back("threads",
                              std::to_string(options.serve_threads));
  }
  name_ = self.ToString();
  StampCanonicalSpec(name_);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s].lane = std::make_unique<FanInSink::Lane>(
        &fanin_, [this, s](QueryId inner_id) {
          const auto& map = shards_[s].to_public;
          auto it = map.find(inner_id);
          return it == map.end() ? inner_id : it->second;
        });
  }
}

ShardedEngine::ShardedEngine(const std::string& inner, size_t num_shards,
                             const LabeledGraph& g,
                             const EngineOptions& options)
    : ShardedEngine(EngineSpec::Parse(inner), num_shards, g, options) {}

EngineInfo ShardedEngine::Describe() const {
  EngineInfo inner = shards_.front().engine->Describe();
  EngineInfo info;
  info.canonical_spec = CanonicalSpecOrName();
  // Device-modeled inner engines stay on the modeled clock (the merge
  // reproduces the unsharded launch accounting); CPU inner engines run
  // shard-concurrently, so the honest clock is the critical path.
  info.clock = inner.clock == ClockDomain::kModeledDevice
                   ? ClockDomain::kModeledDevice
                   : ClockDomain::kCriticalPath;
  info.tick_seconds = inner.tick_seconds;
  info.num_shards = shards_.size();
  info.inner_spec = inner.canonical_spec;
  info.supports_snapshot = inner.supports_snapshot;
  return info;
}

QueryId ShardedEngine::AddQuery(const QueryGraph& q) {
  QueryId public_id = next_id_++;
  size_t shard = public_id % shards_.size();
  QueryId inner_id = shards_[shard].engine->AddQuery(q);
  shards_[shard].to_public[inner_id] = public_id;
  slots_.push_back(SlotRef{public_id, shard, inner_id});
  return public_id;
}

bool ShardedEngine::RemoveQuery(QueryId id) {
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    if (it->public_id != id) continue;
    Shard& shard = shards_[it->shard];
    GAMMA_CHECK(shard.engine->RemoveQuery(it->inner_id));
    shard.to_public.erase(it->inner_id);
    slots_.erase(it);
    return true;
  }
  return false;
}

std::vector<QueryId> ShardedEngine::QueryIds() const {
  std::vector<QueryId> ids;
  ids.reserve(slots_.size());
  for (const SlotRef& ref : slots_) ids.push_back(ref.public_id);
  return ids;
}

std::vector<RegisteredQuery> ShardedEngine::RegisteredQueries() const {
  // One capture per shard, indexed by inner id (this sits on the
  // snapshot path, which checkpoint policies may hit every batch).
  std::vector<std::unordered_map<QueryId, QueryGraph>> by_inner(
      shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (RegisteredQuery& rq : shards_[s].engine->RegisteredQueries()) {
      by_inner[s].emplace(rq.id, std::move(rq.query));
    }
  }
  std::vector<RegisteredQuery> out;
  out.reserve(slots_.size());
  for (const SlotRef& ref : slots_) {
    auto it = by_inner[ref.shard].find(ref.inner_id);
    if (it == by_inner[ref.shard].end()) {
      return {};  // inner engine cannot capture its set
    }
    // The public id is what the snapshot records.
    out.push_back(RegisteredQuery{ref.public_id, std::move(it->second)});
  }
  return out;
}

bool ShardedEngine::RestoreQuery(const QueryGraph& q, QueryId id) {
  if (id < next_id_) return false;
  // Round-robin placement is keyed on the public id, so advancing the
  // counter to the snapshot id reproduces the original shard
  // assignment exactly (gaps from removed queries included).
  next_id_ = id;
  return AddQuery(q) == id;
}

size_t ShardedEngine::ShardOf(QueryId id) const {
  for (const SlotRef& ref : slots_) {
    if (ref.public_id == id) return ref.shard;
  }
  return kInvalidShard;
}

void ShardedEngine::BeginBatch(const BatchOptions& options) {
  if (poisoned_) {
    throw std::runtime_error(
        "ShardedEngine poisoned: an earlier batch failed mid-flight "
        "and shard replicas may have diverged");
  }
  fanin_.set_downstream(options.sink);
  for (Shard& shard : shards_) {
    // InitReport only rebuilds the query slots; the aggregates must be
    // zeroed explicitly since scratch is reused across batches.
    shard.scratch = BatchReport{};
    shard.engine->InitReport(&shard.scratch);
  }
}

double ShardedEngine::ForEachShard(
    const BatchOptions& options, const char* phase_name,
    const std::function<void(Shard&, const BatchOptions&)>& phase_body) {
  std::vector<double> phase_seconds(shards_.size(), 0.0);
  try {
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      // Thread-CPU, not wall: each shard task runs on one worker, and
      // its cost must not inflate when workers share cores.
      ThreadCpuTimer timer;
      Shard& shard = shards_[s];
      // A nested sharded inner engine does its work on its *own* pool
      // (this worker blocks on its barrier, accruing ~no thread-CPU),
      // reporting the cost as scratch critical path instead — charge
      // the delta so nesting keeps the clock honest.
      double inner_critical_before = shard.scratch.critical_path_seconds;
      BatchOptions inner = options;
      inner.sink = options.sink != nullptr ? shard.lane.get() : nullptr;
      phase_body(shard, inner);
      // Stream this phase's new matches through the shard's lane and
      // maintain the shard-local counts, exactly as the unsharded
      // driver would between phases.
      Engine::FlushPhase(inner, &shard.scratch);
      phase_seconds[s] =
          timer.ElapsedSeconds() +
          (shard.scratch.critical_path_seconds - inner_critical_before);
    });
  } catch (...) {
    // A shard failing mid-phase may leave the replicas diverged (some
    // applied this batch's work, some did not).
    poisoned_ = true;
    throw;
  }
  // Each phase is a barrier, so its concurrent cost is the slowest
  // shard's (the critical path a host with enough cores pays).
  const double slowest =
      *std::max_element(phase_seconds.begin(), phase_seconds.end());
#if BDSM_OBS
  if (obs::Enabled()) {
    double busy = 0.0;
    for (double seconds : phase_seconds) busy += seconds;
    BDSM_OBS_COUNT_US("serve.critical_path_us", slowest);
    BDSM_OBS_COUNT_US("serve.shards.busy_us", busy);
    obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
    if (tracer.enabled()) {
      // Per-shard fan-out lanes on the critical-path clock: all shards
      // of a phase start together (barrier semantics), the slowest one
      // advances the cursor — mirroring the report's
      // critical_path_seconds.
      for (size_t s = 0; s < shards_.size(); ++s) {
        obs::TraceSpan span;
        span.name = "serve.shard";
        span.domain = obs::Domain::kCriticalPath;
        span.start_s = obs_shard_cursor_;
        span.dur_s = phase_seconds[s];
        span.batch = obs_batch_seq_;
        span.shard = static_cast<int32_t>(s);
        span.detail = phase_name;
        tracer.Record(std::move(span));
      }
      obs_shard_cursor_ += slowest;
    }
  }
#else
  (void)phase_name;
#endif
  return slowest;
}

void ShardedEngine::MergeIntoReport(const BatchOptions& options,
                                    BatchReport* report) {
  GAMMA_CHECK(report->queries.size() == slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const SlotRef& ref = slots_[i];
    QueryReport& out = report->queries[i];  // InitReport order
    GAMMA_CHECK(out.id == ref.public_id);
    const QueryReport* in = shards_[ref.shard].scratch.Find(ref.inner_id);
    GAMMA_CHECK(in != nullptr);

    out.num_positive = in->num_positive;
    out.num_negative = in->num_negative;
    out.timed_out = in->timed_out;
    out.overflowed = in->overflowed;
    out.update_stats = in->update_stats;
    out.match_stats = in->match_stats;
    out.preprocess_host_seconds = in->preprocess_host_seconds;
    out.host_wall_seconds = in->host_wall_seconds;
    if (options.materialize) {
      // Shard scratch accumulates across phases; append only the tail
      // this merge hasn't seen yet (the public vector's size tracks it).
      out.positive_matches.insert(
          out.positive_matches.end(),
          in->positive_matches.begin() +
              static_cast<ptrdiff_t>(out.positive_matches.size()),
          in->positive_matches.end());
      out.negative_matches.insert(
          out.negative_matches.end(),
          in->negative_matches.begin() +
              static_cast<ptrdiff_t>(out.negative_matches.size()),
          in->negative_matches.end());
    }
    // The fan-in lanes already streamed and counted everything merged
    // here; advance the flush markers so the outer FlushPhase neither
    // re-counts nor re-delivers.
    out.streamed_positive = out.positive_matches.size();
    out.streamed_negative = out.negative_matches.size();
  }

  // Aggregates, rebuilt from the shard aggregates in shard-index order.
  // DeviceStats accumulation is commutative (sums/maxes/ors), so for
  // per-query-independent inner engines this equals the unsharded
  // engine's query-order accumulation bit for bit.
  report->update_stats = DeviceStats{};
  report->match_stats = DeviceStats{};
  report->preprocess_host_seconds = 0.0;
  for (const Shard& shard : shards_) {
    report->update_stats.MergeSequential(shard.scratch.update_stats);
    report->match_stats.MergeSequential(shard.scratch.match_stats);
    report->preprocess_host_seconds +=
        shard.scratch.preprocess_host_seconds;
  }
}

void ShardedEngine::RunMatchPhase(const UpdateBatch& batch, bool positive,
                                  const BatchOptions& options,
                                  BatchReport* report) {
  // The negative phase is always the first phase of a batch (the
  // engine batch loop runs negative -> update -> positive), so it
  // doubles as the per-batch reset point.
  if (!positive) BeginBatch(options);
  report->critical_path_seconds += ForEachShard(
      options, positive ? "match+" : "match-",
      [&](Shard& shard, const BatchOptions& inner) {
        shard.engine->RunMatchPhase(batch, positive, inner, &shard.scratch);
      });
  MergeIntoReport(options, report);
}

void ShardedEngine::RunUpdatePhase(const UpdateBatch& batch,
                                   const BatchOptions& options,
                                   BatchReport* report) {
  // Every shard applies the batch to its own replica, keeping all
  // host graphs (and any late AddQuery) in lockstep.
  report->critical_path_seconds += ForEachShard(
      options, "update", [&](Shard& shard, const BatchOptions& inner) {
        shard.engine->RunUpdatePhase(batch, inner, &shard.scratch);
      });
  MergeIntoReport(options, report);
}

void RegisterServeEngines(EngineRegistry* registry) {
  EngineDef def;
  def.example = "sharded(gamma, shards=8)";
  def.min_children = 1;
  def.max_children = 1;
  def.option_keys = {
      {"shards", "inner engine instances to partition queries across",
       // Structural key: consumed by the factory below, validated here.
       [](const std::string& v, EngineOptions*) {
         size_t n;
         return ParseSizeValue(v, &n) && n >= 1 &&
                n <= 4096;  // sanity bound, not a target
       }},
      {"threads", "phase fan-out worker threads (0 = one per shard)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->serve_threads = n;
         return true;
       }},
  };
  def.factory = [](const EngineSpec& spec, const LabeledGraph& g,
                   const EngineOptions& options) {
    size_t num_shards = ShardedEngine::kDefaultShards;
    if (const std::string* v = spec.FindOption("shards")) {
      ParseSizeValue(*v, &num_shards);  // validated by the key table
    }
    return std::unique_ptr<Engine>(
        new ShardedEngine(spec.children.front(), num_shards, g, options));
  };
  registry->Register("sharded", std::move(def));
  RegisterTenantEngine(registry);
}

}  // namespace bdsm::serve
