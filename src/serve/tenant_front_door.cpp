#include "serve/tenant_front_door.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"

namespace bdsm::serve {

namespace {

/// Spec-value formatting for doubles: trim trailing zeros so the
/// canonical spec reads `slo=0.01`, not `slo=0.010000`.
std::string FormatDouble(double v) {
  std::string s = std::to_string(v);
  size_t dot = s.find('.');
  if (dot != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    s.erase(std::max(last, dot + 1) + 1);
  }
  return s;
}

}  // namespace

TenantFrontDoor::TenantFrontDoor(const EngineSpec& inner,
                                 const LabeledGraph& g,
                                 const EngineOptions& options)
    : inner_(MakeEngine(inner, g, options)),
      fd_(options.front_door) {
  GAMMA_CHECK_MSG(fd_.batch_ops_min >= 1 && fd_.batch_ops_min <= fd_.batch_ops_max,
                  "tenant front door needs 1 <= batch_min <= batch_max");
  target_ops_ = std::clamp(fd_.batch_ops_init, fd_.batch_ops_min,
                           fd_.batch_ops_max);
  if (fd_.slo_window == 0) fd_.slo_window = 1;
  inner_clock_ = inner_->Describe().clock;

  // Canonical spec: composed from the *built* inner engine with every
  // non-default knob of this layer materialized, same as ShardedEngine
  // (the provenance key bench JSON rows are diffed by).
  const FrontDoorOptions defaults;
  EngineSpec self;
  self.name = "tenant";
  self.children.push_back(
      EngineSpec::Parse(inner_->Describe().canonical_spec));
  if (fd_.preregister_tenants > 0) {
    self.options.emplace_back("tenants",
                              std::to_string(fd_.preregister_tenants));
  }
  if (fd_.admission != defaults.admission) {
    self.options.emplace_back("admission", "off");
  }
  if (fd_.slo_seconds != defaults.slo_seconds) {
    self.options.emplace_back("slo", FormatDouble(fd_.slo_seconds));
  }
  if (fd_.batch_ops_min != defaults.batch_ops_min) {
    self.options.emplace_back("batch_min", std::to_string(fd_.batch_ops_min));
  }
  if (fd_.batch_ops_max != defaults.batch_ops_max) {
    self.options.emplace_back("batch_max", std::to_string(fd_.batch_ops_max));
  }
  if (fd_.batch_ops_init != defaults.batch_ops_init) {
    self.options.emplace_back("batch_init",
                              std::to_string(fd_.batch_ops_init));
  }
  if (fd_.slo_window != defaults.slo_window) {
    self.options.emplace_back("window", std::to_string(fd_.slo_window));
  }
  if (fd_.queue_limit_ops != defaults.queue_limit_ops) {
    self.options.emplace_back("queue_limit",
                              std::to_string(fd_.queue_limit_ops));
  }
  if (fd_.degrade_batches != defaults.degrade_batches) {
    self.options.emplace_back("degrade", std::to_string(fd_.degrade_batches));
  }
  if (fd_.default_policy.rate_ops_per_batch !=
      defaults.default_policy.rate_ops_per_batch) {
    self.options.emplace_back(
        "rate", FormatDouble(fd_.default_policy.rate_ops_per_batch));
  }
  if (fd_.default_policy.burst_ops != defaults.default_policy.burst_ops) {
    self.options.emplace_back("burst",
                              FormatDouble(fd_.default_policy.burst_ops));
  }
  if (fd_.default_policy.result_budget !=
      defaults.default_policy.result_budget) {
    self.options.emplace_back(
        "result_budget", std::to_string(fd_.default_policy.result_budget));
  }
  name_ = self.ToString();
  StampCanonicalSpec(name_);

  // The built-in default tenant (id 0) owns all plain AddQuery /
  // ProcessBatch traffic; `tenants=N` pre-registers N more.
  RegisterTenant("default", fd_.default_policy);
  for (size_t i = 0; i < fd_.preregister_tenants; ++i) {
    RegisterTenant("t" + std::to_string(i), fd_.default_policy);
  }
}

TenantFrontDoor::TenantFrontDoor(const std::string& inner,
                                 const LabeledGraph& g,
                                 const EngineOptions& options)
    : TenantFrontDoor(EngineSpec::Parse(inner), g, options) {}

TenantFrontDoor::~TenantFrontDoor() = default;

EngineInfo TenantFrontDoor::Describe() const {
  EngineInfo info = inner_->Describe();
  info.inner_spec = info.canonical_spec;
  info.canonical_spec = CanonicalSpecOrName();
  info.supports_tenancy = true;
  return info;
}

QueryId TenantFrontDoor::AddQuery(const QueryGraph& q) {
  return AddTenantQuery(kDefaultTenantId, q);
}

bool TenantFrontDoor::RemoveQuery(QueryId id) {
  if (!inner_->RemoveQuery(id)) return false;
  auto it = owner_of_.find(id);
  if (it != owner_of_.end()) {
    --tenants_[it->second].live_queries;
    owner_of_.erase(it);
  }
  return true;
}

std::vector<QueryId> TenantFrontDoor::QueryIds() const {
  return inner_->QueryIds();
}

std::vector<RegisteredQuery> TenantFrontDoor::RegisteredQueries() const {
  return inner_->RegisteredQueries();
}

bool TenantFrontDoor::RestoreQuery(const QueryGraph& q, QueryId id) {
  if (!inner_->RestoreQuery(q, id)) return false;
  owner_of_[id] = kDefaultTenantId;
  ++tenants_[kDefaultTenantId].live_queries;
  return true;
}

// ----------------------------------------------------- TenantControl

TenantId TenantFrontDoor::RegisterTenant(const std::string& name,
                                         const TenantPolicy& policy) {
  Tenant t;
  t.name = name;
  t.policy = policy;
  tenants_.push_back(std::move(t));
  return static_cast<TenantId>(tenants_.size() - 1);
}

QueryId TenantFrontDoor::AddTenantQuery(TenantId tenant,
                                        const QueryGraph& q) {
  GAMMA_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
  Tenant& t = tenants_[tenant];
  if (t.policy.max_queries > 0 && t.live_queries >= t.policy.max_queries) {
    ++t.counters.rejected_queries;
    return kInvalidQueryId;
  }
  QueryId id = inner_->AddQuery(q);
  owner_of_[id] = tenant;
  ++t.live_queries;
  return id;
}

TenantId TenantFrontDoor::OwnerOf(QueryId id) const {
  auto it = owner_of_.find(id);
  return it == owner_of_.end() ? kInvalidTenantId : it->second;
}

size_t TenantFrontDoor::QueueLimit(const Tenant& t) const {
  return t.policy.queue_limit_ops > 0 ? t.policy.queue_limit_ops
                                      : fd_.queue_limit_ops;
}

void TenantFrontDoor::Ingest(TenantId tenant, const UpdateBatch& ops) {
  GAMMA_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
  Tenant& t = tenants_[tenant];
  // admission=off means the baseline arm of the experiment: pure FIFO,
  // no shedding — queues grow unboundedly so queue-wait degradation is
  // visible instead of being masked by drops.
  const size_t limit = fd_.admission ? QueueLimit(t) : 0;
#if BDSM_OBS
  const uint64_t shed_before = t.counters.shed_ops;
#endif
  for (const UpdateOp& op : ops) {
    ++t.counters.offered_ops;
    if (limit > 0 && t.queue.size() >= limit) {
      // Shed, never block: the overflow is this tenant's, not the
      // whole front door's.
      ++t.counters.shed_ops;
      continue;
    }
    t.queue.push_back(Tenant::QueuedOp{op, tenant, next_seq_++, vclock_});
  }
#if BDSM_OBS
  if (obs::Enabled()) {
    BDSM_OBS_COUNT("tenant.offered_ops", ops.size());
    const uint64_t shed = t.counters.shed_ops - shed_before;
    if (shed > 0) {
      BDSM_OBS_COUNT("tenant.shed_ops", shed);
      obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
      if (tracer.enabled()) {
        // Instant on the formation clock: the shed decision happens at
        // Ingest, between formed batches, so it carries the current
        // virtual-clock stamp and zero duration.
        obs::TraceSpan span;
        span.name = "tenant.shed";
        span.domain = ToObsTraceDomain(inner_clock_);
        span.start_s = vclock_;
        span.dur_s = 0.0;
        span.batch = formed_batches_;
        span.tenant = t.name;
        span.detail = "ops=" + std::to_string(shed);
        tracer.Record(std::move(span));
      }
    }
    PublishTenantObs(t);
  }
#endif
}

size_t TenantFrontDoor::PendingOps() const {
  size_t n = 0;
  for (const Tenant& t : tenants_) n += t.queue.size();
  return n;
}

void TenantFrontDoor::RefillBucket(Tenant* t) {
  const double rate = t->policy.rate_ops_per_batch;
  if (rate <= 0.0) return;
  // Burst floor 1.0: a fractional rate must still accumulate to a
  // whole op, or a rate-limited queue could never drain.
  const double burst = std::max(
      1.0, t->policy.burst_ops > 0.0 ? t->policy.burst_ops : 2.0 * rate);
  t->tokens = std::min(burst, t->tokens + rate);
}

std::vector<TenantFrontDoor::Tenant::QueuedOp> TenantFrontDoor::SelectOps(
    size_t target, std::vector<size_t>* admitted_per_tenant) {
  std::vector<Tenant::QueuedOp> chosen;
  admitted_per_tenant->assign(tenants_.size(), 0);
  size_t remaining = target;

  if (!fd_.admission) {
    // No admission control: pure global FIFO — exactly the shared
    // undifferentiated queue the noisy-neighbor scenario indicts.
    while (remaining > 0) {
      Tenant* best = nullptr;
      size_t best_idx = 0;
      for (size_t i = 0; i < tenants_.size(); ++i) {
        Tenant& t = tenants_[i];
        if (t.queue.empty()) continue;
        if (best == nullptr || t.queue.front().seq < best->queue.front().seq) {
          best = &t;
          best_idx = i;
        }
      }
      if (best == nullptr) break;
      chosen.push_back(best->queue.front());
      best->queue.pop_front();
      ++(*admitted_per_tenant)[best_idx];
      --remaining;
    }
    return chosen;
  }

  // Degrade clamp: a tenant that blew its result budget contributes at
  // most a quarter of the target while clamped (floor 1 — degraded,
  // not starved).
  const size_t degraded_cap = std::max<size_t>(1, target / 4);
  static constexpr PriorityClass kClasses[] = {
      PriorityClass::kGold, PriorityClass::kSilver,
      PriorityClass::kBestEffort};
  for (PriorityClass cls : kClasses) {
    std::vector<size_t> idxs;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i].policy.priority == cls && !tenants_[i].queue.empty()) {
        idxs.push_back(i);
      }
    }
    if (idxs.empty()) continue;
    // One op per tenant per visit: op-granular round-robin, so tenants
    // of equal class split the class's share evenly however unequal
    // their backlogs are.
    bool progress = true;
    while (remaining > 0 && progress) {
      progress = false;
      for (size_t k = 0; k < idxs.size() && remaining > 0; ++k) {
        const size_t i = idxs[(rr_cursor_ + k) % idxs.size()];
        Tenant& t = tenants_[i];
        if (t.queue.empty()) continue;
        if (t.policy.rate_ops_per_batch > 0.0 && t.tokens < 1.0) continue;
        if (t.degrade_left > 0 && (*admitted_per_tenant)[i] >= degraded_cap) {
          continue;
        }
        chosen.push_back(t.queue.front());
        t.queue.pop_front();
        if (t.policy.rate_ops_per_batch > 0.0) t.tokens -= 1.0;
        ++(*admitted_per_tenant)[i];
        --remaining;
        progress = true;
      }
    }
  }
  ++rr_cursor_;

  // Ops a clamped tenant could have contributed (queue, tokens and
  // batch space all permitting) were *deferred*, not shed — count them
  // so the degradation story is visible in the accounting.
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    if (t.degrade_left == 0 || remaining == 0) continue;
    size_t could = t.queue.size();
    if (t.policy.rate_ops_per_batch > 0.0) {
      could = std::min(could, static_cast<size_t>(t.tokens));
    }
    t.counters.degraded_ops += std::min(could, remaining);
  }
  std::sort(chosen.begin(), chosen.end(),
            [](const Tenant::QueuedOp& a, const Tenant::QueuedOp& b) {
              return a.seq < b.seq;
            });
  return chosen;
}

bool TenantFrontDoor::PumpFormedBatch(FormedBatchStats* out) {
  const size_t pending_before = PendingOps();
  if (pending_before == 0) return false;

  // The batch tick: buckets refill exactly once per formed batch.
  for (Tenant& t : tenants_) RefillBucket(&t);

  std::vector<size_t> admitted;
  std::vector<Tenant::QueuedOp> chosen = SelectOps(target_ops_, &admitted);

  FormedBatchStats stats;
  stats.queue_depth_before = pending_before;
  stats.target_ops = target_ops_;
  stats.admitted_ops = chosen.size();

  if (!chosen.empty()) {
    UpdateBatch ops;
    ops.reserve(chosen.size());
    std::vector<double> max_wait(tenants_.size(), 0.0);
    for (const Tenant::QueuedOp& q : chosen) ops.push_back(q.op);

    BatchReport report = inner_->ProcessBatch(ops);
    const double latency = report.latency_seconds;

    // Queue wait is virtual-clock: how much formed-batch service time
    // elapsed between an op's Ingest and its batch starting.
    for (const Tenant::QueuedOp& q : chosen) {
      const double wait = vclock_ - q.arrival_vclock;
      stats.queue_wait_seconds = std::max(stats.queue_wait_seconds, wait);
      max_wait[q.owner] = std::max(max_wait[q.owner], wait);
    }
    vclock_ += latency;
    AdaptTarget(latency);
    stats.service_seconds = latency;

    // Per-tenant results and budget enforcement.
    std::vector<size_t> tenant_matches(tenants_.size(), 0);
    for (const QueryReport& qr : report.queries) {
      stats.positive_matches += qr.num_positive;
      stats.negative_matches += qr.num_negative;
      if (qr.Truncated()) ++stats.truncated_queries;
      auto it = owner_of_.find(qr.id);
      const TenantId tid =
          it == owner_of_.end() ? kDefaultTenantId : it->second;
      Tenant& t = tenants_[tid];
      t.counters.positive_matches += qr.num_positive;
      t.counters.negative_matches += qr.num_negative;
      tenant_matches[tid] += qr.TotalMatches();
    }
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      if (admitted[i] > 0) {
        t.counters.admitted_ops += admitted[i];
        ++t.counters.batches;
        t.service_seconds.push_back(latency);
        t.queue_wait_seconds.push_back(max_wait[i]);
      }
      if (fd_.admission && t.policy.result_budget > 0 &&
          tenant_matches[i] > t.policy.result_budget) {
        ++t.counters.over_budget_batches;
        t.degrade_left = fd_.degrade_batches;
      } else if (t.degrade_left > 0) {
        --t.degrade_left;
      }
    }
#if BDSM_OBS
    if (obs::Enabled()) {
      BDSM_OBS_COUNT("tenant.formed_batches", 1);
      BDSM_OBS_COUNT("tenant.admitted_ops", chosen.size());
      BDSM_OBS_GAUGE_SET("tenant.target_ops", target_ops_);
      obs::TraceRecorder& tracer = obs::TraceRecorder::Instance();
      if (tracer.enabled()) {
        // The formed batch occupies [vclock before, vclock after] on
        // the inner engine's clock; per-tenant admit spans share the
        // interval in their own lanes.
        const double start_v = vclock_ - latency;
        obs::TraceSpan form;
        form.name = "tenant.form";
        form.domain = ToObsTraceDomain(inner_clock_);
        form.start_s = start_v;
        form.dur_s = latency;
        form.batch = formed_batches_;
        form.detail = "target=" + std::to_string(stats.target_ops) +
                      " admitted=" + std::to_string(stats.admitted_ops);
        tracer.Record(std::move(form));
        for (size_t i = 0; i < tenants_.size(); ++i) {
          if (admitted[i] == 0) continue;
          obs::TraceSpan admit;
          admit.name = "tenant.admit";
          admit.domain = ToObsTraceDomain(inner_clock_);
          admit.start_s = start_v;
          admit.dur_s = latency;
          admit.batch = formed_batches_;
          admit.tenant = tenants_[i].name;
          admit.detail = "ops=" + std::to_string(admitted[i]);
          tracer.Record(std::move(admit));
        }
      }
      for (const Tenant& t : tenants_) PublishTenantObs(t);
    }
#endif
    ++formed_batches_;
  } else {
    // Every queued tenant is out of tokens this tick; the refill above
    // still happened, so forward progress is guaranteed next pump.
    for (Tenant& t : tenants_) {
      if (t.degrade_left > 0) --t.degrade_left;
    }
  }
  if (out != nullptr) *out = stats;
  return true;
}

void TenantFrontDoor::PublishTenantObs(const Tenant& t) const {
#if BDSM_OBS
  if (!obs::Enabled()) return;
  // Dynamic names can't use the static-cache macros; the per-name map
  // lookup is fine here — this runs per Ingest call / formed batch,
  // never per op.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const std::string prefix = "tenant." + t.name + ".";
  reg.GetGauge(prefix + "offered_ops")
      .Set(static_cast<int64_t>(t.counters.offered_ops));
  reg.GetGauge(prefix + "admitted_ops")
      .Set(static_cast<int64_t>(t.counters.admitted_ops));
  reg.GetGauge(prefix + "shed_ops")
      .Set(static_cast<int64_t>(t.counters.shed_ops));
  reg.GetGauge(prefix + "degraded_ops")
      .Set(static_cast<int64_t>(t.counters.degraded_ops));
  reg.GetGauge(prefix + "queue_depth")
      .Set(static_cast<int64_t>(t.queue.size()));
#else
  (void)t;
#endif
}

void TenantFrontDoor::AdaptTarget(double latency) {
  latency_window_.push_back(latency);
  while (latency_window_.size() > fd_.slo_window) latency_window_.pop_front();
  if (fd_.slo_seconds <= 0.0) return;
  double worst = 0.0;
  for (double s : latency_window_) worst = std::max(worst, s);
  if (worst > fd_.slo_seconds) {
    // Multiplicative decrease: the recent tail breached the SLO.
    target_ops_ = std::max(fd_.batch_ops_min, target_ops_ / 2);
  } else {
    // Additive increase while the tail behaves.
    target_ops_ = std::min(fd_.batch_ops_max,
                           target_ops_ + fd_.batch_ops_min);
  }
}

TenantSnapshot TenantFrontDoor::Snapshot(TenantId tenant) const {
  GAMMA_CHECK_MSG(tenant < tenants_.size(), "unknown tenant id");
  const Tenant& t = tenants_[tenant];
  TenantSnapshot s;
  s.id = tenant;
  s.name = t.name;
  s.policy = t.policy;
  s.counters = t.counters;
  s.live_queries = t.live_queries;
  s.pending_ops = t.queue.size();
  s.service_seconds = t.service_seconds;
  s.queue_wait_seconds = t.queue_wait_seconds;
  return s;
}

double TenantFrontDoor::JainFairnessIndex() const {
  std::vector<double> shares;
  for (const Tenant& t : tenants_) {
    if (t.counters.offered_ops == 0) continue;
    shares.push_back(static_cast<double>(t.counters.admitted_ops) /
                     static_cast<double>(t.counters.offered_ops));
  }
  return JainIndex(shares);
}

// -------------------------------------------------- flat pass-through

void TenantFrontDoor::RunMatchPhase(const UpdateBatch& batch, bool positive,
                                    const BatchOptions& options,
                                    BatchReport* report) {
  if (!positive) {
    // The negative phase opens every batch (phase contract), so it is
    // the flat path's admission point and batch tick.  Under the
    // permissive default policy this is a no-op and the forwarded
    // batch is the caller's — the match-identical guarantee.
    Tenant& t = tenants_[kDefaultTenantId];
    t.counters.offered_ops += batch.size();
    flat_use_clamped_ = false;
    if (fd_.admission && t.policy.rate_ops_per_batch > 0.0) {
      RefillBucket(&t);
      const size_t allow = static_cast<size_t>(t.tokens);
      if (allow < batch.size()) {
        flat_clamped_.assign(batch.begin(),
                             batch.begin() + static_cast<ptrdiff_t>(allow));
        flat_use_clamped_ = true;
        t.tokens -= static_cast<double>(allow);
        t.counters.admitted_ops += allow;
        t.counters.shed_ops += batch.size() - allow;
      } else {
        t.tokens -= static_cast<double>(batch.size());
        t.counters.admitted_ops += batch.size();
      }
    } else {
      t.counters.admitted_ops += batch.size();
    }
  }
  const UpdateBatch& use = flat_use_clamped_ ? flat_clamped_ : batch;
  inner_->RunMatchPhase(use, positive, options, report);
  if (positive) {
    // Batch end.  FlushPhase has not run for this phase yet, so a
    // query's final count is its flushed count plus the unflushed tail.
    ++tenants_[kDefaultTenantId].counters.batches;
    std::vector<size_t> tenant_matches(tenants_.size(), 0);
    for (const QueryReport& qr : report->queries) {
      const size_t pos =
          qr.num_positive + (qr.positive_matches.size() - qr.streamed_positive);
      const size_t neg =
          qr.num_negative + (qr.negative_matches.size() - qr.streamed_negative);
      auto it = owner_of_.find(qr.id);
      const TenantId tid =
          it == owner_of_.end() ? kDefaultTenantId : it->second;
      tenants_[tid].counters.positive_matches += pos;
      tenants_[tid].counters.negative_matches += neg;
      tenant_matches[tid] += pos + neg;
    }
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      if (fd_.admission && t.policy.result_budget > 0 &&
          tenant_matches[i] > t.policy.result_budget) {
        ++t.counters.over_budget_batches;
        t.degrade_left = fd_.degrade_batches;
      }
    }
  }
}

void TenantFrontDoor::RunUpdatePhase(const UpdateBatch& batch,
                                     const BatchOptions& options,
                                     BatchReport* report) {
  const UpdateBatch& use = flat_use_clamped_ ? flat_clamped_ : batch;
  inner_->RunUpdatePhase(use, options, report);
}

// ------------------------------------------------------- registration

void RegisterTenantEngine(EngineRegistry* registry) {
  EngineDef def;
  def.example = "tenant(sharded(gamma, shards=4), tenants=4, slo=0.01)";
  def.min_children = 1;
  def.max_children = 1;
  def.option_keys = {
      {"tenants", "tenants to pre-register (t0..tN-1, default policy)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n > 4096) return false;
         o->front_door.preregister_tenants = n;
         return true;
       }},
      {"admission", "admission control master switch (on/off)",
       [](const std::string& v, EngineOptions* o) {
         bool b;
         if (!ParseBoolValue(v, &b)) return false;
         o->front_door.admission = b;
         return true;
       }},
      {"slo", "target per-batch latency in seconds (0 = fixed size)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->front_door.slo_seconds = s;
         return true;
       }},
      {"batch_min", "lower bound of the adaptive target batch size (ops)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->front_door.batch_ops_min = n;
         return true;
       }},
      {"batch_max", "upper bound of the adaptive target batch size (ops)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->front_door.batch_ops_max = n;
         return true;
       }},
      {"batch_init", "initial target batch size (ops)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->front_door.batch_ops_init = n;
         return true;
       }},
      {"window", "recent-latency window of the SLO controller (batches)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n) || n == 0) return false;
         o->front_door.slo_window = n;
         return true;
       }},
      {"queue_limit", "default per-tenant pending-op bound (0 = unbounded)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->front_door.queue_limit_ops = n;
         return true;
       }},
      {"degrade", "batches a tenant stays clamped after a blown budget",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->front_door.degrade_batches = n;
         return true;
       }},
      {"rate", "default token-bucket refill, ops per formed batch (0 = off)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->front_door.default_policy.rate_ops_per_batch = s;
         return true;
       }},
      {"burst", "default token-bucket capacity (0 = 2x rate)",
       [](const std::string& v, EngineOptions* o) {
         double s;
         if (!ParseDoubleValue(v, &s) || s < 0.0) return false;
         o->front_door.default_policy.burst_ops = s;
         return true;
       }},
      {"result_budget", "default per-batch result budget (0 = unlimited)",
       [](const std::string& v, EngineOptions* o) {
         size_t n;
         if (!ParseSizeValue(v, &n)) return false;
         o->front_door.default_policy.result_budget = n;
         return true;
       }},
  };
  def.factory = [](const EngineSpec& spec, const LabeledGraph& g,
                   const EngineOptions& options) {
    return std::unique_ptr<Engine>(
        new TenantFrontDoor(spec.children.front(), g, options));
  };
  registry->Register("tenant", std::move(def));
}

}  // namespace bdsm::serve
