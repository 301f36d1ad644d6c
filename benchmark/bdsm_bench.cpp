// bdsm_bench: runs one benchmark workload in this process and prints its
// raw measurements as one JSON object on stdout.  benchmark/run.py
// builds this program, runs one process per workload, and derives the
// reported metrics from the raw samples (see benchmark/README.md).
//
//   bdsm_bench --workload NAME [--seed N] [--seconds S] [--trace]
//              [--quick] [--out-dir DIR]
//
// Load model: closed loop, one client.  Each batch goes through
// Engine::ProcessBatch with a streaming, non-materializing sink that
// hashes every match; the next batch is sent when the call returns.
//
// Measure mode: an untimed warm-up over the first batches on a throwaway
// engine, then timed repetitions, each on a fresh engine over the whole
// stream: at least three, more while another still fits in `--seconds`.
// Afterwards an untimed pass of the "rf" CSM baseline over the
// same stream is the oracle every repetition's per-batch, per-query
// match digests must equal; per-batch outcomes (counts, digests,
// DeviceStats) must also be identical across repetitions.
//
// Trace mode: an untraced engine pass and the layer replay
// (layer_replay.hpp) with spans take turns over the stream; the replay is
// checked against the engine batch by batch, and spans and layer shares
// go to --out-dir.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "digest.hpp"
#include "layer_replay.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace bdsm::bench {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 50;
constexpr size_t kWarmupBatches = 50;
/// Dedicated set-ups before the warm-up; with the reps' own set-ups they
/// give setup_s its median.
constexpr size_t kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 2024;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "bdsm_bench: %s\nusage: bdsm_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace] [--quick] "
               "[--out-dir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      a.workload = value();
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      a.seconds = std::strtod(value(), nullptr);
    } else if (!std::strcmp(argv[i], "--out-dir")) {
      a.out_dir = value();
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = true;
    } else if (!std::strcmp(argv[i], "--quick")) {
      a.quick = true;
    } else {
      Usage("unknown argument");
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// Engine construction for one workload; records every timed set-up
/// (MakeEngine plus all AddQuery calls).
struct Engines {
  const Workload& w;
  const Inputs& in;
  EngineOptions options;
  std::vector<double> setup_s;

  std::unique_ptr<Engine> Make(const std::string& spec, bool timed) {
    Timer t;
    std::unique_ptr<Engine> e = MakeEngine(spec, in.graph, options);
    for (const QueryGraph& q : in.queries) e->AddQuery(q);
    if (timed) setup_s.push_back(t.ElapsedSeconds());
    return e;
  }
};

/// What one pass of an engine over (a prefix of) the stream recorded.
struct Pass {
  std::vector<double> batch_s;    ///< ProcessBatch host wall
  std::vector<double> modeled_s;  ///< BatchReport::ModeledSeconds
  std::vector<BatchOutcome> outcomes;
  std::vector<bool> truncated;
  std::vector<bool> differs;  ///< outcome != the first rep's (later reps)
};

/// Sends one batch through `e` the way the load model does (streaming
/// sink, nothing materialized) and records it in `p`.
void RunBatch(Engine* e, DigestSink* sink, const UpdateBatch& batch,
              const DeviceConfig& cfg, Pass* p) {
  BatchOptions options;
  options.sink = sink;
  options.materialize = false;
  Timer t;
  BatchReport r = e->ProcessBatch(batch, options);
  p->batch_s.push_back(t.ElapsedSeconds());
  p->modeled_s.push_back(r.ModeledSeconds(cfg));
  p->outcomes.push_back(OutcomeOf(r, sink->Take()));
  p->truncated.push_back(r.Truncated());
}

Pass RunPass(Engine* e, const Inputs& in, const DeviceConfig& cfg,
             size_t batches) {
  Pass p;
  DigestSink sink(in.queries.size());
  for (size_t b = 0; b < batches; ++b) {
    RunBatch(e, &sink, in.stream[b], cfg, &p);
  }
  return p;
}

/// Repeated set-ups (the first one cold), then the untimed warm-up pass.
void WarmUp(Engines* engines, const DeviceConfig& cfg) {
  for (size_t i = 1; i < kSetupReps; ++i) {
    engines->Make(engines->w.engine, /*timed=*/true);
  }
  std::unique_ptr<Engine> e = engines->Make(engines->w.engine, true);
  RunPass(e.get(), engines->in, cfg,
          std::min(kWarmupBatches, engines->in.stream.size()));
}

/// The reference pass: the "rf" CSM baseline's net per-batch delta.
/// `truncated` is set when rf itself hit a cap or budget.
std::vector<BatchCells> OraclePass(Engines* engines, bool* truncated) {
  std::unique_ptr<Engine> rf = engines->Make("rf", /*timed=*/false);
  std::vector<BatchCells> out;
  for (const UpdateBatch& batch : engines->in.stream) {
    BatchReport r = rf->ProcessBatch(batch);
    BatchCells cells(engines->in.queries.size());
    for (const QueryReport& qr : r.queries) {
      for (const MatchRecord& m : NetDelta(qr)) AddMatch(&cells[qr.id], m);
    }
    *truncated = *truncated || r.Truncated();
    out.push_back(std::move(cells));
  }
  return out;
}

bool AgreesWithOracle(const BatchOutcome& o, const BatchCells& oracle) {
  for (size_t q = 0; q < o.queries.size(); ++q) {
    if (o.queries[q].matches != oracle[q]) return false;
  }
  return true;
}

// ---------------------------------------------------------------- JSON

std::string Num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

template <typename T>
std::string Array(const std::vector<T>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += Num(static_cast<double>(xs[i]));
  }
  return out + "]";
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

/// The fields every mode reports about its inputs.
std::string InputsJson(const Workload& w, const Args& a, const Inputs& in,
                       double gen_s) {
  Fingerprints fp = Fingerprint(in);
  size_t ops = 0;
  for (const UpdateBatch& b : in.stream) ops += b.size();
  return "\"workload\": " + Quote(w.name) + ", \"engine\": " +
         Quote(w.engine) + ", \"seed\": " + std::to_string(a.seed) +
         ", \"quick\": " + (a.quick ? "true" : "false") +
         ", \"vertices\": " + std::to_string(in.graph.NumVertices()) +
         ", \"edges\": " + std::to_string(in.graph.NumEdges()) +
         ", \"queries\": " + std::to_string(in.queries.size()) +
         ", \"batches\": " + std::to_string(in.stream.size()) +
         ", \"updates\": " + std::to_string(ops) +
         ", \"input_gen_s\": " + Num(gen_s) +
         ", \"fingerprints\": {\"graph\": " + Quote(fp.graph) +
         ", \"queries\": " + Quote(fp.queries) + ", \"stream\": " +
         Quote(fp.stream) + "}";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- modes

int Measure(const Workload& w, const Args& a, const Inputs& in,
            double gen_s) {
  Engines engines{w, in, {}, {}};
  const DeviceConfig& cfg = engines.options.gamma.device;
  const size_t n = in.stream.size();
  WarmUp(&engines, cfg);

  // Beyond the minimum, a rep starts only when one more rep of the mean
  // length still ends within --seconds.  Only the first rep keeps its
  // outcomes; later reps are compared with it and drop theirs, so the
  // benchmark's own memory (part of peak_rss_mb) does not grow with the
  // number of reps.
  std::vector<Pass> reps;
  Timer measured;
  auto another_fits = [&]() {
    const double t = measured.ElapsedSeconds();
    return t + t / static_cast<double>(reps.size()) <= a.seconds;
  };
  while (reps.size() < kMinReps ||
         (reps.size() < kMaxReps && another_fits())) {
    std::unique_ptr<Engine> e = engines.Make(w.engine, /*timed=*/true);
    Pass p = RunPass(e.get(), in, cfg, n);
    if (!reps.empty()) {
      for (size_t b = 0; b < n; ++b) {
        p.differs.push_back(p.outcomes[b] != reps[0].outcomes[b]);
      }
      std::vector<BatchOutcome>().swap(p.outcomes);
    }
    reps.push_back(std::move(p));
  }
  const double measured_s = measured.ElapsedSeconds();
  const double rss_mb = PeakRssMb();

  Timer oracle_timer;
  bool oracle_truncated = false;
  std::vector<BatchCells> oracle = OraclePass(&engines, &oracle_truncated);
  const double oracle_s = oracle_timer.ElapsedSeconds();

  // Every (rep, batch) is one attempt.  It fails when truncated, when its
  // digests disagree with the oracle, or when its outcome differs from
  // the first rep's (the determinism guard).  A later rep that equals
  // the first has the first rep's digests, so the oracle check of the
  // first rep covers it.
  uint64_t truncated = 0, oracle_mismatch = 0, nondeterministic = 0,
           failed = 0;
  for (size_t b = 0; b < n; ++b) {
    const bool o = !AgreesWithOracle(reps[0].outcomes[b], oracle[b]);
    for (const Pass& p : reps) {
      const bool t = p.truncated[b] || oracle_truncated;
      const bool d = !p.differs.empty() && p.differs[b];
      truncated += t;
      oracle_mismatch += o;
      nondeterministic += d;
      failed += t || o || d;
    }
  }

  std::string reps_json = "[";
  for (size_t r = 0; r < reps.size(); ++r) {
    reps_json += std::string(r ? ", " : "") + "{\"batch_s\": " +
                 Array(reps[r].batch_s) + ", \"modeled_s\": " +
                 Array(reps[r].modeled_s) + "}";
  }
  reps_json += "]";
  std::vector<double> device_s;
  for (const BatchOutcome& o : reps[0].outcomes) {
    device_s.push_back(static_cast<double>(o.DeviceTicks()) *
                       cfg.TickSeconds());
  }

  std::printf(
      "{\"mode\": \"measure\", %s, \"setup_s\": %s, \"reps\": %s, "
      "\"device_s\": %s, \"measured_s\": %s, \"peak_rss_mb\": %s, "
      "\"oracle_s\": %s, \"attempted\": %zu, "
      "\"failed\": %llu, \"failures\": {\"truncated\": %llu, "
      "\"oracle_mismatch\": %llu, \"nondeterministic\": %llu}}\n",
      InputsJson(w, a, in, gen_s).c_str(), Array(engines.setup_s).c_str(),
      reps_json.c_str(), Array(device_s).c_str(), Num(measured_s).c_str(),
      Num(rss_mb).c_str(), Num(oracle_s).c_str(), reps.size() * n,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(truncated),
      static_cast<unsigned long long>(oracle_mismatch),
      static_cast<unsigned long long>(nondeterministic));
  return 0;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  return static_cast<bool>(f);
}

int Trace(const Workload& w, const Args& a, const Inputs& in,
          double gen_s) {
  Engines engines{w, in, {}, {}};
  const DeviceConfig& cfg = engines.options.gamma.device;
  const size_t n = in.stream.size();
  WarmUp(&engines, cfg);
  std::unique_ptr<Engine> e = engines.Make(w.engine, /*timed=*/true);
  Pass engine_pass;
  DigestSink sink(in.queries.size());
  SpanRecorder rec;
  std::unique_ptr<LayerReplay> replay = MakeLayerReplay(
      w.engine, in.graph, in.queries, engines.options.gamma, &rec);
  if (replay == nullptr) {
    std::fprintf(stderr, "bdsm_bench: no layer replay for engine %s\n",
                 w.engine.c_str());
    return 1;
  }
  // The engine and its replay take turns batch by batch, so both see the
  // same machine state and the overhead reading is a paired comparison.
  std::vector<BatchOutcome> outcomes;
  uint64_t mismatches = 0;
  for (size_t b = 0; b < n; ++b) {
    RunBatch(e.get(), &sink, in.stream[b], cfg, &engine_pass);
    rec.set_batch(static_cast<int64_t>(b));
    {
      ScopedSpan s(&rec, "batch");
      outcomes.push_back(replay->ProcessBatch(in.stream[b]));
    }
    mismatches += outcomes.back() != engine_pass.outcomes[b];
  }
  e.reset();
  double engine_s = 0.0;
  for (double s : engine_pass.batch_s) engine_s += s;

  bool oracle_truncated = false;
  std::vector<BatchCells> oracle = OraclePass(&engines, &oracle_truncated);
  uint64_t failed = 0;
  for (size_t b = 0; b < n; ++b) {
    failed += engine_pass.truncated[b] || oracle_truncated ||
              !AgreesWithOracle(engine_pass.outcomes[b], oracle[b]) ||
              outcomes[b] != engine_pass.outcomes[b];
  }

  std::map<std::string, double> metrics =
      LayerMetrics(rec, replay->counters(), outcomes, cfg.TickSeconds(),
                   engine_s, mismatches);
  std::string metrics_json = "{";
  for (const auto& [name, v] : metrics) {
    metrics_json += std::string(metrics_json.size() > 1 ? ", " : "") +
                    Quote(name) + ": " + Num(v);
  }
  metrics_json += "}";
  const std::string shares = LayerSharesJson(rec);
  const std::string base = a.out_dir + "/";
  const bool wrote =
      WriteFile(base + "trace-" + w.name + ".json", rec.ChromeJson()) &&
      WriteFile(base + "layers-" + w.name + ".json",
                "{\"workload\": " + Quote(w.name) + ", \"seed\": " +
                    std::to_string(a.seed) + ", \"self_time\": " + shares +
                    ", \"metrics\": " + metrics_json + "}\n");
  if (!wrote) {
    std::fprintf(stderr, "bdsm_bench: cannot write trace files to %s\n",
                 a.out_dir.c_str());
    return 1;
  }

  std::printf(
      "{\"mode\": \"trace\", %s, \"setup_s\": %s, \"engine_s\": %s, "
      "\"layer_shares\": %s, \"layer_metrics\": %s, \"attempted\": %zu, "
      "\"failed\": %llu}\n",
      InputsJson(w, a, in, gen_s).c_str(), Array(engines.setup_s).c_str(),
      Num(engine_s).c_str(), shares.c_str(), metrics_json.c_str(), n,
      static_cast<unsigned long long>(failed));
  return 0;
}

}  // namespace
}  // namespace bdsm::bench

int main(int argc, char** argv) {
  using namespace bdsm::bench;
  const Args a = ParseArgs(argc, argv);
  for (const Workload& w : AllWorkloads(a.quick)) {
    if (w.name != a.workload) continue;
    bdsm::Timer gen;
    const Inputs in = MakeInputs(w, a.seed);
    const double gen_s = gen.ElapsedSeconds();
    if (in.queries.empty() || in.stream.empty()) {
      std::fprintf(stderr, "bdsm_bench: workload %s generated no input\n",
                   w.name.c_str());
      return 1;
    }
    return a.trace ? Trace(w, a, in, gen_s) : Measure(w, a, in, gen_s);
  }
  Usage("unknown workload");
}
