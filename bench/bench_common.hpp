/// \file bench_common.hpp
/// Shared harness of the paper-reproduction benchmarks (one binary per
/// table/figure; docs/BENCHMARKS.md is the experiment index).
///
/// Every measurement goes through the unified Engine interface
/// (core/engine.hpp): `RunEngineCell("tf" | "sym" | "rf" | "cl" | "gf" |
/// "gamma" | "multi", ...)` — engine choice is a string, not a code
/// path, so every bench can sweep methods from one loop.
///
/// Every bench binary — `bench_micro` included (its custom main peels
/// the flag off before google-benchmark parses argv) — accepts
/// `--json <path>` (wired through InitBench): when given, each
/// measured cell is appended as one row of a machine-readable
/// perf-trajectory file (schema in docs/BENCHMARKS.md), so benches can
/// feed regression tracking without scraping stdout.
///
/// Methodology notes (the scaling rationale lives in docs/BENCHMARKS.md):
/// * Datasets are the synthetic twins of Table II (scaled).
/// * Query sets are extracted per structure class like §VI-A; the per-set
///   count and the per-query time budget are scaled from the paper's
///   50 queries / 30 minutes to keep the whole suite minutes-long on one
///   CPU core.  Scale factors are printed with every table.
/// * CSM baselines report host wall-clock (they are CPU systems); GAMMA
///   reports modeled device latency (simulated makespan ticks x clock,
///   preprocessing overlapped) — the honest analogue on a GPU-less host.
///   RunEngineCell picks the right clock from Engine::Describe()
///   (ClockDomain), and stamps every JSON row with the engine's
///   canonical spec + clock for provenance (scripts/bench_diff.py
///   joins trajectories on those fields).  Shapes (who wins, trends),
///   not absolute 3090 numbers, are the reproduction target.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/datasets.hpp"
#include "graph/query_extractor.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm::bench {

/// Suite-wide scaling knobs.
struct Scale {
  size_t queries_per_set = 3;    ///< paper: 50
  double query_budget_s = 1.0;   ///< paper: 1800 s
  size_t max_batch_ops = 400;    ///< cap on |batch| after the rate
  size_t default_query_size = 6; ///< paper default |V(Q)|
  double default_rate = 0.10;    ///< paper default Ir = 10%
  uint64_t seed = 2024;
};

/// One (method x query-set) measurement.
struct CellResult {
  double avg_latency_s = 0.0;  ///< over solved queries only (paper rule)
  size_t unsolved = 0;
  size_t solved = 0;
  double avg_utilization = 0.0;  ///< device engines only
  Count total_matches = 0;
};

/// Lazily-loaded dataset cache (twin generation is deterministic but
/// not free; benches reuse instances).
const LabeledGraph& CachedDataset(DatasetId id);

/// Query set of `count` graphs of the class/size, extracted from g.
std::vector<QueryGraph> MakeQuerySet(const LabeledGraph& g,
                                     QueryGraph::StructureClass cls,
                                     size_t num_vertices, size_t count,
                                     uint64_t seed);

/// Batch for the dataset at `rate` (fraction of |E|), capped.
UpdateBatch MakeRateBatch(const LabeledGraph& g, const DatasetSpec& spec,
                          double rate, const Scale& scale, uint64_t seed);

/// Runs any registered engine spec over the query set; each query gets
/// a fresh engine (index/device-graph built offline, not counted) and
/// the batch re-applied.  `gamma_options` tunes the device engines (the
/// CPU engines get the paper cap/budget from `scale`); latency follows
/// the engine's declared clock (Engine::Describe().clock).
CellResult RunEngineCell(const std::string& engine, const LabeledGraph& g,
                         const std::vector<QueryGraph>& queries,
                         const UpdateBatch& batch, const Scale& scale,
                         GammaOptions gamma_options = {});

/// "0.553" or "12.3(2)" — the paper's latency(unsolved) cell format.
std::string FormatCell(const CellResult& r);

/// One printed row of the five-method comparison tables (Table III,
/// Figs. 8–11): runs kBaselineMethods then gamma through RunEngineCell,
/// printing each FormatCell column (no leading label, no trailing
/// newline — the caller owns both ends of the line).  Returns the
/// per-method results in column order, gamma last.
std::vector<CellResult> RunMethodRow(const LabeledGraph& g,
                                     const std::vector<QueryGraph>& queries,
                                     const UpdateBatch& batch,
                                     const Scale& scale);

// ------------------------------------------------- perf trajectory JSON

/// One flat JSON object; insertion order is preserved in the output.
class JsonRow {
 public:
  JsonRow& Set(const std::string& key, double value);
  JsonRow& Set(const std::string& key, size_t value);
  JsonRow& Set(const std::string& key, const std::string& value);
  JsonRow& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonRow& SetBool(const std::string& key, bool value);

 private:
  friend class JsonSink;
  void Encode(const std::string& key, std::string literal);
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects JsonRows and writes `{"schema": "bdsm-bench-v1", "bench":
/// <name>, "provenance": {...}, "rows": [...]}` to the path given via
/// `--json` (schema documented in docs/BENCHMARKS.md).  Disabled (all
/// calls no-ops) until Open()/InitBench() enables it, so benches can
/// emit unconditionally.  Flush() runs automatically at process exit.
///
/// Cell mode (`--out-dir DIR --cell-id ID`, the experiment-matrix
/// assist; docs/EXPERIMENTS.md): the document gains `"cell_id"` (and
/// `"cell_key"` when the driver passed one) and a trailing
/// `"sealed": true` marker, and lands at `DIR/ID.json` via an fsynced
/// temp-file + rename — but only when the bench reached its success
/// path (FinishBench below).  A run that dies or exits nonzero leaves
/// at most `DIR/ID.json.tmp` as a post-mortem, so "sealed" means
/// "completed", never "got as far as process exit" — the property
/// `run_matrix.py` resumes on.
class JsonSink {
 public:
  static JsonSink& Instance();

  void Open(const std::string& bench_name, const std::string& path);
  /// Cell mode: atomic write to `out_dir/cell_id.json`.  `cell_key` is
  /// the driver's identity fingerprint, echoed verbatim into the
  /// document ("" = omit).
  void OpenCell(const std::string& bench_name, const std::string& out_dir,
                const std::string& cell_id, const std::string& cell_key);
  /// Marks the run completed; until this is called, cell mode refuses
  /// to seal at Flush().  Non-cell mode ignores it.
  void MarkComplete() { complete_ = true; }
  bool enabled() const { return !path_.empty(); }

  /// Sticky context merged into every subsequent row (loop position:
  /// dataset, structure class, rate, ...).  Setting a key replaces it;
  /// clear keys that do not apply to the next sweep.
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);
  void Context(const std::string& key, size_t value);
  void ClearContext(const std::string& key);

  void Add(JsonRow row);
  void Flush();

 private:
  void SetContextLiteral(const std::string& key, std::string literal);

  std::string bench_name_;
  std::string path_;
  std::string cell_id_;  ///< non-empty = cell mode (atomic, sealed)
  std::string cell_key_;
  bool complete_ = false;  ///< set by FinishBench; gates cell sealing
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<JsonRow> rows_;
};

/// Shared entry chores for every bench main: scans argv for
/// `--json <path>` (or uses `default_json_path` when the flag is
/// absent; pass nullptr for "disabled by default") or for the
/// experiment-matrix pair `--out-dir DIR --cell-id ID` (which must
/// appear together and conflict with `--json`; `--cell-key FP`
/// optionally rides along and is echoed into the document), and opens
/// the JsonSink.  RunEngineCell then records one row per cell
/// automatically.
void InitBench(const char* bench_name, int argc, char** argv,
               const char* default_json_path = nullptr);

/// Declares the run successful — call it exactly on main's success
/// path, right before `return 0`.  In cell mode the atexit Flush seals
/// the row file only after this, so a validation error or mid-run
/// failure (any nonzero exit) can never produce a file that
/// run_matrix.py would resume past as completed.
void FinishBench();

/// Shorthand for JsonSink::Instance().Context(...).
void JsonContext(const std::string& key, const std::string& value);
void JsonContext(const std::string& key, double value);
void JsonContext(const std::string& key, size_t value);

/// Stamps canonical-spec + clock provenance onto the sticky JSON
/// context, for benches that emit ad-hoc rows instead of going through
/// RunEngineCell (which stamps per-row).  The EngineInfo overload is
/// the honest source (`Engine::Describe()`); the (spec, clock)
/// overload serves kernel-level benches (Fig. 5, the container
/// ablation) that measure an engine family's device kernels without
/// building an Engine — `spec` names that family's canonical spec.
void JsonProvenance(const EngineInfo& info);
void JsonProvenance(const std::string& canonical_spec, ClockDomain clock);

/// Prints the standard header block for a bench binary.
void PrintHeader(const char* experiment, const char* what,
                 const Scale& scale);

/// The paper's CSM baseline set (Table III columns before GAMMA).
const char* const kBaselineMethods[] = {"tf", "sym", "rf", "cl"};

inline const std::vector<QueryGraph::StructureClass>& AllClasses() {
  static const std::vector<QueryGraph::StructureClass> kClasses = {
      QueryGraph::StructureClass::kDense,
      QueryGraph::StructureClass::kSparse,
      QueryGraph::StructureClass::kTree};
  return kClasses;
}

}  // namespace bdsm::bench
