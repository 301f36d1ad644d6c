/// \file stream_gen.hpp
/// Seeded dynamic-graph stream generators (the workload layer's answer
/// to "handle as many scenarios as you can imagine"), the paper's
/// evaluation streams included: kPreferential is Fig. 9's insertions
/// and Fig. 11's 2:1 mix, kCore Fig. 10's k-core insertions.
///
/// Each generator synthesizes a whole update stream — a sequence of
/// `UpdateBatch`es in the exact format Engine::ProcessBatch and
/// StreamPipeline already consume — one batch at a time against the
/// graph the previous batches were applied to (`Generate` keeps a
/// private evolving replica), so every batch is *valid by construction*: given
/// the initial graph and the preceding batches applied in order, every
/// op takes effect (inserts hit absent edges, deletes hit present
/// ones).  That replayability is what makes a generated stream a
/// reusable artifact (see workload/trace.hpp) and lets differential
/// tests drive two engines over the identical stream.
///
/// All randomness flows through util/rng.hpp from one explicit seed;
/// the same (graph, StreamSpec, seed) triple always yields the
/// byte-identical stream.  Generator catalog and parameter semantics
/// are documented in docs/WORKLOADS.md.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/rng.hpp"

namespace bdsm::workload {

/// The generator families (docs/WORKLOADS.md has the catalog):
enum class StreamKind {
  kUniform,   ///< endpoints uniform over V, mixed insert/delete
  kPowerLaw,  ///< Chung-Lu style: endpoints ~ Zipf(skew) over a seeded
              ///< vertex permutation (degree-skewed growth)
  kTemporal,  ///< sliding window: fresh inserts each batch, edges expire
              ///< (are deleted) `window_batches` batches after insertion
  kBurst,     ///< flash crowd: every `burst_period`-th batch is
              ///< `burst_factor` x larger and concentrates on a small
              ///< per-burst crowd vertex set
  kChurn,     ///< deletion-heavy turnover (inserts a minority share)
  kHotspot,   ///< a fixed small hot vertex set attracts most endpoints
  kPreferential,  ///< degree-biased mixed insert/delete (an endpoint is
                  ///< one hop from a uniform vertex with P = 1/2)
  kCore,      ///< insertions with both endpoints in the `core_k`-core
};

/// "uniform" | "powerlaw" | "temporal" | "burst" | "churn" | "hotspot" |
/// "preferential" | "kcore".
const char* StreamKindName(StreamKind kind);
/// Inverse of StreamKindName; false when `name` is unknown.
bool StreamKindFromName(const std::string& name, StreamKind* out);
/// All kinds, catalog order.
const std::vector<StreamKind>& AllStreamKinds();

/// Shape of one generated stream.  Per-kind fields are ignored by the
/// kinds that do not use them.
struct StreamSpec {
  StreamKind kind = StreamKind::kUniform;
  size_t num_batches = 8;
  /// Base op count per batch (kTemporal: inserts per batch, expiry
  /// deletions ride on top; kBurst: off-peak size).
  size_t ops_per_batch = 200;
  /// Fraction of ops that are insertions for the mixed kinds
  /// (kUniform/kPowerLaw/kBurst/kHotspot/kPreferential; kChurn
  /// overrides).
  double insert_fraction = 0.65;
  /// Edge-label alphabet for inserted edges (0 = unlabeled).
  size_t elabels = 0;

  // --- kPowerLaw ---
  double skew = 1.1;  ///< Zipf exponent over the vertex permutation

  // --- kTemporal ---
  size_t window_batches = 3;  ///< lifetime of an inserted edge

  // --- kBurst ---
  double burst_factor = 6.0;  ///< burst batch size multiplier
  size_t burst_period = 4;    ///< every Nth batch is a burst
  double crowd_fraction = 0.02;  ///< |crowd| / |V| per burst

  // --- kChurn ---
  double churn_insert_fraction = 0.35;  ///< inserts share under churn

  // --- kHotspot ---
  double hotspot_fraction = 0.01;  ///< |hot| / |V| (>= 2 vertices)
  double hotspot_prob = 0.8;       ///< P(endpoint drawn from hot set)

  // --- kCore ---
  /// Insert endpoints come from the `core_k`-core; when it is empty the
  /// densest non-empty core serves, and the whole graph (kPreferential
  /// picks) when no core has two vertices.
  size_t core_k = 4;
};

/// A kPreferential spec of `ops` ops per batch, `insert_fraction` of
/// them insertions: 1 is pure growth (Fig. 9's insertion rate), 0 pure
/// deletion, 2/3 Fig. 11's 2:1 mix.
StreamSpec PreferentialSpec(size_t ops, double insert_fraction,
                            size_t elabels = 0);

/// Synthesizes one stream.  `Next` and `Generate` advance the RNG and
/// the kind's state (kTemporal's windows, kBurst's batch index, the
/// kPowerLaw/kHotspot vertex draws of the first batch), so construct
/// one generator per stream for reproducibility.
class StreamGenerator {
 public:
  StreamGenerator(const StreamSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {}

  /// The stream's next batch, sampled against and sanitized for `g`:
  /// pass the graph the previous batches were applied to.
  UpdateBatch Next(const LabeledGraph& g);

  /// spec.num_batches `Next` batches against an evolving private copy
  /// of `g`, each applied before the next is drawn (the caller's graph
  /// is untouched), so every op is effective in sequence.
  std::vector<UpdateBatch> Generate(const LabeledGraph& g);

 private:
  // Samples `count` insertions with endpoints drawn by `pick` (both
  // endpoints), avoiding existing and already-sampled edges.
  template <typename PickFn>
  UpdateBatch SampleInsertions(const LabeledGraph& g, size_t count,
                               PickFn&& pick);
  // Uniformly samples `count` existing edges as deletions (labels
  // recorded so traces can be reverted).
  UpdateBatch SampleDeletions(const LabeledGraph& g, size_t count);

  StreamSpec spec_;
  Rng rng_;
  size_t batch_index_ = 0;              // batches drawn so far
  std::vector<VertexId> perm_;          // kPowerLaw rank -> vertex
  ZipfSampler zipf_{0, 1.0};            // kPowerLaw, built on batch 0
  std::vector<VertexId> hot_;           // kHotspot
  std::deque<std::vector<Edge>> live_;  // kTemporal insertion windows
};

}  // namespace bdsm::workload
