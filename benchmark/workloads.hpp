/// \file workloads.hpp
/// The benchmark's workload catalog and its seeded input generation.
///
/// A workload binds one engine spec to one data graph, one query recipe
/// and one update-stream shape.  The update stream is derived from the
/// run's `--seed`; the graph and the query set are pinned (fixed
/// generator seeds) so that runs on different seeds measure the same
/// matching problem under different update sequences.  The engine only
/// ever receives the generated inputs.
///
/// Every query set is Sparse-class (cyclic) patterns.  Tree patterns'
/// result sets grow combinatorially around hubs: on these graphs one tree
/// query carried 99% of a stream's matches, single batches came within
/// reach of the engine's result cap, and the few batches holding them set
/// every tail-latency and peak-memory figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_generator.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"
#include "workload/stream_gen.hpp"

namespace bdsm::bench {

/// Seed the query sets are extracted with, whatever `--seed` is.
inline constexpr uint64_t kQuerySeed = 2024;

struct Workload {
  std::string name;
  std::string engine;  ///< engine spec handed to MakeEngine
  /// Graph: the GH dataset twin when `github_twin`, otherwise a
  /// power-law graph from `graph_params`.
  bool github_twin = true;
  GeneratorParams graph_params;
  size_t num_queries = 4;
  size_t query_size = 5;
  workload::StreamSpec stream;
};

/// The four benchmark workloads, catalog order.  `quick` shrinks every
/// size so the whole pipeline runs in seconds (tests only; never for
/// measurement).
std::vector<Workload> AllWorkloads(bool quick);

/// Generated inputs of one workload run.
struct Inputs {
  LabeledGraph graph;
  std::vector<QueryGraph> queries;
  std::vector<UpdateBatch> stream;
};

Inputs MakeInputs(const Workload& w, uint64_t seed);

/// 64-bit content hashes of the inputs, as 16 hex digits; they pin what
/// the benchmark measures against changes in the generators.
struct Fingerprints {
  std::string graph;
  std::string queries;
  std::string stream;
};

Fingerprints Fingerprint(const Inputs& in);

}  // namespace bdsm::bench
