/// \file gamma.hpp
/// Options of the GAMMA device pipeline (Fig. 3): Preprocess (CPU
/// encoding + candidate table), Update (GPMA on the device), BDSM
/// computational kernel (WBM + work stealing + coalesced search),
/// Postprocess (match delivery).
///
/// The pipeline itself is the device engine behind the "gamma" and
/// "multi" registry names (core/engine.cpp): one canonical host graph,
/// one GPMA and one device, and per query only its matching orders and
/// candidate encoding.  The two names differ only in launch fusion.
///
/// Quickstart:
///   LabeledGraph g = LoadDataset(DatasetId::kGithub);
///   EngineOptions options;
///   options.gamma.device.num_sms = 8;   // any GammaOptions field
///   auto engine = MakeEngine("gamma", g, options);
///   QueryId q = engine->AddQuery(query);
///   BatchReport r = engine->ProcessBatch(batch);
///   // r.Find(q)->positive_matches / ->negative_matches, r.*_stats
///
/// Batch semantics (Problem Statement, §II-A): negative matches are the
/// embeddings of Q present before the batch that contain a deleted edge;
/// positive matches are the embeddings present after the batch that
/// contain an inserted edge.  Matches are deduplicated across the batch
/// by the total-order rule (each match attributed to its lowest-order
/// update edge).
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpma/gpma_kernel.hpp"
#include "gpusim/device_config.hpp"

namespace bdsm {

struct GammaOptions {
  DeviceConfig device;          ///< steal_policy lives here (§V-A)
  bool coalesced_search = true; ///< §V-B
  /// Keep k >= 1 equivalent-edge groups even when their position orbits
  /// carry different encoder constraints (see BuildQueryContext).
  bool aggressive_coalescing = false;
  GpmaKernelOptions gpma;       ///< CG + cached-layer options (§V-C)
  /// Segment capacity of the GPMA (power of two).
  uint32_t gpma_segment_capacity = 32;
  /// Cap on incremental matches materialized per kernel launch
  /// (0 = unlimited).  Queries whose result sets exceed it are reported
  /// as unsolved, bounding memory the way the paper's 30-minute timeout
  /// bounds its 128 GB testbed.
  size_t result_cap = 1'500'000;
};

}  // namespace bdsm
