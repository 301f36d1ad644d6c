/// \file single_query.hpp
/// Test helper: one batch through a fresh single-query "gamma" engine.
#pragma once

#include "core/engine.hpp"

namespace bdsm {

/// Builds a "gamma" engine over `g` with `opts`, registers `q`, and
/// returns that query's share of one ProcessBatch over `batch`.
inline QueryReport RunGammaBatch(const LabeledGraph& g, const QueryGraph& q,
                                 const GammaOptions& opts,
                                 const UpdateBatch& batch) {
  EngineOptions options;
  options.gamma = opts;
  std::unique_ptr<Engine> engine = MakeEngine("gamma", g, options);
  const QueryId id = engine->AddQuery(q);
  BatchReport report = engine->ProcessBatch(batch);
  return *report.Find(id);
}

}  // namespace bdsm
