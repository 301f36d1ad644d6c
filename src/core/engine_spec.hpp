/// \file engine_spec.hpp
/// Structured engine construction specs: the parse tree behind every
/// engine string in the system.
///
/// An EngineSpec is a small tree — an engine name, optional inner
/// engine specs (for wrapper engines like the sharded serving layer),
/// and inline `key=value` option overrides that map onto
/// EngineOptions/GammaOptions fields.  The canonical grammar:
///
///   spec    := name [ '(' arg (',' arg)* ')' ]
///   arg     := spec | key '=' value
///   name    := [a-z0-9_-]+          (input is case-insensitive)
///   value   := [a-z0-9_.+-]+
///
/// Examples:
///   gamma
///   gamma(result_cap=100000)
///   sharded(gamma, shards=8, threads=4)
///   sharded(sharded(rf, shards=2), shards=2)     // wrappers nest
///
/// Parsing and validation report user errors by throwing
/// EngineSpecError with a message that names the bad token (and, at
/// the registry layer, the sorted list of registered names / valid
/// option keys) — engine strings come from CLIs and config, so a
/// helpful message beats an abort.  See docs/ENGINES.md for the
/// grammar, the per-engine option-key tables, and the capability
/// fields reported by Engine::Describe().
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bdsm {

/// A malformed or unresolvable engine spec (user error, not an
/// internal invariant — compare GAMMA_CHECK).  The message is meant to
/// be printed verbatim by CLIs and benches.
class EngineSpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The parse tree of one engine construction spec.
struct EngineSpec {
  /// Engine (or alias) name, lower-cased.  Alias resolution happens in
  /// EngineRegistry::Canonicalize, not here — the parser is
  /// registry-agnostic.
  std::string name;
  /// Inner engine specs, in spec order.  Non-wrapper engines take none;
  /// the registry enforces each engine's arity.
  std::vector<EngineSpec> children;
  /// Inline `key=value` overrides, in spec order, lower-cased.  Keys
  /// are validated against the engine's registered option table.
  std::vector<std::pair<std::string, std::string>> options;

  /// Parses spec text in the grammar above.  Throws EngineSpecError on
  /// malformed input (bad token, unbalanced parens, trailing garbage);
  /// names are NOT checked against the registry here.
  static EngineSpec Parse(const std::string& text);

  /// Canonical rendering: `name(child, ..., key=value, ...)` — children
  /// first, then options, single canonical spacing.  Round-trips:
  /// Parse(s.ToString()) == s for every parseable s.
  std::string ToString() const;

  /// Last value bound to `key`, or nullptr when absent (last one wins,
  /// like repeated CLI flags).
  const std::string* FindOption(const std::string& key) const;

  friend bool operator==(const EngineSpec&, const EngineSpec&) = default;
};

/// Option-value parsers shared by the registry's per-engine option
/// tables.  Each returns false (rather than throwing) on a malformed
/// value so the caller can compose the full "bad value" message.
bool ParseSizeValue(const std::string& text, size_t* out);
bool ParseDoubleValue(const std::string& text, double* out);
/// Accepts true/false, on/off, yes/no, 1/0.
bool ParseBoolValue(const std::string& text, bool* out);

}  // namespace bdsm
