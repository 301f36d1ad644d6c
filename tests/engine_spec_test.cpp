/// Spec-layer tests: EngineSpec parse/print round-trips across every
/// registered engine (nesting, aliases, case and whitespace
/// normalization), the friendly error paths (unknown engine / unknown
/// option key / bad value / bad nesting / trailing garbage — all
/// EngineSpecError, never an abort), registry validation, and the
/// retired legacy sugar: "sharded:gamma@2" is no longer a second
/// grammar — it is rejected with an error naming the offending
/// position, at parse, validation and build time alike.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_spec.hpp"
#include "workload/scenario_runner.hpp"

namespace bdsm {
namespace {

std::string ErrorOf(const std::string& spec) {
  std::optional<std::string> err = EngineRegistry::Instance().Validate(spec);
  return err.value_or("");
}

TEST(EngineSpecTest, ParseToStringRoundTripsEveryRegisteredEngine) {
  for (const std::string& name : EngineNames()) {
    SCOPED_TRACE(name);
    EngineSpec spec = EngineSpec::Parse(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_TRUE(spec.children.empty());
    EXPECT_TRUE(spec.options.empty());
    EXPECT_EQ(spec.ToString(), name);
    EXPECT_EQ(EngineSpec::Parse(spec.ToString()), spec);
  }
}

TEST(EngineSpecTest, ParseToStringRoundTripsNestedSpecs) {
  for (const char* text : {
           "gamma(result_cap=100000)",
           "sharded(gamma, shards=8)",
           "sharded(gamma, shards=8, threads=4)",
           "sharded(gamma(result_cap=100000, budget=0.5), shards=2)",
           "sharded(sharded(rf, shards=2), shards=2, threads=2)",
           "tf(result_cap=100, budget=1.5)",
       }) {
    SCOPED_TRACE(text);
    EngineSpec spec = EngineSpec::Parse(text);
    EXPECT_EQ(spec.ToString(), text);  // the inputs are canonical
    EXPECT_EQ(EngineSpec::Parse(spec.ToString()), spec);
  }
}

TEST(EngineSpecTest, CaseAndWhitespaceNormalize) {
  EngineSpec canonical = EngineSpec::Parse("sharded(gamma, shards=8)");
  EXPECT_EQ(EngineSpec::Parse("SHARDED(Gamma,shards=8)"), canonical);
  EXPECT_EQ(EngineSpec::Parse("  sharded ( gamma , shards = 8 )  "),
            canonical);
  EXPECT_EQ(EngineSpec::Parse("sharded(GAMMA, SHARDS=8)"), canonical);
}

TEST(EngineSpecTest, OptionsKeepOrderAndLastBindingWins) {
  EngineSpec spec = EngineSpec::Parse("gamma(result_cap=5, result_cap=9)");
  ASSERT_EQ(spec.options.size(), 2u);  // preserved for faithful printing
  ASSERT_NE(spec.FindOption("result_cap"), nullptr);
  EXPECT_EQ(*spec.FindOption("result_cap"), "9");  // last one wins
  EXPECT_EQ(spec.FindOption("no-such-key"), nullptr);
}

// The retired "prefix:inner[@N]" sugar is not a second grammar any
// more: the name token ends at ':', and the error names that position
// and the rest of the text.
TEST(EngineSpecTest, LegacySugarIsRejectedNamingThePosition) {
  struct Case {
    const char* text;
    const char* position;
    const char* garbage;
  };
  for (const Case& c : {
           Case{"sharded:gamma@8", "at position 7", "\":gamma@8\""},
           Case{"sharded:gamma", "at position 7", "\":gamma\""},
           Case{"SHARDED:TurboFlux@2", "at position 7", "\":turboflux@2\""},
           Case{" sharded:gamma@8 ", "at position 8", "\":gamma@8 \""},
       }) {
    SCOPED_TRACE(c.text);
    try {
      EngineSpec::Parse(c.text);
      FAIL() << "expected EngineSpecError";
    } catch (const EngineSpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.position), std::string::npos) << what;
      EXPECT_NE(what.find(c.garbage), std::string::npos) << what;
    }
    EXPECT_NE(ErrorOf(c.text).find(c.position), std::string::npos);
  }
}

TEST(EngineSpecTest, ParseErrorsNameTheBadToken) {
  for (const char* bad : {
           "",                    // no name at all
           "gamma(",              // unterminated argument list
           "gamma()",             // empty argument list
           "gamma(result_cap=)",  // missing value
           "gamma(=5)",           // missing key
           "gamma)x",             // trailing garbage
           "gamma extra",         // trailing garbage, space-separated
           "sharded(gamma,)",     // dangling comma
           "sharded:gamma@",      // legacy: empty shard count
           "sharded:gamma@0",     // legacy: zero shards
           "sharded:gamma@x",     // legacy: non-numeric shards
           "sharded:gamma@2@3",   // legacy: double @
           "sharded:sharded:gamma",  // legacy specs do not nest
           "a:b(c)",              // ':' only valid in the legacy shape
       }) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(EngineSpec::Parse(bad), EngineSpecError);
  }
  try {
    EngineSpec::Parse("gamma(result_cap=100000) trailing");
    FAIL() << "expected EngineSpecError";
  } catch (const EngineSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(EngineSpecTest, UnknownEngineErrorListsRegisteredNames) {
  std::string err = ErrorOf("no-such-engine");
  EXPECT_NE(err.find("unknown engine \"no-such-engine\""),
            std::string::npos)
      << err;
  for (const std::string& name : EngineNames()) {
    EXPECT_NE(err.find(name), std::string::npos) << name << " in " << err;
  }
  // The same friendly error surfaces from Make as a throw, not an abort.
  LabeledGraph g({0, 1});
  EXPECT_THROW((void)MakeEngine("no-such-engine", g), EngineSpecError);
  // Unknown names nested inside a wrapper are caught too.
  EXPECT_NE(ErrorOf("sharded(no-such-engine, shards=2)").find(
                "unknown engine"),
            std::string::npos);
}

TEST(EngineSpecTest, UnknownOptionKeyErrorListsValidKeys) {
  std::string err = ErrorOf("gamma(frobnicate=1)");
  EXPECT_NE(err.find("unknown option \"frobnicate\""), std::string::npos)
      << err;
  for (const char* key : {"result_cap", "budget", "segment_capacity",
                          "coalesced", "aggressive_coalescing"}) {
    EXPECT_NE(err.find(key), std::string::npos) << key << " in " << err;
  }
  // CSM engines have their own (smaller) key table.
  std::string csm_err = ErrorOf("tf(segment_capacity=32)");
  EXPECT_NE(csm_err.find("unknown option"), std::string::npos) << csm_err;
  EXPECT_NE(csm_err.find("result_cap"), std::string::npos) << csm_err;
}

TEST(EngineSpecTest, BadValuesAndBadNestingAreRejected) {
  EXPECT_NE(ErrorOf("gamma(result_cap=many)").find("bad value"),
            std::string::npos);
  EXPECT_NE(ErrorOf("gamma(segment_capacity=33)").find("bad value"),
            std::string::npos);  // not a power of two
  EXPECT_NE(ErrorOf("sharded(gamma, shards=0)").find("bad value"),
            std::string::npos);
  // Leaf engines take no inner spec; wrappers need exactly one.
  EXPECT_NE(ErrorOf("gamma(tf)").find("no inner engine spec"),
            std::string::npos);
  EXPECT_NE(ErrorOf("sharded(shards=2)").find("exactly one"),
            std::string::npos);
  EXPECT_NE(ErrorOf("sharded(gamma, tf)").find("exactly one"),
            std::string::npos);
  // Valid specs validate clean.
  EXPECT_EQ(ErrorOf("sharded(gamma(result_cap=10), shards=2)"), "");
  EXPECT_EQ(ErrorOf("multi(coalesced=false)"), "");
}

TEST(EngineSpecTest, ProgrammaticBadSegmentCapacityThrowsNotAborts) {
  // The spec-string parser rejects a non-power-of-two segment capacity
  // ("bad value", tested above), but EngineOptions set in code bypass
  // those parsers entirely.  The registry must still surface the same
  // friendly EngineSpecError instead of hitting the Gpma constructor's
  // internal-check abort.
  LabeledGraph g(std::vector<Label>(8, 0));
  g.InsertEdge(0, 1, 0);
  for (uint32_t bad : {0u, 3u, 24u, 33u, 100u}) {
    SCOPED_TRACE(bad);
    EngineOptions opts;
    opts.gamma.gpma_segment_capacity = bad;
    try {
      (void)MakeEngine("gamma", g, opts);
      FAIL() << "expected EngineSpecError for capacity " << bad;
    } catch (const EngineSpecError& e) {
      EXPECT_NE(std::string(e.what()).find("power of two"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(std::to_string(bad)),
                std::string::npos);
    }
    // Wrapped engines validate before their children are constructed.
    EXPECT_THROW((void)MakeEngine("sharded(gamma, shards=2)", g, opts),
                 EngineSpecError);
  }
  // A spec-string override repairs programmatic nonsense: the option
  // parser runs after the base options are copied in.
  EngineOptions odd;
  odd.gamma.gpma_segment_capacity = 24;
  EXPECT_NO_THROW((void)MakeEngine("gamma(segment_capacity=16)", g, odd));
}

TEST(EngineSpecTest, InlineOptionsConfigureTheEngine) {
  // A result cap of 1 via the spec must truncate exactly like the same
  // cap passed through EngineOptions.
  workload::ScenarioRunner runner(*workload::FindScenario("smoke"), 7);
  EngineOptions capped;
  capped.gamma.result_cap = 1;
  workload::ScenarioReport via_options = runner.Run("gamma", capped);
  workload::ScenarioReport via_spec = runner.Run("gamma(result_cap=1)");
  EXPECT_GT(via_spec.truncated_queries, 0u);
  EXPECT_EQ(via_spec.truncated_queries, via_options.truncated_queries);
  EXPECT_EQ(via_spec.total_matches, via_options.total_matches);
}

// The old sugar no longer builds an engine: MakeEngine throws the same
// positioned EngineSpecError instead of silently building
// "sharded(gamma, shards=2)".
TEST(EngineSpecTest, LegacySugarNoLongerBuildsAnEngine) {
  LabeledGraph g({0, 1});
  try {
    (void)MakeEngine("sharded:gamma@2", g);
    FAIL() << "expected EngineSpecError";
  } catch (const EngineSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("at position 7"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW((void)MakeEngine("sharded(gamma, shards=2)", g));
}

}  // namespace
}  // namespace bdsm
