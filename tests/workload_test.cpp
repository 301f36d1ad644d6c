/// Workload-layer tests: generator determinism (same seed => identical
/// stream), replay validity and pinned stream digests for every stream
/// kind, kind-specific shape properties (temporal expiry, churn
/// deletion-heaviness, burst spikes, hotspot/power-law concentration,
/// preferential insert share, k-core confinement), and the binary trace
/// format (record/replay round-trip exact, golden byte-identity,
/// corrupt-header and corrupt-op rejection).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "graph/graph_generator.hpp"
#include "graph/kcore.hpp"
#include "workload/stream_gen.hpp"
#include "workload/trace.hpp"

namespace bdsm::workload {
namespace {

LabeledGraph TestGraph() {
  // Big enough that deletions never drain it under churn.
  return GenerateUniformGraph(400, 2400, 3, 2, 99);
}

StreamSpec SpecFor(StreamKind kind) {
  StreamSpec s;
  s.kind = kind;
  s.num_batches = 6;
  s.ops_per_batch = 80;
  s.elabels = 2;
  s.window_batches = 2;
  s.burst_period = 3;
  return s;
}

// FNV-1a over each batch's length and every op field: a stream's
// fingerprint, so a changed draw anywhere in a sampler shows.
uint64_t StreamDigest(const std::vector<UpdateBatch>& stream) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const UpdateBatch& batch : stream) {
    mix(batch.size());
    for (const UpdateOp& op : batch) {
      mix(op.is_insert);
      mix(op.u);
      mix(op.v);
      mix(op.elabel);
    }
  }
  return h;
}

std::string ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(StreamKindTest, NamesRoundTrip) {
  for (StreamKind k : AllStreamKinds()) {
    StreamKind back;
    ASSERT_TRUE(StreamKindFromName(StreamKindName(k), &back));
    EXPECT_EQ(back, k);
  }
  StreamKind unused;
  EXPECT_FALSE(StreamKindFromName("nope", &unused));
}

class StreamGeneratorTest : public ::testing::TestWithParam<StreamKind> {};

TEST_P(StreamGeneratorTest, DeterministicForSeed) {
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(GetParam());
  std::vector<UpdateBatch> a = StreamGenerator(spec, 42).Generate(g);
  std::vector<UpdateBatch> b = StreamGenerator(spec, 42).Generate(g);
  std::vector<UpdateBatch> c = StreamGenerator(spec, 43).Generate(g);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_P(StreamGeneratorTest, EveryOpEffectiveOnReplay) {
  // The replay invariant: applied in order to a fresh copy of the
  // initial graph, every single op takes effect (no conflicting or
  // no-op updates survive generation).
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(GetParam());
  std::vector<UpdateBatch> stream = StreamGenerator(spec, 7).Generate(g);
  ASSERT_EQ(stream.size(), spec.num_batches);
  size_t total_ops = 0;
  for (const UpdateBatch& batch : stream) {
    EXPECT_FALSE(batch.empty());
    size_t applied = ApplyBatch(&g, batch);
    EXPECT_EQ(applied, batch.size());
    total_ops += batch.size();
  }
  EXPECT_GT(total_ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StreamGeneratorTest, ::testing::ValuesIn(AllStreamKinds()),
    [](const ::testing::TestParamInfo<StreamKind>& info) {
      return StreamKindName(info.param);
    });

TEST(StreamDigestTest, PinnedStreamsByteIdentical) {
  // Any change to a kind's draws changes its stream for every consumer
  // (scenarios, traces, benchmark fingerprints, the micro-plan baseline):
  // such a change must update these digests deliberately.
  const std::vector<std::pair<StreamKind, uint64_t>> pinned = {
      {StreamKind::kUniform, 0x27d6ab2383801017ull},
      {StreamKind::kPowerLaw, 0xa45f591430516a02ull},
      {StreamKind::kTemporal, 0xba4676529a9df0daull},
      {StreamKind::kBurst, 0xb1f4a9f0eabe0795ull},
      {StreamKind::kChurn, 0x06b2fbefce1ac8c9ull},
      {StreamKind::kHotspot, 0xff79dc5453d57614ull}};
  for (const auto& [kind, digest] : pinned) {
    EXPECT_EQ(StreamDigest(StreamGenerator(SpecFor(kind), 2024).Generate(
                  TestGraph())),
              digest)
        << StreamKindName(kind);
  }
}

TEST(StreamDigestTest, PaperFigureStreamsByteIdentical) {
  // The paper-figure streams were first drawn by a separate generator
  // (graph/update_stream's MakeInsertions, MakeDeletions, MakeMixed and
  // MakeCoreInsertions, each batch against the evolving graph); these
  // digests were recorded from it at seed 2024, so kPreferential and
  // kCore reproduce those streams draw for draw.
  auto digest = [](const StreamSpec& spec, const LabeledGraph& g) {
    return StreamDigest(StreamGenerator(spec, 2024).Generate(g));
  };
  StreamSpec pref = SpecFor(StreamKind::kPreferential);
  pref.insert_fraction = 1;  // MakeInsertions(g, 80, 2)
  EXPECT_EQ(digest(pref, TestGraph()), 0xe9b73c78ddb00721ull);
  pref.insert_fraction = 0;  // MakeDeletions(g, 80)
  EXPECT_EQ(digest(pref, TestGraph()), 0xdc8ee3ec5e150c2bull);
  pref.insert_fraction = 2.0 / 3;  // MakeMixed(g, 80, 2, 1, 2)
  EXPECT_EQ(digest(pref, TestGraph()), 0x6f4d9b795798d3a4ull);

  StreamSpec core = SpecFor(StreamKind::kCore);
  core.core_k = 4;  // MakeCoreInsertions(g, 80, 4, 2)
  EXPECT_EQ(digest(core, TestGraph()), 0x48adc3efd0edd5e9ull);
  core.core_k = 1000;  // no 1000-core: the densest core serves
  EXPECT_EQ(digest(core, TestGraph()), 0x57fbe2e2d1c8d2bcull);
  core.core_k = 4;  // no edges, no core: preferential picks
  EXPECT_EQ(digest(core, GenerateUniformGraph(400, 0, 3, 2, 99)),
            0x706ab8bcf34d1f69ull);
}

TEST(StreamGeneratorShapeTest, TemporalWindowExpiresInserts) {
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(StreamKind::kTemporal);
  std::vector<UpdateBatch> stream = StreamGenerator(spec, 5).Generate(g);
  // Everything inserted in batch 0 must be deleted by the expiry batch
  // (index == window): temporal has no other deletion source and the
  // inserts avoid existing edges.
  std::set<Edge> inserted0;
  for (const UpdateOp& op : stream[0]) {
    ASSERT_TRUE(op.is_insert);
    inserted0.insert(Edge(op.u, op.v));
  }
  std::set<Edge> deleted_at_window;
  for (const UpdateOp& op : stream[spec.window_batches]) {
    if (!op.is_insert) deleted_at_window.insert(Edge(op.u, op.v));
  }
  for (const Edge& e : inserted0) {
    EXPECT_TRUE(deleted_at_window.count(e))
        << "edge (" << e.u << "," << e.v << ") did not expire";
  }
  // Batches before the window has filled contain no deletions at all.
  for (size_t b = 0; b < spec.window_batches; ++b) {
    for (const UpdateOp& op : stream[b]) EXPECT_TRUE(op.is_insert);
  }
}

TEST(StreamGeneratorShapeTest, ChurnIsDeletionHeavy) {
  LabeledGraph g = TestGraph();
  std::vector<UpdateBatch> stream =
      StreamGenerator(SpecFor(StreamKind::kChurn), 5).Generate(g);
  size_t ins = 0, del = 0;
  for (const UpdateBatch& batch : stream) {
    for (const UpdateOp& op : batch) (op.is_insert ? ins : del)++;
  }
  EXPECT_GT(del, ins);
}

TEST(StreamGeneratorShapeTest, PreferentialInsertShare) {
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(StreamKind::kPreferential);
  // Fig. 11's 2:1 mix, pure growth, pure deletion: the insert count is
  // the exact integer share of every batch.
  for (double f : {2.0 / 3, 1.0, 0.0}) {
    spec.insert_fraction = f;
    const size_t want_ins = static_cast<size_t>(80 * f);
    for (const UpdateBatch& batch : StreamGenerator(spec, 20).Generate(g)) {
      size_t ins = 0;
      for (const UpdateOp& op : batch) ins += op.is_insert ? 1 : 0;
      EXPECT_EQ(batch.size(), spec.ops_per_batch) << f;
      EXPECT_EQ(ins, want_ins) << f;
    }
  }
}

TEST(StreamGeneratorShapeTest, CoreInsertionsStayInCore) {
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(StreamKind::kCore);
  // A k above the degeneracy falls back to the densest core.
  const size_t degeneracy = Degeneracy(g);
  for (size_t k : {degeneracy, degeneracy + 5}) {
    spec.core_k = k;
    LabeledGraph evolving = g;
    StreamGenerator gen(spec, 21);
    for (int b = 0; b < 3; ++b) {
      std::vector<uint32_t> core = CoreNumbers(evolving);
      const size_t want = std::min<size_t>(k, Degeneracy(evolving));
      UpdateBatch batch = gen.Next(evolving);
      ASSERT_FALSE(batch.empty());
      for (const UpdateOp& op : batch) {
        EXPECT_TRUE(op.is_insert);
        EXPECT_GE(core[op.u], want);
        EXPECT_GE(core[op.v], want);
      }
      ApplyBatch(&evolving, batch);
    }
  }
}

TEST(StreamGeneratorShapeTest, BurstBatchesSpike) {
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(StreamKind::kBurst);
  spec.burst_factor = 5.0;
  std::vector<UpdateBatch> stream = StreamGenerator(spec, 5).Generate(g);
  size_t largest = 0, smallest = SIZE_MAX;
  for (const UpdateBatch& b : stream) {
    largest = std::max(largest, b.size());
    smallest = std::min(smallest, b.size());
  }
  EXPECT_GE(largest, smallest * 3);
}

// Fraction of op endpoints landing on the most popular 5% of vertices.
double TopEndpointConcentration(const std::vector<UpdateBatch>& stream,
                                size_t num_vertices) {
  std::map<VertexId, size_t> freq;
  size_t total = 0;
  for (const UpdateBatch& batch : stream) {
    for (const UpdateOp& op : batch) {
      ++freq[op.u];
      ++freq[op.v];
      total += 2;
    }
  }
  std::vector<size_t> counts;
  for (const auto& [v, c] : freq) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  size_t top = std::max<size_t>(1, num_vertices / 20);
  size_t in_top = 0;
  for (size_t i = 0; i < std::min(top, counts.size()); ++i) {
    in_top += counts[i];
  }
  return static_cast<double>(in_top) / static_cast<double>(total);
}

TEST(StreamGeneratorShapeTest, HotspotAndPowerLawConcentrate) {
  LabeledGraph g = TestGraph();
  double uniform = TopEndpointConcentration(
      StreamGenerator(SpecFor(StreamKind::kUniform), 5).Generate(g),
      g.NumVertices());
  double hotspot = TopEndpointConcentration(
      StreamGenerator(SpecFor(StreamKind::kHotspot), 5).Generate(g),
      g.NumVertices());
  double powerlaw = TopEndpointConcentration(
      StreamGenerator(SpecFor(StreamKind::kPowerLaw), 5).Generate(g),
      g.NumVertices());
  EXPECT_GT(hotspot, uniform + 0.2);
  EXPECT_GT(powerlaw, uniform + 0.05);
}

TEST(TraceTest, RoundTripExact) {
  LabeledGraph g = TestGraph();
  std::vector<UpdateBatch> stream =
      StreamGenerator(SpecFor(StreamKind::kChurn), 21).Generate(g);
  TraceMeta meta{21, "churn-test"};
  std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(WriteTrace(path, meta, stream));
  TraceMeta back;
  auto replayed = ReadTrace(path, &back);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(back, meta);
  EXPECT_EQ(*replayed, stream);
}

TEST(TraceTest, EmptyAndUnlabeledRoundTrip) {
  // kNoLabel (0xffffffff) and empty batches survive the format.
  std::vector<UpdateBatch> stream = {
      {}, {UpdateOp{true, 0, 1, kNoLabel}, UpdateOp{false, 2, 3, 5}}};
  std::string path = TempPath("edgecases.trace");
  ASSERT_TRUE(WriteTrace(path, TraceMeta{0, ""}, stream));
  auto replayed = ReadTrace(path);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(*replayed, stream);
}

TEST(TraceTest, GoldenTraceByteIdentical) {
  // Same seed => byte-identical trace artifact, generation included.
  LabeledGraph g = TestGraph();
  StreamSpec spec = SpecFor(StreamKind::kTemporal);
  std::string p1 = TempPath("golden1.trace");
  std::string p2 = TempPath("golden2.trace");
  ASSERT_TRUE(WriteTrace(p1, TraceMeta{77, "golden"},
                         StreamGenerator(spec, 77).Generate(g)));
  ASSERT_TRUE(WriteTrace(p2, TraceMeta{77, "golden"},
                         StreamGenerator(spec, 77).Generate(g)));
  std::string b1 = ReadFileBytes(p1), b2 = ReadFileBytes(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
}

TEST(TraceTest, RejectsCorruptHeaders) {
  EXPECT_FALSE(ReadTrace(TempPath("does-not-exist.trace")).has_value());

  // Bad magic.
  std::string bad_magic = TempPath("badmagic.trace");
  FILE* f = fopen(bad_magic.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite("NOTATRACE-------", 1, 16, f);
  fclose(f);
  EXPECT_FALSE(ReadTrace(bad_magic).has_value());

  // Right magic, unsupported version.
  std::string bad_version = TempPath("badversion.trace");
  f = fopen(bad_version.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f);
  unsigned char v99[4] = {99, 0, 0, 0};
  fwrite(v99, 1, 4, f);
  fclose(f);
  EXPECT_FALSE(ReadTrace(bad_version).has_value());

  // Counts the file cannot hold (corrupt/hostile header) must be
  // rejected before anything tries to allocate for them.
  std::string huge_count = TempPath("hugecount.trace");
  ASSERT_TRUE(WriteTrace(huge_count, TraceMeta{1, "h"},
                         {{UpdateOp{true, 1, 2, 0}}}));
  std::string trace_bytes = ReadFileBytes(huge_count);
  for (int i = 0; i < 8; ++i) trace_bytes[24 + i] = '\xff';  // num_batches
  f = fopen(huge_count.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(trace_bytes.data(), 1, trace_bytes.size(), f);
  fclose(f);
  EXPECT_FALSE(ReadTrace(huge_count).has_value());

  // Valid trace truncated mid-body.
  std::vector<UpdateBatch> stream = {{UpdateOp{true, 1, 2, 0}},
                                     {UpdateOp{true, 3, 4, 0}}};
  std::string truncated = TempPath("truncated.trace");
  ASSERT_TRUE(WriteTrace(truncated, TraceMeta{1, "t"}, stream));
  std::string bytes = ReadFileBytes(truncated);
  f = fopen(truncated.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size() - 5, f);
  fclose(f);
  EXPECT_FALSE(ReadTrace(truncated).has_value());
}

TEST(TraceTest, RecoverModeStopsAtLastGoodBatch) {
  // The WAL-tail contract (persist/wal.hpp): a torn final write is
  // recoverable wreckage, not corruption — recover mode serves every
  // complete batch and reports truncated() instead of !ok().  A damaged
  // op flag is handled the same way.
  std::vector<UpdateBatch> stream = {
      {UpdateOp{true, 1, 2, 0}},
      {UpdateOp{true, 3, 4, 0}, UpdateOp{false, 1, 2, 0}},
      {UpdateOp{true, 5, 6, 0}}};
  std::string path = TempPath("recover.trace");
  ASSERT_TRUE(WriteTrace(path, TraceMeta{9, "r"}, stream));
  const std::string bytes = ReadFileBytes(path);

  auto rewrite = [&](const std::string& contents) {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(contents.data(), 1, contents.size(), f);
    fclose(f);
  };
  auto drain = [](TraceReader* r) {
    std::vector<UpdateBatch> got;
    while (auto b = r->Next()) got.push_back(std::move(*b));
    return got;
  };
  TraceReader::Options recover;
  recover.recover_truncated = true;

  // Torn mid-op in the final batch: two good batches survive.
  rewrite(bytes.substr(0, bytes.size() - 5));
  {
    TraceReader strict(path);
    ASSERT_TRUE(strict.ok());
    drain(&strict);
    EXPECT_FALSE(strict.ok());  // strict mode: corrupt

    TraceReader r(path, recover);
    ASSERT_TRUE(r.ok());
    std::vector<UpdateBatch> got = drain(&r);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.truncated());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], stream[0]);
    EXPECT_EQ(got[1], stream[1]);
    EXPECT_EQ(r.read_batches(), 2u);
  }

  // Torn exactly on a batch boundary (the final batch's ops are gone
  // but its count survived): still two good batches.
  // 13-byte op + part of the count.
  rewrite(bytes.substr(0, bytes.size() - 13 - 4));
  {
    TraceReader r(path, recover);
    EXPECT_EQ(drain(&r).size(), 2u);
    EXPECT_TRUE(r.truncated());
  }

  // A flag byte other than 0 or 1 (here the final op's) is a damaged
  // record, not an insertion: corrupt in strict mode, the torn end of
  // the good batches in recover mode.
  std::string bad_flag = bytes;
  bad_flag[bytes.size() - 13] = '\x02';
  rewrite(bad_flag);
  {
    EXPECT_FALSE(ReadTrace(path).has_value());
    TraceReader r(path, recover);
    EXPECT_EQ(drain(&r), std::vector<UpdateBatch>(stream.begin(),
                                                  stream.begin() + 2));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.truncated());
  }

  // Untouched file: recover mode is a no-op (all batches, clean end).
  rewrite(bytes);
  {
    TraceReader r(path, recover);
    EXPECT_EQ(drain(&r), stream);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.truncated());
  }

  // Crashed-writer shape: header batch count still the placeholder 0
  // (never patched by Close).  Strict mode sees an empty trace;
  // recover mode walks the bytes and finds all three batches.
  std::string unpatched = bytes;
  for (int i = 0; i < 8; ++i) unpatched[24 + i] = '\0';
  rewrite(unpatched);
  {
    TraceReader strict(path);
    EXPECT_EQ(drain(&strict).size(), 0u);
    EXPECT_TRUE(strict.ok());

    TraceReader r(path, recover);
    EXPECT_EQ(drain(&r), stream);
    EXPECT_FALSE(r.truncated());  // every batch was durable
  }
}

TEST(TraceTest, IncrementalWriterMatchesOneShot) {
  LabeledGraph g = TestGraph();
  std::vector<UpdateBatch> stream =
      StreamGenerator(SpecFor(StreamKind::kUniform), 3).Generate(g);
  std::string p1 = TempPath("incremental.trace");
  std::string p2 = TempPath("oneshot.trace");
  TraceMeta meta{3, "inc"};
  {
    TraceWriter w(p1, meta);
    for (const UpdateBatch& b : stream) w.Append(b);
    w.Close();
    ASSERT_TRUE(w.ok());
  }
  ASSERT_TRUE(WriteTrace(p2, meta, stream));
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));

  TraceReader r(p1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.meta(), meta);
  EXPECT_EQ(r.num_batches(), stream.size());
  size_t i = 0;
  while (auto b = r.Next()) {
    EXPECT_EQ(*b, stream[i++]);
  }
  EXPECT_TRUE(r.ok());  // clean end-of-trace, not truncation
  EXPECT_EQ(i, stream.size());
}

TEST(DeriveSeedTest, StableAndDecorrelated) {
  EXPECT_EQ(DeriveSeed(1, 1), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(1, 2));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(2, 1));
}

}  // namespace
}  // namespace bdsm::workload
