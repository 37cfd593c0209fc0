// Differential + crash-safety suite for the pipeline snapshot format:
// Fit -> Save -> Load must serve Featurize bit-identically to the fitted
// pipeline across methods, thread counts, and batch sizes, and a kill at any
// injected I/O step must leave the previous snapshot loadable or be detected
// at load — never a silently wrong model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"

namespace leva {
namespace {

// ctest runs every registered test as its own process, possibly in
// parallel; fold the test's full name and the pid into the path so e.g.
// the /MF and /RandomWalk instances of one parameterized test never race
// on the same file.
std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "leva_snapshot_" + unique + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

LevaConfig TestConfig(EmbeddingMethod method) {
  LevaConfig config;
  config.method = method;
  config.embedding_dim = 8;
  config.walks.epochs = 3;
  config.walks.walk_length = 10;
  config.word2vec.epochs = 1;
  config.seed = 5;
  return config;
}

struct Fixture {
  SyntheticDataset ds;
  const Table* base = nullptr;
  TargetEncoder encoder;
};

Fixture MakeFixture() {
  Fixture f;
  auto ds = GenerateStudent(120, 0, 3);
  EXPECT_TRUE(ds.ok());
  f.ds = std::move(ds).value();
  f.base = f.ds.db.FindTable(f.ds.base_table);
  EXPECT_NE(f.base, nullptr);
  EXPECT_TRUE(
      f.encoder.Fit(*f.base->FindColumn(f.ds.target_column), true).ok());
  return f;
}

MLDataset Featurized(const LevaPipeline& p, const Fixture& f,
                     bool rows_in_graph) {
  auto r = p.Featurize(*f.base, f.ds.target_column, f.encoder, rows_in_graph);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// Bit-exact dataset equality: the matrix blocks memcmp-equal, labels equal.
void ExpectBitIdentical(const MLDataset& a, const MLDataset& b) {
  ASSERT_EQ(a.x.rows(), b.x.rows());
  ASSERT_EQ(a.x.cols(), b.x.cols());
  EXPECT_EQ(0, std::memcmp(a.x.data().data(), b.x.data().data(),
                           a.x.data().size() * sizeof(double)));
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.feature_names, b.feature_names);
}

std::string ReadAll(const std::string& path) {
  auto r = Env::Default()->ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good());
}

class SnapshotRoundTrip
    : public ::testing::TestWithParam<EmbeddingMethod> {};

TEST_P(SnapshotRoundTrip, FeaturizeBitIdenticalAfterLoad) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(GetParam()));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const MLDataset in_graph = Featurized(fitted, f, /*rows_in_graph=*/true);
  const MLDataset held_out = Featurized(fitted, f, /*rows_in_graph=*/false);

  const std::string path = TempPath("roundtrip.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());

  LevaPipeline loaded;  // default config: everything comes from the snapshot
  const Status s = loaded.LoadSnapshot(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.chosen_method(), fitted.chosen_method());
  EXPECT_EQ(loaded.config().embedding_dim, fitted.config().embedding_dim);
  EXPECT_EQ(loaded.config().seed, fitted.config().seed);
  EXPECT_EQ(loaded.embedding().dim(), fitted.embedding().dim());
  EXPECT_EQ(loaded.embedding().keys(), fitted.embedding().keys());
  EXPECT_EQ(loaded.graph().NumNodes(), fitted.graph().NumNodes());
  EXPECT_EQ(loaded.graph().NumEdges(), fitted.graph().NumEdges());
  EXPECT_EQ(loaded.graph().stats().value_nodes, fitted.graph().stats().value_nodes);

  ExpectBitIdentical(Featurized(loaded, f, true), in_graph);
  ExpectBitIdentical(Featurized(loaded, f, false), held_out);
}

TEST_P(SnapshotRoundTrip, ServesIdenticallyAcrossThreadsAndBatchSizes) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(GetParam()));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const MLDataset expected = Featurized(fitted, f, true);
  const MLDataset expected_out = Featurized(fitted, f, false);

  const std::string path = TempPath("threads.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const size_t batch : {size_t{0}, size_t{7}}) {
      LevaPipeline loaded;
      ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
      loaded.set_serving_options(threads, batch);
      ExpectBitIdentical(Featurized(loaded, f, true), expected);
      ExpectBitIdentical(Featurized(loaded, f, false), expected_out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SnapshotRoundTrip,
                         ::testing::Values(EmbeddingMethod::kMatrixFactorization,
                                           EmbeddingMethod::kRandomWalk),
                         [](const auto& info) {
                           return info.param ==
                                          EmbeddingMethod::kMatrixFactorization
                                      ? "MF"
                                      : "RandomWalk";
                         });

TEST(SnapshotTest, WarmResolverCacheRidesAlong) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  // Warm the serving cache, then snapshot it.
  (void)Featurized(fitted, f, true);
  EXPECT_GT(fitted.metrics().distinct_tokens.load(), 0u);
  const std::string path = TempPath("warm.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());

  LevaPipeline loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  ExpectBitIdentical(Featurized(loaded, f, true), Featurized(fitted, f, true));
  // Every token was already interned by the loaded warm cache: no newly
  // resolved token, so zero store probes, on the first serve.
  EXPECT_EQ(loaded.metrics().featurize.count(), 1u);
  EXPECT_EQ(loaded.metrics().distinct_tokens.load(), 0u);
}

TEST(SnapshotTest, LoadReplacesAFittedPipeline) {
  const Fixture f = MakeFixture();
  LevaPipeline a(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(a.Fit(f.ds.db).ok());
  const std::string path = TempPath("replace.leva");
  ASSERT_TRUE(a.SaveSnapshot(path).ok());

  LevaConfig other = TestConfig(EmbeddingMethod::kRandomWalk);
  other.seed = 99;
  LevaPipeline b(other);
  ASSERT_TRUE(b.Fit(f.ds.db).ok());
  ASSERT_TRUE(b.LoadSnapshot(path).ok());
  EXPECT_EQ(b.chosen_method(), EmbeddingMethod::kMatrixFactorization);
  EXPECT_EQ(b.config().seed, 5u);
  ExpectBitIdentical(Featurized(b, f, true), Featurized(a, f, true));
}

TEST(SnapshotTest, SaveUnfittedFailsCleanly) {
  LevaPipeline p;
  const Status s = p.SaveSnapshot(TempPath("unfitted.leva"));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, LoadMissingFileReportsPath) {
  LevaPipeline p;
  const Status s = p.LoadSnapshot(TempPath("does_not_exist.leva"));
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("does_not_exist.leva"), std::string::npos);
}

TEST(SnapshotTest, RejectsForeignFile) {
  const std::string path = TempPath("foreign.leva");
  WriteAll(path, "key dim v1 v2 v3 -- this is not a snapshot, honest\n");
  LevaPipeline p;
  const Status s = p.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.ToString();
}

TEST(SnapshotTest, RejectsVersionSkew) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("version.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());

  std::string bytes = ReadAll(path);
  // Bump the version field (offset 8). The version check runs before any
  // checksum math — a future format may checksum differently, so the only
  // safe reaction to unknown versions is to say so by name.
  bytes[8] = static_cast<char>(LevaPipeline::kSnapshotVersion + 1);
  WriteAll(path, bytes);

  LevaPipeline p;
  const Status s = p.LoadSnapshot(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(LevaPipeline::kSnapshotVersion +
                                            1)),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(LevaPipeline::kSnapshotVersion)),
            std::string::npos)
      << s.ToString();
}

// v5 and v6 differ from v7 only inside the config section (v6 dropped the
// walk engine byte and threshold, v7 the SGNS trainer bool), so a v5 or v6
// file is a complete, well-formed snapshot whose config would misparse. The
// version field alone must turn it away, before any section is read.
TEST(SnapshotTest, RejectsV5SnapshotByVersion) {
  static_assert(LevaPipeline::kSnapshotVersion == 7);
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  for (const char old_version : {5, 6}) {
    SCOPED_TRACE("v" + std::to_string(old_version));
    const std::string path = TempPath("old_version_full.leva");
    ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
    std::string bytes = ReadAll(path);
    bytes[8] = old_version;  // version field, little-endian u32 at offset 8
    WriteAll(path, bytes);

    for (const bool use_mmap : {false, true}) {
      LevaPipeline p;
      SnapshotLoadOptions opts;
      opts.use_mmap = use_mmap;
      const Status s = p.LoadSnapshot(path, nullptr, opts);
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(s.message().find("version " + std::to_string(old_version)),
                std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("version 7"), std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("re-save"), std::string::npos)
          << s.ToString();
    }
  }
}

// A good-faith file in ANY retired format — v1 (element-wise layout with a
// whole-file trailing CRC), v2 (first page-aligned bulk layout), v3 (walk
// engine config), v4 (quantized tiers), v5 (applied-WAL position, still with
// the walk engine config), v6 (SGNS trainer selection bool) — must be turned
// away with an error naming both its version and ours — never parsed, never a
// crash. The fixtures are
// synthesized: every version shares the same 8-byte magic followed by a u32
// version field, which is all the reader may look at before rejecting.
TEST(SnapshotTest, RejectsEveryRetiredVersionNamingBothVersions) {
  for (uint32_t version = 1; version < LevaPipeline::kSnapshotVersion;
       ++version) {
    SCOPED_TRACE("retired format v" + std::to_string(version));
    std::string old_file;
    old_file += "LEVASNP1";            // family magic, shared across versions
    old_file.append(reinterpret_cast<const char*>(&version), sizeof(version));
    // Body bytes no reader can parse.
    old_file += std::string(256, '\x7f');

    const std::string path = TempPath("v" + std::to_string(version) + ".leva");
    WriteAll(path, old_file);
    for (const bool use_mmap : {false, true}) {
      LevaPipeline p;
      SnapshotLoadOptions opts;
      opts.use_mmap = use_mmap;
      const Status s = p.LoadSnapshot(path, nullptr, opts);
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(s.message().find("version " + std::to_string(version)),
                std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find(
                    "version " +
                    std::to_string(LevaPipeline::kSnapshotVersion)),
                std::string::npos)
          << s.ToString();
      EXPECT_NE(s.message().find("re-save"), std::string::npos)
          << s.ToString();
    }
  }
}

// --- zero-copy (mmap) loads --------------------------------------------------

// Serving from a mapped snapshot — eagerly verified or lazily — must be
// bit-for-bit the same function as serving from a heap load or from the
// pipeline that trained the model.
TEST(SnapshotTest, MmapLoadServesBitIdentically) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const MLDataset expected = Featurized(fitted, f, true);
  const std::string path = TempPath("mmap.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());

  LevaPipeline heap;
  ASSERT_TRUE(heap.LoadSnapshot(path).ok());
  EXPECT_FALSE(heap.uses_mmap());
  ExpectBitIdentical(Featurized(heap, f, true), expected);

  for (const bool verify_pages : {true, false}) {
    SCOPED_TRACE(verify_pages ? "eager" : "lazy");
    LevaPipeline mapped;
    SnapshotLoadOptions opts;
    opts.use_mmap = true;
    opts.verify_pages = verify_pages;
    ASSERT_TRUE(mapped.LoadSnapshot(path, nullptr, opts).ok());
    EXPECT_TRUE(mapped.uses_mmap());
    EXPECT_TRUE(mapped.embedding().mapped());
    EXPECT_TRUE(mapped.graph().mapped());
    // The deferred integrity check must pass on an intact file whether or
    // not the load already did the work.
    EXPECT_TRUE(mapped.VerifyStorage().ok());
    ExpectBitIdentical(Featurized(mapped, f, true), expected);
    ExpectBitIdentical(Featurized(mapped, f, false),
                       Featurized(fitted, f, false));
  }
}

// Flipping one bit inside ANY page of the file must fail an eagerly verified
// mmap load: manifest pages via the manifest checksum, bulk pages via their
// per-page CRCs (which also cover the zero padding).
TEST(SnapshotTest, MmapLoadRejectsEveryBadPage) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("badpage.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
  const size_t file_size = ReadAll(path).size();
  const size_t pages = (file_size + 4095) / 4096;
  ASSERT_GT(pages, 2u) << "fixture snapshot too small to exercise paging";

  SnapshotLoadOptions opts;
  opts.use_mmap = true;
  opts.verify_pages = true;
  for (size_t page = 0; page < pages; ++page) {
    SCOPED_TRACE("corrupt page " + std::to_string(page));
    FaultInjectionEnv env;
    env.CorruptMappedPage(page);
    LevaPipeline p;
    const Status s = p.LoadSnapshot(path, &env, opts);
    EXPECT_FALSE(s.ok()) << "corrupt page " << page << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

// A bad bulk page must be named precisely — section, page index, and file
// offset — so an operator can tell silent media corruption from a bad save.
TEST(SnapshotTest, BadPageErrorNamesThePage) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("namepage.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
  // The last page of the file always belongs to the last bulk section
  // (embedding.data): bulk payloads tile the file to its exact end.
  const size_t last_page = ReadAll(path).size() / 4096 - 1;

  FaultInjectionEnv env;
  env.CorruptMappedPage(last_page);
  SnapshotLoadOptions opts;
  opts.use_mmap = true;
  LevaPipeline p;
  const Status s = p.LoadSnapshot(path, &env, opts);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("page checksum"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("embedding.data"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("file offset " + std::to_string(last_page * 4096)),
            std::string::npos)
      << s.ToString();
}

// A lazy mmap load (verify_pages = false) skips the O(model size) page scan,
// so corruption in the embedding payload slips past the load — that is the
// documented trade — but VerifyStorage() must still find it on demand and
// name the page.
TEST(SnapshotTest, LazyLoadDefersPageVerificationToVerifyStorage) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("lazy.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
  const size_t last_page = ReadAll(path).size() / 4096 - 1;

  FaultInjectionEnv env;
  env.CorruptMappedPage(last_page);
  SnapshotLoadOptions opts;
  opts.use_mmap = true;
  opts.verify_pages = false;
  LevaPipeline p;
  // The corrupt page holds raw embedding doubles, structurally invisible to
  // the cheap load-time checks.
  ASSERT_TRUE(p.LoadSnapshot(path, &env, opts).ok());
  const Status verify = p.VerifyStorage();
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verify.message().find("page checksum"), std::string::npos)
      << verify.ToString();

  // Same load without the corruption: the deferred check passes.
  env.Heal();
  LevaPipeline clean;
  ASSERT_TRUE(clean.LoadSnapshot(path, &env, opts).ok());
  EXPECT_TRUE(clean.VerifyStorage().ok());
}

TEST(SnapshotTest, DetectsEveryTruncation) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("trunc.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);

  const std::string cut = TempPath("trunc_cut.leva");
  std::vector<size_t> cuts = {0, 1, 7, 8, 12, 19, 20, 21,
                              bytes.size() / 2, bytes.size() - 1};
  for (size_t step = 23; step < bytes.size(); step += 97) cuts.push_back(step);
  for (const size_t n : cuts) {
    WriteAll(cut, bytes.substr(0, n));
    LevaPipeline p;
    const Status s = p.LoadSnapshot(cut);
    EXPECT_FALSE(s.ok()) << "truncation to " << n << " bytes was accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(SnapshotTest, DetectsEveryBitFlip) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path = TempPath("flip.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path).ok());
  const std::string bytes = ReadAll(path);

  const std::string flipped = TempPath("flip_one.leva");
  // Every byte would be slow under sanitizers; a coprime stride still visits
  // every region (header, each section, payloads, trailing CRC).
  std::vector<size_t> positions = {0, 8, 12, 16, bytes.size() - 1};
  for (size_t pos = 5; pos < bytes.size(); pos += 131) positions.push_back(pos);
  for (const size_t pos : positions) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteAll(flipped, corrupt);
    LevaPipeline p;
    const Status s = p.LoadSnapshot(flipped);
    EXPECT_FALSE(s.ok()) << "bit flip at byte " << pos << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(SnapshotTest, FailedLoadLeavesPipelineServingOldModel) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const MLDataset expected = Featurized(fitted, f, true);

  const std::string bad = TempPath("bad_load.leva");
  WriteAll(bad, std::string(100, 'x'));
  EXPECT_FALSE(fitted.LoadSnapshot(bad).ok());
  // The failed load must not have touched the fitted state.
  ExpectBitIdentical(Featurized(fitted, f, true), expected);
}

// --- fault injection ---------------------------------------------------------

using OpKind = FaultInjectionEnv::OpKind;

constexpr OpKind kAllOps[] = {OpKind::kAppend, OpKind::kSync, OpKind::kClose,
                              OpKind::kRename, OpKind::kSyncDir};

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kAppend: return "append";
    case OpKind::kSync: return "sync";
    case OpKind::kClose: return "close";
    case OpKind::kRename: return "rename";
    case OpKind::kSyncDir: return "syncdir";
    case OpKind::kRead: return "read";
  }
  return "?";
}

// Kill-at-every-I/O-step: arm a fault at each (kind, nth) a snapshot save
// performs, overwrite an existing good snapshot under the fault, and require
// that the path afterwards loads as EITHER the old model or the new one —
// bit-identically — or that the save never replaced it. No outcome may be a
// torn or silently wrong artifact.
TEST(FaultInjectionTest, KillAtEveryIoStepLeavesALoadableSnapshot) {
  const Fixture f = MakeFixture();
  LevaPipeline old_model(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(old_model.Fit(f.ds.db).ok());
  LevaConfig new_config = TestConfig(EmbeddingMethod::kMatrixFactorization);
  new_config.seed = 77;  // a genuinely different model
  LevaPipeline new_model(new_config);
  ASSERT_TRUE(new_model.Fit(f.ds.db).ok());

  const MLDataset old_out = Featurized(old_model, f, true);
  const MLDataset new_out = Featurized(new_model, f, true);
  // The two models must actually differ for the "old xor new" check to mean
  // anything.
  ASSERT_NE(0, std::memcmp(old_out.x.data().data(), new_out.x.data().data(),
                           old_out.x.data().size() * sizeof(double)));

  const std::string path = TempPath("faults.leva");

  // Learn how many fault points one save performs.
  FaultInjectionEnv probe;
  ASSERT_TRUE(new_model.SaveSnapshot(path, &probe).ok());
  for (const OpKind kind : kAllOps) {
    ASSERT_GT(probe.ops(kind), 0u) << OpName(kind) << " is never exercised";
  }

  const std::string good_old = [&] {
    const std::string p = TempPath("faults_old.leva");
    EXPECT_TRUE(old_model.SaveSnapshot(p).ok());
    return ReadAll(p);
  }();

  for (const auto append_mode : {FaultInjectionEnv::AppendFault::kFailCleanly,
                                 FaultInjectionEnv::AppendFault::kTornWrite}) {
    for (const OpKind kind : kAllOps) {
      for (size_t nth = 1; nth <= probe.ops(kind); ++nth) {
        SCOPED_TRACE(std::string(OpName(kind)) + " #" + std::to_string(nth) +
                     (append_mode == FaultInjectionEnv::AppendFault::kTornWrite
                          ? " (torn)"
                          : ""));
        WriteAll(path, good_old);  // fresh previous snapshot
        FaultInjectionEnv env;
        env.set_append_fault(append_mode);
        env.FailAtOp(kind, nth);
        const Status save = new_model.SaveSnapshot(path, &env);
        EXPECT_FALSE(save.ok());
        EXPECT_TRUE(env.crashed());
        EXPECT_NE(save.message().find("injected fault"), std::string::npos)
            << save.ToString();

        // "Restart": the snapshot at `path` must load and serve exactly one
        // of the two models.
        LevaPipeline recovered;
        const Status load = recovered.LoadSnapshot(path);
        ASSERT_TRUE(load.ok())
            << "crash left an unloadable snapshot: " << load.ToString();
        const MLDataset out = Featurized(recovered, f, true);
        const bool is_old =
            std::memcmp(out.x.data().data(), old_out.x.data().data(),
                        out.x.data().size() * sizeof(double)) == 0;
        const bool is_new =
            std::memcmp(out.x.data().data(), new_out.x.data().data(),
                        out.x.data().size() * sizeof(double)) == 0;
        EXPECT_TRUE(is_old || is_new)
            << "recovered snapshot serves neither the old nor the new model";
        // Failures before the rename step must leave the old snapshot; the
        // rename itself failing also leaves the old bytes in place.
        if (kind != OpKind::kSyncDir) {
          EXPECT_TRUE(is_old) << "pre-rename failure replaced the snapshot";
        }
      }
    }
  }
}

// A crash mid-save must not leave a temp file that a later atomic save
// cannot overwrite, and a successful retry after "restart" must win.
TEST(FaultInjectionTest, RetryAfterCrashSucceeds) {
  const Fixture f = MakeFixture();
  LevaPipeline model(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(model.Fit(f.ds.db).ok());
  const std::string path = TempPath("retry.leva");

  FaultInjectionEnv env;
  env.set_append_fault(FaultInjectionEnv::AppendFault::kTornWrite);
  env.FailAtOp(OpKind::kAppend, 1);
  EXPECT_FALSE(model.SaveSnapshot(path, &env).ok());

  // Process restarts: a clean save over the leftovers must succeed and load.
  ASSERT_TRUE(model.SaveSnapshot(path).ok());
  LevaPipeline loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  ExpectBitIdentical(Featurized(loaded, f, true), Featurized(model, f, true));
}

// Zero-copy loads lean on the same atomic-rename protocol: a crash at any
// I/O step of an overwriting save must leave the previous snapshot not just
// heap-loadable but MMAP-loadable with eager page verification — the mapped
// reader sees either the complete old file or the complete new one, never a
// partially renamed hybrid.
TEST(FaultInjectionTest, CrashMidSaveLeavesPreviousSnapshotMmapLoadable) {
  const Fixture f = MakeFixture();
  LevaPipeline old_model(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(old_model.Fit(f.ds.db).ok());
  LevaConfig new_config = TestConfig(EmbeddingMethod::kMatrixFactorization);
  new_config.seed = 77;
  LevaPipeline new_model(new_config);
  ASSERT_TRUE(new_model.Fit(f.ds.db).ok());
  const MLDataset old_out = Featurized(old_model, f, true);
  const MLDataset new_out = Featurized(new_model, f, true);

  const std::string path = TempPath("mmap_crash.leva");
  FaultInjectionEnv probe;
  ASSERT_TRUE(new_model.SaveSnapshot(path, &probe).ok());
  const std::string good_old = [&] {
    const std::string p = TempPath("mmap_crash_old.leva");
    EXPECT_TRUE(old_model.SaveSnapshot(p).ok());
    return ReadAll(p);
  }();

  SnapshotLoadOptions opts;
  opts.use_mmap = true;
  opts.verify_pages = true;
  for (const OpKind kind : kAllOps) {
    // Every append plus the commit steps; stride the appends to keep the
    // suite fast under sanitizers while still hitting early/mid/late ones.
    std::vector<size_t> nths = {1, probe.ops(kind)};
    for (size_t nth = 2; nth < probe.ops(kind); nth += 3) nths.push_back(nth);
    for (const size_t nth : nths) {
      if (nth == 0 || nth > probe.ops(kind)) continue;
      SCOPED_TRACE(std::string(OpName(kind)) + " #" + std::to_string(nth));
      WriteAll(path, good_old);
      FaultInjectionEnv env;
      env.set_append_fault(FaultInjectionEnv::AppendFault::kTornWrite);
      env.FailAtOp(kind, nth);
      EXPECT_FALSE(new_model.SaveSnapshot(path, &env).ok());

      // Reads pass through a crashed env, so "restart" and map the file.
      LevaPipeline recovered;
      const Status load = recovered.LoadSnapshot(path, &env, opts);
      ASSERT_TRUE(load.ok())
          << "crash left a snapshot that cannot be mmap-loaded: "
          << load.ToString();
      EXPECT_TRUE(recovered.uses_mmap());
      EXPECT_TRUE(recovered.VerifyStorage().ok());
      const MLDataset out = Featurized(recovered, f, true);
      const bool is_old =
          std::memcmp(out.x.data().data(), old_out.x.data().data(),
                      out.x.data().size() * sizeof(double)) == 0;
      const bool is_new =
          std::memcmp(out.x.data().data(), new_out.x.data().data(),
                      out.x.data().size() * sizeof(double)) == 0;
      EXPECT_TRUE(is_old || is_new)
          << "mapped recovery serves neither the old nor the new model";
    }
  }
}

// The quantized layout adds bulk sections (embedding.q8, embedding.scales)
// but must ride the same atomic-rename protocol: a crash at any I/O step of
// an int8 save overwriting an fp64 snapshot leaves the path serving either
// the complete old fp64 model or the complete new int8 one, mmap-loadable
// with eager page verification — never a hybrid of the two layouts.
TEST(FaultInjectionTest, CrashMidQuantizedSaveLeavesPreviousSnapshotLoadable) {
  const Fixture f = MakeFixture();
  LevaPipeline old_model(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(old_model.Fit(f.ds.db).ok());
  LevaConfig new_config = TestConfig(EmbeddingMethod::kMatrixFactorization);
  new_config.seed = 77;
  LevaPipeline new_model(new_config);
  ASSERT_TRUE(new_model.Fit(f.ds.db).ok());
  const MLDataset old_out = Featurized(old_model, f, true);

  // Reference output of the new model served at int8: save clean, reload.
  const std::string q_ref_path = TempPath("q_crash_ref.leva");
  ASSERT_TRUE(new_model.SaveSnapshot(q_ref_path, StorageTier::kInt8).ok());
  LevaPipeline q_ref;
  ASSERT_TRUE(q_ref.LoadSnapshot(q_ref_path).ok());
  ASSERT_EQ(q_ref.embedding().tier(), StorageTier::kInt8);
  const MLDataset new_q_out = Featurized(q_ref, f, true);

  const std::string path = TempPath("q_crash.leva");
  FaultInjectionEnv probe;
  ASSERT_TRUE(new_model.SaveSnapshot(path, StorageTier::kInt8, &probe).ok());
  const std::string good_old = [&] {
    const std::string p = TempPath("q_crash_old.leva");
    EXPECT_TRUE(old_model.SaveSnapshot(p).ok());
    return ReadAll(p);
  }();

  SnapshotLoadOptions opts;
  opts.use_mmap = true;
  opts.verify_pages = true;
  for (const OpKind kind : kAllOps) {
    std::vector<size_t> nths = {1, probe.ops(kind)};
    for (size_t nth = 2; nth < probe.ops(kind); nth += 5) nths.push_back(nth);
    for (const size_t nth : nths) {
      if (nth == 0 || nth > probe.ops(kind)) continue;
      SCOPED_TRACE(std::string(OpName(kind)) + " #" + std::to_string(nth));
      WriteAll(path, good_old);
      FaultInjectionEnv env;
      env.set_append_fault(FaultInjectionEnv::AppendFault::kTornWrite);
      env.FailAtOp(kind, nth);
      EXPECT_FALSE(new_model.SaveSnapshot(path, StorageTier::kInt8, &env).ok());

      LevaPipeline recovered;
      const Status load = recovered.LoadSnapshot(path, &env, opts);
      ASSERT_TRUE(load.ok())
          << "crash mid quantized save left an unloadable snapshot: "
          << load.ToString();
      EXPECT_TRUE(recovered.VerifyStorage().ok());
      const MLDataset out = Featurized(recovered, f, true);
      const bool is_old =
          recovered.embedding().tier() == StorageTier::kFp64 &&
          std::memcmp(out.x.data().data(), old_out.x.data().data(),
                      out.x.data().size() * sizeof(double)) == 0;
      const bool is_new =
          recovered.embedding().tier() == StorageTier::kInt8 &&
          std::memcmp(out.x.data().data(), new_q_out.x.data().data(),
                      out.x.data().size() * sizeof(double)) == 0;
      EXPECT_TRUE(is_old || is_new)
          << "recovery serves neither the old fp64 nor the new int8 model";
    }
  }
}

}  // namespace
}  // namespace leva
