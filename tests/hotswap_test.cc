// Hot-swap concurrency suite: Featurize from several threads while
// ReloadSnapshot keeps swapping the served model underneath them. Every call
// must see exactly one internally consistent model — its output bit-matches
// the old model or the new one, never a blend — and the whole dance must be
// clean under TSan (this binary carries the robustness + determinism labels
// CI's sanitizer jobs key on).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"

namespace leva {
namespace {

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "leva_hotswap_" + unique + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

LevaConfig TestConfig(uint64_t seed) {
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = 8;
  config.seed = seed;
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

MLDataset Featurized(const LevaPipeline& p, const Fixture& f) {
  auto r = p.Featurize(*f.base, f.ds.target_column, f.encoder,
                       /*rows_in_graph=*/true);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

bool SameBits(const MLDataset& a, const MLDataset& b) {
  return a.x.rows() == b.x.rows() && a.x.cols() == b.x.cols() &&
         std::memcmp(a.x.data().data(), b.x.data().data(),
                     a.x.data().size() * sizeof(double)) == 0;
}

// Two genuinely different models over the same schema, both snapshotted, and
// their expected Featurize outputs. Shared by every test below.
struct TwoModels {
  Fixture f;
  std::string path_a, path_b;
  MLDataset out_a, out_b;
};

TwoModels MakeTwoModels() {
  TwoModels t;
  t.f = MakeFixture();
  LevaPipeline a(TestConfig(5));
  EXPECT_TRUE(a.Fit(t.f.ds.db).ok());
  LevaPipeline b(TestConfig(77));
  EXPECT_TRUE(b.Fit(t.f.ds.db).ok());
  t.out_a = Featurized(a, t.f);
  t.out_b = Featurized(b, t.f);
  // The "old xor new" oracle is vacuous if the models coincide.
  EXPECT_FALSE(SameBits(t.out_a, t.out_b));
  t.path_a = TempPath("a.leva");
  t.path_b = TempPath("b.leva");
  EXPECT_TRUE(a.SaveSnapshot(t.path_a).ok());
  EXPECT_TRUE(b.SaveSnapshot(t.path_b).ok());
  return t;
}

// The core guarantee: with reloads raging, each Featurize call still serves
// one whole model. Four caller threads race a reloader that alternates the
// two snapshots (heap and mmap loads alternate too, so a mapped model can be
// retired while calls that pinned it are mid-flight).
TEST(HotSwapTest, FeaturizeAlwaysSeesOneConsistentModel) {
  const TwoModels t = MakeTwoModels();
  LevaPipeline serving;
  ASSERT_TRUE(serving.LoadSnapshot(t.path_a).ok());

  constexpr int kCallers = 4;
  constexpr int kCallsPerThread = 12;
  constexpr int kReloads = 24;
  std::atomic<bool> stop{false};
  std::atomic<int> blends{0};

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const MLDataset out = Featurized(serving, t.f);
        if (!SameBits(out, t.out_a) && !SameBits(out, t.out_b)) {
          blends.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread reloader([&] {
    SnapshotLoadOptions mmap_opts;
    mmap_opts.use_mmap = true;
    for (int i = 0; i < kReloads && !stop.load(std::memory_order_relaxed);
         ++i) {
      const std::string& path = (i % 2 == 0) ? t.path_b : t.path_a;
      const SnapshotLoadOptions opts =
          (i % 4 < 2) ? mmap_opts : SnapshotLoadOptions{};
      const Status s = serving.ReloadSnapshot(path, nullptr, opts);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });

  for (std::thread& th : callers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reloader.join();

  EXPECT_EQ(blends.load(), 0)
      << "a Featurize call observed a blend of two models";
  // After the dust settles the pipeline serves whichever model won, and it
  // is still fully functional.
  const MLDataset final_out = Featurized(serving, t.f);
  EXPECT_TRUE(SameBits(final_out, t.out_a) || SameBits(final_out, t.out_b));
}

// Serving-knob retunes (thread count, batch size) race Featurize and reloads
// without perturbing results: outputs are documented to be knob-invariant,
// which makes them a sharp oracle here.
TEST(HotSwapTest, ServingOptionRetunesRaceCleanly) {
  const TwoModels t = MakeTwoModels();
  LevaPipeline serving;
  ASSERT_TRUE(serving.LoadSnapshot(t.path_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> blends{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        const MLDataset out = Featurized(serving, t.f);
        if (!SameBits(out, t.out_a) && !SameBits(out, t.out_b)) {
          blends.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread tuner([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      serving.set_serving_options(/*threads=*/1 + (i % 3),
                                  /*featurize_batch_size=*/(i % 2) * 17);
      ++i;
    }
  });
  std::thread reloader([&] {
    for (int i = 0; i < 16; ++i) {
      const Status s = serving.ReloadSnapshot((i % 2 == 0) ? t.path_b
                                                           : t.path_a);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });

  for (std::thread& th : callers) th.join();
  reloader.join();
  stop.store(true, std::memory_order_relaxed);
  tuner.join();
  EXPECT_EQ(blends.load(), 0);
}

// A reload that fails (missing file, corrupt bytes) must leave concurrent
// and subsequent Featurize calls on the incumbent model.
TEST(HotSwapTest, FailedReloadKeepsServingIncumbent) {
  const TwoModels t = MakeTwoModels();
  LevaPipeline serving;
  ASSERT_TRUE(serving.LoadSnapshot(t.path_a).ok());

  std::atomic<int> blends{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        const MLDataset out = Featurized(serving, t.f);
        if (!SameBits(out, t.out_a)) {
          blends.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reloader([&] {
    const std::string missing = TempPath("missing.leva");
    for (int i = 0; i < 8; ++i) {
      EXPECT_FALSE(serving.ReloadSnapshot(missing).ok());
    }
  });
  for (std::thread& th : callers) th.join();
  reloader.join();

  EXPECT_EQ(blends.load(), 0) << "a failed reload perturbed serving";
  EXPECT_TRUE(SameBits(Featurized(serving, t.f), t.out_a));
}

// Mixed-tier swaps: the reloader alternates an fp64 snapshot and an int8
// snapshot of the same fitted model (heap and mmap loads alternating too).
// Quantization makes the two outputs differ, so they form a sharp oracle:
// every concurrent Featurize call must bit-match exactly one tier's output —
// a caller pinned to the retiring fp64 model keeps its fp64 vectors even as
// the int8 store replaces it, and vice versa. Must be TSan-clean.
TEST(HotSwapTest, MixedTierReloadsServeOneWholeTierPerCall) {
  Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(5));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path_fp64 = TempPath("fp64.leva");
  const std::string path_int8 = TempPath("int8.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path_fp64, StorageTier::kFp64).ok());
  ASSERT_TRUE(fitted.SaveSnapshot(path_int8, StorageTier::kInt8).ok());

  LevaPipeline ref_fp64, ref_int8;
  ASSERT_TRUE(ref_fp64.LoadSnapshot(path_fp64).ok());
  ASSERT_TRUE(ref_int8.LoadSnapshot(path_int8).ok());
  ASSERT_EQ(ref_fp64.embedding().tier(), StorageTier::kFp64);
  ASSERT_EQ(ref_int8.embedding().tier(), StorageTier::kInt8);
  const MLDataset out_fp64 = Featurized(ref_fp64, f);
  const MLDataset out_int8 = Featurized(ref_int8, f);
  // Quantization error must actually show up for the oracle to bite.
  ASSERT_FALSE(SameBits(out_fp64, out_int8));

  LevaPipeline serving;
  ASSERT_TRUE(serving.LoadSnapshot(path_fp64).ok());

  constexpr int kCallers = 4;
  constexpr int kCallsPerThread = 12;
  constexpr int kReloads = 24;
  std::atomic<int> blends{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const MLDataset out = Featurized(serving, f);
        if (!SameBits(out, out_fp64) && !SameBits(out, out_int8)) {
          blends.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reloader([&] {
    SnapshotLoadOptions mmap_opts;
    mmap_opts.use_mmap = true;
    for (int i = 0; i < kReloads; ++i) {
      const std::string& path = (i % 2 == 0) ? path_int8 : path_fp64;
      const SnapshotLoadOptions opts =
          (i % 4 < 2) ? mmap_opts : SnapshotLoadOptions{};
      const Status s = serving.ReloadSnapshot(path, nullptr, opts);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });

  for (std::thread& th : callers) th.join();
  reloader.join();

  EXPECT_EQ(blends.load(), 0)
      << "a Featurize call observed a cross-tier blend";
  const MLDataset final_out = Featurized(serving, f);
  EXPECT_TRUE(SameBits(final_out, out_fp64) || SameBits(final_out, out_int8));
}

// The operator guard: with require_same_tier set, a reload whose snapshot
// stores a different tier is refused with an error naming both tiers, and
// the incumbent keeps serving untouched.
TEST(HotSwapTest, SameTierGuardRejectsCrossTierReload) {
  Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig(5));
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string path_fp64 = TempPath("guard_fp64.leva");
  const std::string path_int8 = TempPath("guard_int8.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(path_fp64, StorageTier::kFp64).ok());
  ASSERT_TRUE(fitted.SaveSnapshot(path_int8, StorageTier::kInt8).ok());

  LevaPipeline serving;
  ASSERT_TRUE(serving.LoadSnapshot(path_fp64).ok());
  const MLDataset incumbent = Featurized(serving, f);

  SnapshotLoadOptions strict;
  strict.require_same_tier = true;
  const Status s = serving.ReloadSnapshot(path_int8, nullptr, strict);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("int8"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("fp64"), std::string::npos) << s.ToString();
  EXPECT_EQ(serving.embedding().tier(), StorageTier::kFp64);
  EXPECT_TRUE(SameBits(Featurized(serving, f), incumbent));

  // The same guard admits a same-tier swap...
  ASSERT_TRUE(serving.ReloadSnapshot(path_fp64, nullptr, strict).ok());
  // ...and without the guard the cross-tier swap is a deliberate choice.
  ASSERT_TRUE(serving.ReloadSnapshot(path_int8).ok());
  EXPECT_EQ(serving.embedding().tier(), StorageTier::kInt8);
}

}  // namespace
}  // namespace leva
