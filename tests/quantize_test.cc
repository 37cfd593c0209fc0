// Differential suite for quantized embedding serving: every tier must load
// from its snapshot and serve Featurize within the documented per-element
// error bound of the fp64 model, the fused dequant gather must be
// bit-identical to the legacy scalar path at every tier / thread count /
// batch size, and the quantization loss must not move downstream model
// quality by more than noise. Carries both sanitizer labels: the fused
// kernels run under ASan here and the thread sweeps under TSan.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "reference/featurize_reference.h"

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
  return ::testing::TempDir() + "leva_quantize_" + unique + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

LevaConfig TestConfig() {
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = 8;
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

MLDataset FeaturizedReference(const LevaPipeline& p, const Fixture& f,
                           bool rows_in_graph) {
  auto r = ReferenceFeaturize(p, *f.base, f.ds.target_column, f.encoder,
                              rows_in_graph);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

void ExpectBitIdentical(const MLDataset& a, const MLDataset& b) {
  ASSERT_EQ(a.x.rows(), b.x.rows());
  ASSERT_EQ(a.x.cols(), b.x.cols());
  EXPECT_EQ(0, std::memcmp(a.x.data().data(), b.x.data().data(),
                           a.x.data().size() * sizeof(double)));
  EXPECT_EQ(a.y, b.y);
}

// A fitted pipeline plus one loaded serving pipeline per tier, all from
// snapshots of the same model.
struct TieredModels {
  Fixture f;
  LevaPipeline fitted{TestConfig()};
  LevaPipeline fp64, bf16, int8;
  std::string path_fp64, path_bf16, path_int8;
};

void MakeTieredModels(TieredModels* t) {
  t->f = MakeFixture();
  ASSERT_TRUE(t->fitted.Fit(t->f.ds.db).ok());
  t->path_fp64 = TempPath("fp64.leva");
  t->path_bf16 = TempPath("bf16.leva");
  t->path_int8 = TempPath("int8.leva");
  ASSERT_TRUE(t->fitted.SaveSnapshot(t->path_fp64, StorageTier::kFp64).ok());
  ASSERT_TRUE(t->fitted.SaveSnapshot(t->path_bf16, StorageTier::kBf16).ok());
  ASSERT_TRUE(t->fitted.SaveSnapshot(t->path_int8, StorageTier::kInt8).ok());
  ASSERT_TRUE(t->fp64.LoadSnapshot(t->path_fp64).ok());
  ASSERT_TRUE(t->bf16.LoadSnapshot(t->path_bf16).ok());
  ASSERT_TRUE(t->int8.LoadSnapshot(t->path_int8).ok());
  ASSERT_EQ(t->fp64.embedding().tier(), StorageTier::kFp64);
  ASSERT_EQ(t->bf16.embedding().tier(), StorageTier::kBf16);
  ASSERT_EQ(t->int8.embedding().tier(), StorageTier::kInt8);
}

// --- vector-level error bounds ----------------------------------------------

// Every dequantized int8 row must sit within scale/2 of the fp64 row, per
// element, using the scale the loaded store actually serves — the bound
// DESIGN.md documents. The epsilon absorbs the fp32 rounding of the scale
// itself (|scale_fp32 - scale_exact| <= ulp) amplified by |q| <= 127.
TEST(QuantizeTest, Int8RowsWithinHalfScaleOfFp64) {
  TieredModels t;
  MakeTieredModels(&t);
  const Embedding& ref = t.fp64.embedding();
  const Embedding& q = t.int8.embedding();
  ASSERT_EQ(ref.keys(), q.keys());
  const size_t dim = ref.dim();
  std::vector<double> ref_row(dim), q_row(dim);
  for (size_t id = 0; id < ref.size(); ++id) {
    ref.DequantizeRow(id, ref_row.data());
    q.DequantizeRow(id, q_row.data());
    const double scale = static_cast<double>(q.RowScale(id));
    const double bound =
        scale / 2.0 + 127.0 * std::ldexp(std::fabs(scale), -24) + 1e-300;
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_LE(std::fabs(ref_row[j] - q_row[j]), bound)
          << "row " << id << " elem " << j;
    }
  }
}

// Every dequantized bf16 element must be within 2^-8 relative of the fp64
// value (bf16 keeps 7 explicit mantissa bits, so the RNE half-step is 2^-8
// of the binade; the intermediate double->float rounding is negligible next
// to it).
TEST(QuantizeTest, Bf16RowsWithinRelativeBoundOfFp64) {
  TieredModels t;
  MakeTieredModels(&t);
  const Embedding& ref = t.fp64.embedding();
  const Embedding& b = t.bf16.embedding();
  ASSERT_EQ(ref.keys(), b.keys());
  const size_t dim = ref.dim();
  std::vector<double> ref_row(dim), b_row(dim);
  for (size_t id = 0; id < ref.size(); ++id) {
    ref.DequantizeRow(id, ref_row.data());
    b.DequantizeRow(id, b_row.data());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_LE(std::fabs(ref_row[j] - b_row[j]),
                std::ldexp(std::fabs(ref_row[j]), -8) + 1e-300)
          << "row " << id << " elem " << j;
    }
  }
}

// QuantizeRowInt8 itself honours its contract on adversarial rows: zero
// rows, single-spike rows, and sign-symmetric rows.
TEST(QuantizeTest, QuantizeRowInt8EdgeCases) {
  {
    const double zeros[4] = {0, 0, 0, 0};
    int8_t q[4];
    float scale = 1.0f;
    QuantizeRowInt8(zeros, 4, q, &scale);
    EXPECT_EQ(scale, 0.0f);
    for (int j = 0; j < 4; ++j) EXPECT_EQ(q[j], 0);
  }
  {
    const double spike[4] = {0.0, -3.5, 0.0, 0.25};
    int8_t q[4];
    float scale = 0.0f;
    QuantizeRowInt8(spike, 4, q, &scale);
    EXPECT_FLOAT_EQ(scale, static_cast<float>(3.5 / 127.0));
    EXPECT_EQ(q[1], -127);  // maxabs element always lands exactly on +-127
    for (int j = 0; j < 4; ++j) {
      EXPECT_LE(std::fabs(spike[j] - scale * q[j]), scale / 2.0 + 1e-9);
    }
  }
}

// --- featurize-level differential -------------------------------------------

// Serving at a quantized tier must track the fp64 output within the
// accumulated per-row bound: each feature is a weighted combination of
// dequantized rows, so its error is bounded by the worst per-element row
// error times the gather's weight mass. The fixture's compositions are
// convex-ish (weight mass per output element stays small); a 16x margin on
// the worst row error makes the bound robust without going vacuous.
TEST(QuantizeTest, QuantizedFeaturizeTracksFp64WithinBound) {
  TieredModels t;
  MakeTieredModels(&t);
  const MLDataset ref = Featurized(t.fp64, t.f, /*rows_in_graph=*/true);

  struct Case {
    const char* name;
    const LevaPipeline* p;
  };
  const Case cases[] = {{"bf16", &t.bf16}, {"int8", &t.int8}};
  const size_t dim = t.fp64.embedding().dim();
  std::vector<double> a(dim), b(dim);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Worst per-element row error of this tier's store vs fp64.
    double worst = 0.0;
    for (size_t id = 0; id < t.fp64.embedding().size(); ++id) {
      t.fp64.embedding().DequantizeRow(id, a.data());
      c.p->embedding().DequantizeRow(id, b.data());
      for (size_t j = 0; j < dim; ++j) {
        worst = std::max(worst, std::fabs(a[j] - b[j]));
      }
    }
    const MLDataset out = Featurized(*c.p, t.f, /*rows_in_graph=*/true);
    ASSERT_EQ(out.x.rows(), ref.x.rows());
    ASSERT_EQ(out.x.cols(), ref.x.cols());
    double worst_feature = 0.0;
    for (size_t i = 0; i < out.x.data().size(); ++i) {
      worst_feature =
          std::max(worst_feature,
                   std::fabs(out.x.data()[i] - ref.x.data()[i]));
    }
    EXPECT_LE(worst_feature, 16.0 * worst + 1e-12);
    // The quantized tiers really are lossy on this fixture — the bound
    // above would be vacuously satisfied by a broken loader that served
    // fp64 bits everywhere, so pin the loss too.
    EXPECT_GT(worst_feature, 0.0);
  }
}

// The fused SIMD dequant gather (Featurize) and the scalar legacy path
// (ReferenceFeaturize) must be bit-identical at every tier, thread count, and
// batch size, for in-graph and held-out rows alike: both sides dequantize
// element-wise and accumulate in the same order, so there is no tolerance —
// any divergence is a kernel bug, not rounding.
TEST(QuantizeTest, FusedGatherBitIdenticalToLegacyAtEveryTier) {
  TieredModels t;
  MakeTieredModels(&t);
  struct Case {
    const char* name;
    LevaPipeline* p;
  };
  const Case cases[] = {
      {"fp64", &t.fp64}, {"bf16", &t.bf16}, {"int8", &t.int8}};
  for (const Case& c : cases) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      for (const size_t batch : {size_t{0}, size_t{7}}) {
        SCOPED_TRACE(std::string(c.name) + " threads=" +
                     std::to_string(threads) + " batch=" +
                     std::to_string(batch));
        c.p->set_serving_options(threads, batch);
        ExpectBitIdentical(Featurized(*c.p, t.f, true),
                           FeaturizedReference(*c.p, t.f, true));
        ExpectBitIdentical(Featurized(*c.p, t.f, false),
                           FeaturizedReference(*c.p, t.f, false));
      }
    }
  }
}

// The same parity at dim 13: the fixture above runs at dim 8, a whole
// number of 4-lane groups, so only this case reaches the fused kernels'
// scalar tail end to end.
TEST(QuantizeTest, FusedGatherBitIdenticalToLegacyAtOddDim) {
  const Fixture f = MakeFixture();
  LevaConfig config = TestConfig();
  config.embedding_dim = 13;
  LevaPipeline fitted(config);
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  ASSERT_EQ(fitted.embedding().dim(), 13u);
  for (const StorageTier tier :
       {StorageTier::kFp64, StorageTier::kBf16, StorageTier::kInt8}) {
    const std::string path =
        TempPath("odd_dim_" + std::to_string(static_cast<int>(tier)));
    ASSERT_TRUE(fitted.SaveSnapshot(path, tier).ok());
    LevaPipeline serving;
    ASSERT_TRUE(serving.LoadSnapshot(path).ok());
    ASSERT_EQ(serving.embedding().tier(), tier);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("tier=" + std::to_string(static_cast<int>(tier)) +
                   " threads=" + std::to_string(threads));
      serving.set_serving_options(threads, 0);
      ExpectBitIdentical(Featurized(serving, f, true),
                         FeaturizedReference(serving, f, true));
      ExpectBitIdentical(Featurized(serving, f, false),
                         FeaturizedReference(serving, f, false));
    }
    std::remove(path.c_str());
  }
}

// --- exactness on representable values ---------------------------------------

// bf16 decode is exact (pure widening), so a model whose values are all
// bf16-representable serves bit-identically at bf16 and fp64. Such a model
// is minted by the requantize workflow itself: save at bf16, reload, and
// re-save at fp64 — the fp64 snapshot now holds exactly the widened bf16
// values.
TEST(QuantizeTest, Bf16ServesBitIdenticallyOnRepresentableModel) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig());
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());

  const std::string bf16_path = TempPath("repr_bf16.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(bf16_path, StorageTier::kBf16).ok());
  LevaPipeline bf16_serving;
  ASSERT_TRUE(bf16_serving.LoadSnapshot(bf16_path).ok());

  // Requantize up: the fp64 snapshot of a bf16-serving pipeline stores the
  // dequantized (= exactly representable) values.
  const std::string fp64_path = TempPath("repr_fp64.leva");
  ASSERT_TRUE(
      bf16_serving.SaveSnapshot(fp64_path, StorageTier::kFp64).ok());
  LevaPipeline fp64_serving;
  ASSERT_TRUE(fp64_serving.LoadSnapshot(fp64_path).ok());
  ASSERT_EQ(fp64_serving.embedding().tier(), StorageTier::kFp64);

  ExpectBitIdentical(Featurized(bf16_serving, f, true),
                     Featurized(fp64_serving, f, true));
  ExpectBitIdentical(Featurized(bf16_serving, f, false),
                     Featurized(fp64_serving, f, false));
}

// Load-then-save with no explicit tier keeps the served tier (the restored
// config carries it), and re-encoding a store at its own tier is lossless:
// the second snapshot serves bit-identically to the first.
TEST(QuantizeTest, ResaveRoundTripsTierLosslessly) {
  const Fixture f = MakeFixture();
  LevaPipeline fitted(TestConfig());
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  for (const StorageTier tier :
       {StorageTier::kFp64, StorageTier::kBf16, StorageTier::kInt8}) {
    SCOPED_TRACE(StorageTierName(tier));
    const std::string first = TempPath(std::string("first_") +
                                       StorageTierName(tier) + ".leva");
    ASSERT_TRUE(fitted.SaveSnapshot(first, tier).ok());
    LevaPipeline gen1;
    ASSERT_TRUE(gen1.LoadSnapshot(first).ok());
    ASSERT_EQ(gen1.embedding().tier(), tier);

    const std::string second = TempPath(std::string("second_") +
                                        StorageTierName(tier) + ".leva");
    ASSERT_TRUE(gen1.SaveSnapshot(second).ok());  // tier comes from config
    LevaPipeline gen2;
    ASSERT_TRUE(gen2.LoadSnapshot(second).ok());
    EXPECT_EQ(gen2.embedding().tier(), tier);
    ExpectBitIdentical(Featurized(gen2, f, true), Featurized(gen1, f, true));
  }
}

// --- footprint ----------------------------------------------------------------

// The tiers must actually shrink the artifact: fp64 > bf16 > int8. Bulk
// sections are page-aligned, so a dim-8 model's tiers can collide on file
// size — this test fits at dim 64, where the embedding payload dominates
// and the int8 snapshot must come in at least 3.5x smaller than fp64 (the
// serving-efficiency budget the feature signed up for).
TEST(QuantizeTest, SnapshotSizesShrinkWithTier) {
  const Fixture f = MakeFixture();
  LevaConfig config = TestConfig();
  config.embedding_dim = 64;
  LevaPipeline fitted(config);
  ASSERT_TRUE(fitted.Fit(f.ds.db).ok());
  const std::string p64 = TempPath("size_fp64.leva");
  const std::string p16 = TempPath("size_bf16.leva");
  const std::string p8 = TempPath("size_int8.leva");
  ASSERT_TRUE(fitted.SaveSnapshot(p64, StorageTier::kFp64).ok());
  ASSERT_TRUE(fitted.SaveSnapshot(p16, StorageTier::kBf16).ok());
  ASSERT_TRUE(fitted.SaveSnapshot(p8, StorageTier::kInt8).ok());
  auto file_size = [](const std::string& path) {
    auto r = Env::Default()->ReadFileToString(path);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->size() : size_t{0};
  };
  const size_t s64 = file_size(p64);
  const size_t s16 = file_size(p16);
  const size_t s8 = file_size(p8);
  EXPECT_LT(s8, s16);
  EXPECT_LT(s16, s64);
  EXPECT_GE(static_cast<double>(s64) / static_cast<double>(s8), 3.5)
      << "fp64=" << s64 << " int8=" << s8;

  LevaPipeline q;
  ASSERT_TRUE(q.LoadSnapshot(p8).ok());
  EXPECT_EQ(q.embedding().bytes_per_row(),
            q.embedding().dim() * sizeof(int8_t) + sizeof(float));
  LevaPipeline b;
  ASSERT_TRUE(b.LoadSnapshot(p16).ok());
  EXPECT_EQ(b.embedding().bytes_per_row(),
            b.embedding().dim() * sizeof(uint16_t));
}

// Quantized snapshots serve zero-copy too: an mmap load at each tier keeps
// the vector block (and int8 scales) mapped and serves bit-identically to
// the heap load of the same file.
TEST(QuantizeTest, MmapServesQuantizedTiersBitIdentically) {
  TieredModels t;
  MakeTieredModels(&t);
  struct Case {
    const char* name;
    const std::string* path;
    const LevaPipeline* heap;
  };
  const Case cases[] = {{"fp64", &t.path_fp64, &t.fp64},
                        {"bf16", &t.path_bf16, &t.bf16},
                        {"int8", &t.path_int8, &t.int8}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SnapshotLoadOptions opts;
    opts.use_mmap = true;
    LevaPipeline mapped;
    ASSERT_TRUE(mapped.LoadSnapshot(*c.path, nullptr, opts).ok());
    EXPECT_TRUE(mapped.embedding().mapped());
    EXPECT_TRUE(mapped.VerifyStorage().ok());
    ExpectBitIdentical(Featurized(mapped, t.f, true),
                       Featurized(*c.heap, t.f, true));
  }
}

// --- downstream quality -------------------------------------------------------

// The reason the tiers are usable at all: training the paper's classifier on
// quantized features moves accuracy by at most noise. Deterministic fit
// (fixed rng, fixed order), so the assertion is stable.
TEST(QuantizeTest, DownstreamAccuracyWithinDelta) {
  TieredModels t;
  MakeTieredModels(&t);
  auto accuracy_of = [&](const LevaPipeline& p) {
    const MLDataset ds = Featurized(p, t.f, /*rows_in_graph=*/true);
    ElasticNetOptions opts;
    opts.epochs = 60;
    LogisticRegressor model(t.f.encoder.num_classes(), opts);
    Rng rng(17);
    EXPECT_TRUE(model.Fit(ds.x, ds.y, &rng).ok());
    return Accuracy(ds.y, model.Predict(ds.x));
  };
  const double acc_fp64 = accuracy_of(t.fp64);
  const double acc_bf16 = accuracy_of(t.bf16);
  const double acc_int8 = accuracy_of(t.int8);
  // bf16 keeps ~3 significant digits, int8 ~2: neither should move training
  // accuracy on this fixture by more than a few labels.
  EXPECT_LE(std::fabs(acc_fp64 - acc_bf16), 0.05)
      << "fp64=" << acc_fp64 << " bf16=" << acc_bf16;
  EXPECT_LE(std::fabs(acc_fp64 - acc_int8), 0.08)
      << "fp64=" << acc_fp64 << " int8=" << acc_int8;
}

// --- kernel-level spot checks -------------------------------------------------

// The simd.h bf16 codec: encode rounds to nearest-even, decode widens
// exactly, and every float with zero low mantissa bits round-trips.
TEST(QuantizeTest, Bf16CodecRoundTrip) {
  // All of these have at most 7 explicit mantissa bits, so they are exactly
  // bf16-representable across the full exponent range.
  const float exact[] = {0.0f,      1.0f,       -2.5f,
                         0.15625f,  0x1p100f,   -0x1p-100f};
  for (const float f : exact) {
    EXPECT_EQ(simd::Bf16ToFloat(simd::Bf16FromFloat(f)), f) << f;
  }
  // Round-to-nearest-even at the midpoint: 1.0 + 2^-8 sits exactly between
  // bf16(1.0) and bf16(1.0 + 2^-7); RNE picks the even mantissa (1.0).
  const float midpoint = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(simd::Bf16ToFloat(simd::Bf16FromFloat(midpoint)), 1.0f);
  // Just above the midpoint rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -11);
  EXPECT_EQ(simd::Bf16ToFloat(simd::Bf16FromFloat(above)),
            1.0f + std::ldexp(1.0f, -7));
}

// The fused kernels agree bit-for-bit with the naive loops they replace.
TEST(QuantizeTest, DequantKernelsMatchScalarReference) {
  constexpr size_t kN = 67;  // odd length exercises every tail path
  std::vector<double> acc_kernel(kN), acc_ref(kN);
  std::vector<uint16_t> bf16(kN);
  std::vector<int8_t> q8(kN);
  Rng rng(3);
  for (size_t j = 0; j < kN; ++j) {
    bf16[j] = simd::Bf16FromFloat(static_cast<float>(rng.Uniform() * 4 - 2));
    q8[j] = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
    acc_kernel[j] = acc_ref[j] = rng.Uniform();
  }
  const double w = 0.37;
  const double scale = 0.0123;

  simd::GatherAddBf16(acc_kernel.data(), bf16.data(), w, kN);
  for (size_t j = 0; j < kN; ++j) {
    acc_ref[j] += w * static_cast<double>(simd::Bf16ToFloat(bf16[j]));
  }
  EXPECT_EQ(0, std::memcmp(acc_kernel.data(), acc_ref.data(),
                           kN * sizeof(double)));

  simd::DequantGatherAdd(acc_kernel.data(), q8.data(), scale, w, kN);
  for (size_t j = 0; j < kN; ++j) {
    acc_ref[j] += w * (scale * static_cast<double>(q8[j]));
  }
  EXPECT_EQ(0, std::memcmp(acc_kernel.data(), acc_ref.data(),
                           kN * sizeof(double)));
}

}  // namespace
}  // namespace leva
