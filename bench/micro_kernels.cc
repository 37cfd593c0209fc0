// Engineering micro-benchmarks (google-benchmark) for the hot kernels:
// graph construction, alias-table sampling, sparse mat-mul, randomized SVD,
// and random-walk generation.
#include <benchmark/benchmark.h>

#include "common/io.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/pipeline.h"
#include "embed/embedding.h"
#include "datagen/synthetic.h"
#include "embed/mf.h"
#include "embed/walks_batched.h"
#include "embed/word2vec.h"
#include "graph/alias.h"
#include "graph/graph.h"
#include "la/decomp.h"
#include "la/sparse.h"
#include "ml/featurize.h"
#include "text/textifier.h"

namespace leva {
namespace {

// Shared fixture state: a mid-sized textified database and its graph.
struct Fixture {
  Database db;
  Textifier textifier;
  std::vector<TextifiedTable> textified;
  LevaGraph graph;

  Fixture() {
    SyntheticConfig c;
    c.base_rows = 2000;
    c.dims = {
        {.name = "d1", .rows = 300, .predictive_numeric = 2,
         .predictive_categorical = 2, .noise_numeric = 1,
         .noise_categorical = 1, .categories = 10, .parent = ""},
        {.name = "d2", .rows = 300, .predictive_numeric = 1,
         .predictive_categorical = 1, .noise_numeric = 1,
         .noise_categorical = 1, .categories = 10, .parent = ""},
    };
    c.seed = 3;
    db = std::move(GenerateSynthetic(c).value().db);
    (void)textifier.Fit(db);
    for (const Table& t : db.tables()) {
      textified.push_back(std::move(textifier.Transform(t)).value());
    }
    graph = std::move(BuildGraph(textified, textifier.NumAttributes()).value());
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_Textify(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    for (const Table& t : f.db.tables()) {
      benchmark::DoNotOptimize(f.textifier.Transform(t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.db.TotalRows()));
}
BENCHMARK(BM_Textify);

void BM_GraphConstruction(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildGraph(f.textified, f.textifier.NumAttributes()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.db.TotalRows()));
}
BENCHMARK(BM_GraphConstruction);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.Uniform(0.1, 10.0);
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(16)->Arg(1024)->Arg(65536);

void BM_SparseMultiply(benchmark::State& state) {
  Fixture& f = GetFixture();
  const SparseMatrix m = BuildProximityMatrix(f.graph, 1e-3);
  Rng rng(2);
  const Matrix x = Matrix::GaussianRandom(m.cols(), 32, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Multiply(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()) * 32);
}
BENCHMARK(BM_SparseMultiply);

void BM_RandomizedSVD(benchmark::State& state) {
  Fixture& f = GetFixture();
  const SparseMatrix m = BuildProximityMatrix(f.graph, 1e-3);
  Rng rng(3);
  RandomizedSvdOptions options;
  options.rank = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomizedSVD(m, options, &rng));
  }
}
BENCHMARK(BM_RandomizedSVD)->Arg(16)->Arg(64)->Arg(256);

// Gram-Schmidt QR at the serve model's sketch height (3,581 Student nodes)
// and the MF Fit sketch widths k = rank + 10 of dims 64 and 256.
// RandomizedSVD runs it power_iterations + 1 times per Fit.
void BM_GramSchmidtQ(benchmark::State& state) {
  Rng rng(7);
  const Matrix a =
      Matrix::GaussianRandom(3581, static_cast<size_t>(state.range(0)), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GramSchmidtQ(a));
  }
}
BENCHMARK(BM_GramSchmidtQ)->Arg(74)->Arg(266)->Unit(benchmark::kMillisecond);

// The symmetric eigenproblem of ThinSVD inside RandomizedSVD at the same
// widths: the k x k Gram of a 3,581 x k matrix whose column scales decay
// geometrically (0.97 per column), so the spectrum falls off like an MF
// sketch's instead of clustering like a square Gaussian's.
void BM_SymmetricEigen(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(8);
  Matrix b = Matrix::GaussianRandom(3581, k, &rng);
  for (size_t r = 0; r < b.rows(); ++r) {
    double scale = 1.0;
    for (size_t c = 0; c < k; ++c, scale *= 0.97) b(r, c) *= scale;
  }
  const Matrix gram = MatTMul(b, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricEigen(gram));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(74)->Arg(266)->Unit(benchmark::kMillisecond);

void BM_WalkGeneration(benchmark::State& state) {
  Fixture& f = GetFixture();
  WalkOptions options;
  options.epochs = 1;
  options.walk_length = 20;
  options.weighted = state.range(0) != 0;
  BatchedWalkGenerator generator(&f.graph, options);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(&rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.graph.NumNodes()) * 20);
}
BENCHMARK(BM_WalkGeneration)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Thread-scaling benchmarks for the shared execution layer. The argument is
// the worker count; the `items_per_second` column across 1/2/4/8 threads is
// the speedup table. Emit it as JSON with
//   micro_kernels --benchmark_filter=Threads --benchmark_format=json \
//                 --benchmark_out=scaling.json
// ---------------------------------------------------------------------------

void BM_GemmThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::GaussianRandom(384, 256, &rng);
  const Matrix b = Matrix::GaussianRandom(256, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.rows() * a.cols() * b.cols()));
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SparseMultiplyThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Fixture& f = GetFixture();
  const SparseMatrix m = BuildProximityMatrix(f.graph, 1e-3);
  Rng rng(6);
  const Matrix x = Matrix::GaussianRandom(m.cols(), 32, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Multiply(x, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.nnz()) * 32);
}
BENCHMARK(BM_SparseMultiplyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_WalkGenerationThreads(benchmark::State& state) {
  Fixture& f = GetFixture();
  WalkOptions options;
  options.epochs = 1;
  options.walk_length = 20;
  options.threads = static_cast<size_t>(state.range(0));
  BatchedWalkGenerator generator(&f.graph, options);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(&rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.graph.NumNodes()) * 20);
}
BENCHMARK(BM_WalkGenerationThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// FeaturizeThroughput: serving-path rows/sec of the batched fast path
// (column-wise textify + token interning + blocked parallel gather). The `items_per_second` column is the throughput table
// recorded in EXPERIMENTS.md. Args are {threads, rows_in_graph}.
// ---------------------------------------------------------------------------

struct FeaturizeFixture {
  SyntheticDataset data;
  LevaPipeline pipeline;
  TargetEncoder encoder;
  const Table* base = nullptr;

  FeaturizeFixture() {
    SyntheticConfig c;
    c.base_rows = 2000;
    c.dims = {
        {.name = "d1", .rows = 300, .predictive_numeric = 2,
         .predictive_categorical = 2, .noise_numeric = 1,
         .noise_categorical = 1, .categories = 10, .parent = ""},
        {.name = "d2", .rows = 300, .predictive_numeric = 1,
         .predictive_categorical = 1, .noise_numeric = 1,
         .noise_categorical = 1, .categories = 10, .parent = ""},
    };
    c.seed = 3;
    data = std::move(GenerateSynthetic(c).value());
    LevaConfig lc;
    lc.method = EmbeddingMethod::kMatrixFactorization;
    lc.embedding_dim = 64;
    lc.threads = 1;
    pipeline = LevaPipeline(lc);
    (void)pipeline.Fit(data.db);
    base = data.db.FindTable(data.base_table);
    (void)encoder.Fit(*base->FindColumn(data.target_column),
                      data.classification);
  }
};

FeaturizeFixture& GetFeaturizeFixture() {
  static FeaturizeFixture* fixture = new FeaturizeFixture();
  return *fixture;
}

void BM_FeaturizeBatched(benchmark::State& state) {
  FeaturizeFixture& f = GetFeaturizeFixture();
  const size_t threads = static_cast<size_t>(state.range(0));
  const bool rows_in_graph = state.range(1) != 0;
  f.pipeline.set_serving_options(threads, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.pipeline.Featurize(
        *f.base, f.data.target_column, f.encoder, rows_in_graph));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.base->NumRows()));
}
BENCHMARK(BM_FeaturizeBatched)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1});

// ---------------------------------------------------------------------------
// DequantGather: the fused per-tier accumulate kernels of the featurize
// gather — a[j] += w * dequant(row[j]) — over a synthetic occurrence stream.
// items_per_second is accumulated elements/sec; compare the three tiers to
// see the SIMD dequant riding the narrower loads (bf16 reads 4x, int8 8x
// fewer bytes per element than fp64).
// ---------------------------------------------------------------------------

struct DequantFixture {
  static constexpr size_t kRows = 4096;
  static constexpr size_t kDim = 256;
  std::vector<double> fp64;
  std::vector<uint16_t> bf16;
  std::vector<int8_t> q8;
  std::vector<float> scales;
  std::vector<size_t> order;  // shuffled row visit order, reused every pass

  DequantFixture() {
    Rng rng(21);
    fp64.resize(kRows * kDim);
    for (double& v : fp64) v = rng.Uniform(-2.0, 2.0);
    bf16.resize(kRows * kDim);
    for (size_t i = 0; i < fp64.size(); ++i) {
      bf16[i] = simd::Bf16FromFloat(static_cast<float>(fp64[i]));
    }
    q8.resize(kRows * kDim);
    scales.resize(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      QuantizeRowInt8(fp64.data() + r * kDim, kDim, q8.data() + r * kDim,
                      &scales[r]);
    }
    order.resize(kRows);
    for (size_t r = 0; r < kRows; ++r) order[r] = r;
    for (size_t r = kRows - 1; r > 0; --r) {
      std::swap(order[r], order[rng.Next() % (r + 1)]);
    }
  }
};

DequantFixture& GetDequantFixture() {
  static DequantFixture* fixture = new DequantFixture();
  return *fixture;
}

// One pass of each kernel over the occurrence stream. Production calls these
// kernels from LEVA_TARGET_CLONES functions (the featurize gather's
// GatherChunk*, Embedding::DequantizeRow), so the passes are cloned too: the
// benches time the avx2 clone where the CPU has it, not the SSE2 baseline a
// plain caller would inline.
LEVA_TARGET_CLONES
void GatherF64Pass(const DequantFixture& f, double* acc) {
  for (const size_t r : f.order) {
    simd::GatherAdd(acc, f.fp64.data() + r * DequantFixture::kDim, 0.25,
                    DequantFixture::kDim);
  }
}

LEVA_TARGET_CLONES
void GatherBf16Pass(const DequantFixture& f, double* acc) {
  for (const size_t r : f.order) {
    simd::GatherAddBf16(acc, f.bf16.data() + r * DequantFixture::kDim, 0.25,
                        DequantFixture::kDim);
  }
}

LEVA_TARGET_CLONES
void GatherI8Pass(const DequantFixture& f, double* acc) {
  for (const size_t r : f.order) {
    simd::DequantGatherAdd(acc, f.q8.data() + r * DequantFixture::kDim,
                           static_cast<double>(f.scales[r]), 0.25,
                           DequantFixture::kDim);
  }
}

LEVA_TARGET_CLONES
void RowI8Pass(const DequantFixture& f, double* row) {
  for (const size_t r : f.order) {
    simd::DequantRowI8(row, f.q8.data() + r * DequantFixture::kDim,
                       static_cast<double>(f.scales[r]), DequantFixture::kDim);
  }
}

template <void (*Pass)(const DequantFixture&, double*)>
void BM_DequantPass(benchmark::State& state) {
  DequantFixture& f = GetDequantFixture();
  std::vector<double> out(DequantFixture::kDim, 0.0);
  for (auto _ : state) {
    Pass(f, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(DequantFixture::kRows * DequantFixture::kDim));
}
BENCHMARK(BM_DequantPass<GatherF64Pass>)->Name("BM_DequantGatherF64");
BENCHMARK(BM_DequantPass<GatherBf16Pass>)->Name("BM_DequantGatherBf16");
BENCHMARK(BM_DequantPass<GatherI8Pass>)->Name("BM_DequantGatherI8");

// Row-at-a-time dequantization (the Get/GetById scratch path), for the
// serving calls that need a full fp64 row rather than a fused accumulate.
BENCHMARK(BM_DequantPass<RowI8Pass>)->Name("BM_DequantRowI8");

// CRC32C, the checksum on every wire frame, snapshot page and WAL record:
// one 4 KiB page, one 4-row dim-256 Row+Value FEATURIZE response payload
// (16 KiB of features + the 26-byte response header), and 8 MiB.
void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.Next());
  for (auto _ : state) benchmark::DoNotOptimize(Crc32c(bytes));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(16384 + 26)->Arg(8 << 20);

// ---------------------------------------------------------------------------
// Word2VecThroughput: skip-gram training tokens/sec over a fixed walk corpus
// under the sharded SGNS schedule. Arguments: the corpus, the embedding dim
// (64 is RW Fit's; the update phase and RecoverFromLog train at 32, where
// the per-pair cost outweighs the per-lane cost) and the worker count;
// items_per_second is corpus tokens per epoch-pass per second. Two
// corpora straddle the schedule's small-corpus trade-off: fit_shaped:0 is one
// 20-step walk per node (~3k sentences, too few shards per epoch for
// multi-shard rounds), fit_shaped:1 is Fit's walk shape (6 walks of 30
// steps per node), whose rounds hold two shards.
// ---------------------------------------------------------------------------

struct W2VFixture {
  FlatCorpus flat;
  size_t vocab = 0;

  explicit W2VFixture(bool fit_shaped) {
    Fixture& f = GetFixture();
    WalkOptions options;
    options.epochs = fit_shaped ? 6 : 1;
    options.walk_length = fit_shaped ? 30 : 20;
    options.threads = 1;
    Rng rng(11);
    BatchedWalkGenerator generator(&f.graph, options);
    flat = std::move(generator.Generate(&rng)).value();
    vocab = f.graph.NumNodes();
  }
};

W2VFixture& GetW2VFixture(bool fit_shaped) {
  static W2VFixture* fixtures[2] = {};
  W2VFixture*& fixture = fixtures[fit_shaped ? 1 : 0];
  if (fixture == nullptr) fixture = new W2VFixture(fit_shaped);
  return *fixture;
}

void BM_Word2VecThroughput(benchmark::State& state) {
  W2VFixture& w = GetW2VFixture(state.range(0) != 0);
  Word2VecOptions options;
  options.dim = static_cast<size_t>(state.range(1));
  options.epochs = 1;
  options.threads = static_cast<size_t>(state.range(2));
  for (auto _ : state) {
    Word2Vec model(options);
    Rng rng(12);
    benchmark::DoNotOptimize(model.Train(w.flat, w.vocab, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.flat.num_tokens()));
}
// Wall time: the pool's workers do most of the work at threads > 1, which the
// calling thread's CPU clock would not count.
BENCHMARK(BM_Word2VecThroughput)
    ->ArgNames({"fit_shaped", "dim", "threads"})
    ->ArgsProduct({{0, 1}, {32, 64}, {1, 2, 4, 8}})
    ->UseRealTime();

}  // namespace
}  // namespace leva

BENCHMARK_MAIN();
