// Tests for the shared execution layer (common/parallel.h): ThreadPool /
// ParallelFor mechanics, counter-based RNG streams, and the cross-module
// determinism contract — every parallel stage must produce bit-identical
// output at any thread count for a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "embed/mf.h"
#include "embed/walks_batched.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "ml/gridsearch.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/tree.h"

namespace leva {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor mechanics
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < 64 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool joins after draining the queue.
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(threads, 0, hits.size(), 7, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelFor(4, 10, 10, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ChunkBoundariesRespectGrain) {
  // Chunk boundaries must be a pure function of (begin, end, grain) — they
  // are what makes per-chunk RNG streams thread-count invariant.
  std::mutex mu;
  std::set<std::pair<size_t, size_t>> chunks;
  ParallelFor(4, 0, 103, 10, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.insert({b, e});
  });
  std::set<std::pair<size_t, size_t>> expected;
  for (size_t b = 0; b < 103; b += 10) expected.insert({b, std::min<size_t>(b + 10, 103)});
  EXPECT_EQ(chunks, expected);
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(ParallelFor(4, 0, 100, 1,
                           [&](size_t b, size_t) {
                             if (b == 57) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> count{0};
  ParallelFor(4, 0, 16, 1, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(ParallelForTest, ResolveThreadsNeverReturnsZero) {
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
}

#if defined(__linux__)
// The default thread count follows the CPUs this process may run on, not
// the host's core count, so a taskset-pinned run resolves `0` to what it
// can actually use.
TEST(ParallelForTest, ResolveThreadsFollowsAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t resolved = ResolveThreads(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(resolved, 1u);
  EXPECT_EQ(ResolveThreads(0), static_cast<size_t>(CPU_COUNT(&saved)));
}
#endif

// Back-to-back tiny calls make the caller reach its completion wait at the
// same moment the last helper chunk finishes — the window in which an
// unlocked completion notify is lost and the caller sleeps forever. The
// binary's ctest TIMEOUT turns such a hang into a failure.
TEST(ParallelForTest, BackToBackTinyCallsNeverHang) {
  std::atomic<size_t> total{0};
  constexpr size_t kCalls = 40000;
  for (size_t call = 0; call < kCalls; ++call) {
    ParallelFor(4, 0, 4, 1, [&](size_t, size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 4 * kCalls);
}

// A forked child inherits the shared pool object but none of its workers,
// and the workers' condition variable still records them as waiters. The
// child's first ParallelFor must get a pool of its own instead of hanging on
// the inherited one (bench/serving measures each load mode in a child forked
// after Fit). The child runs under a deadline and is killed if it overruns.
TEST(ParallelForTest, ForkedChildGetsAWorkingPool) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer aborts a child that starts threads after "
                  "a multi-threaded fork";
#endif
  std::atomic<size_t> warm{0};
  ParallelFor(4, 0, 64, 1, [&](size_t b, size_t e) { warm.fetch_add(e - b); });
  ASSERT_EQ(warm.load(), 64u);
  // Let the workers go back to waiting on the pool's condition variable.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Two chunks, each waiting up to 5 s for the other to start: they
    // overlap only if a pool worker runs one while the caller runs the other.
    std::atomic<int> started{0};
    std::atomic<bool> overlapped{true};
    ParallelFor(4, 0, 2, 1, [&](size_t, size_t) {
      started.fetch_add(1);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (started.load() < 2) {
        if (std::chrono::steady_clock::now() > until) {
          overlapped.store(false);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    ::_exit(overlapped.load() ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "ParallelFor in the forked child hung for 10 s";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died, wait status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "no pool worker ran in the forked child";
}

TEST(StreamRngTest, StreamsAreStableAndDistinct) {
  const uint64_t s1 = DeriveStreamSeed(42, rngdomain::kWalk, 7);
  EXPECT_EQ(s1, DeriveStreamSeed(42, rngdomain::kWalk, 7));
  EXPECT_NE(s1, DeriveStreamSeed(42, rngdomain::kWalk, 8));
  EXPECT_NE(s1, DeriveStreamSeed(42, rngdomain::kForest, 7));
  EXPECT_NE(s1, DeriveStreamSeed(43, rngdomain::kWalk, 7));
  // Neighboring streams must not be correlated in their first draws.
  std::set<uint64_t> first_draws;
  for (uint64_t i = 0; i < 100; ++i) {
    Rng r = StreamRng(42, rngdomain::kWalk, i);
    first_draws.insert(r.Next());
  }
  EXPECT_EQ(first_draws.size(), 100u);
}

// ---------------------------------------------------------------------------
// Determinism contract: threads=1 vs threads=4, same seed, bitwise equality
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

TEST(DeterminismTest, DenseMatMul) {
  Rng rng(11);
  const Matrix a = Matrix::GaussianRandom(65, 33, &rng);
  const Matrix b = Matrix::GaussianRandom(33, 21, &rng);
  ExpectBitIdentical(MatMul(a, b, 1), MatMul(a, b, 4));
  const Matrix c = Matrix::GaussianRandom(65, 21, &rng);
  ExpectBitIdentical(MatTMul(a, c, 1), MatTMul(a, c, 4));
}

TEST(DeterminismTest, SparseMultiply) {
  // 600 rows so TransposeMultiply uses more than one merge chunk.
  Rng rng(12);
  std::vector<Triplet> triplets;
  for (size_t i = 0; i < 4000; ++i) {
    triplets.push_back({static_cast<uint32_t>(rng.UniformInt(600)),
                        static_cast<uint32_t>(rng.UniformInt(80)),
                        rng.Normal()});
  }
  const SparseMatrix s = SparseMatrix::FromTriplets(600, 80, triplets);
  const Matrix x = Matrix::GaussianRandom(80, 16, &rng);
  ExpectBitIdentical(s.Multiply(x, 1), s.Multiply(x, 4));
  const Matrix y = Matrix::GaussianRandom(600, 16, &rng);
  ExpectBitIdentical(s.TransposeMultiply(y, 1), s.TransposeMultiply(y, 4));

  // 2065 rows: all 8 merge chunks, scattered in waves of 1, 3, 4 and 8.
  std::vector<Triplet> wide;
  for (size_t i = 0; i < 12000; ++i) {
    wide.push_back({static_cast<uint32_t>(rng.UniformInt(2065)),
                    static_cast<uint32_t>(rng.UniformInt(80)), rng.Normal()});
  }
  const SparseMatrix s8 = SparseMatrix::FromTriplets(2065, 80, wide);
  const Matrix y8 = Matrix::GaussianRandom(2065, 13, &rng);
  const Matrix want = s8.TransposeMultiply(y8, 1);
  for (const size_t threads : {3, 4, 8}) {
    ExpectBitIdentical(want, s8.TransposeMultiply(y8, threads));
  }
}

LevaGraph TestGraph() {
  TextifiedTable t;
  t.table_name = "t";
  t.rows = {
      {{0, "v1"}},
      {{0, "v1"}, {1, "v2"}},
      {{1, "v2"}, {2, "v3"}},
      {{2, "v3"}, {0, "v1"}},
      {{1, "v2"}},
  };
  auto g = BuildGraph({t}, 3);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(DeterminismTest, WalkCorpus) {
  const LevaGraph g = TestGraph();
  for (const bool balanced : {false, true}) {
    WalkOptions o1;
    o1.epochs = 6;
    o1.balanced_restarts = balanced;
    o1.restart_epochs = 2;
    WalkOptions o4 = o1;
    o1.threads = 1;
    o4.threads = 4;
    Rng r1(77);
    Rng r4(77);
    BatchedWalkGenerator g1(&g, o1);
    BatchedWalkGenerator g4(&g, o4);
    const auto c1 = g1.Generate(&r1);
    const auto c4 = g4.Generate(&r4);
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(c4.ok());
    ASSERT_EQ(c1->size(), c4->size());
    EXPECT_EQ(c1->tokens(), c4->tokens());
    EXPECT_EQ(c1->offsets(), c4->offsets());
    EXPECT_EQ(g1.visit_counts(), g4.visit_counts());
  }
}

TEST(DeterminismTest, MatrixFactorizationEmbedding) {
  const LevaGraph g = TestGraph();
  MfOptions o1;
  o1.dim = 8;
  MfOptions o4 = o1;
  o1.threads = 1;
  o4.threads = 4;
  Rng r1(13);
  Rng r4(13);
  const auto e1 = MatrixFactorizationEmbed(g, o1, &r1);
  const auto e4 = MatrixFactorizationEmbed(g, o4, &r4);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e4.ok());
  ExpectBitIdentical(*e1, *e4);
}

TEST(DeterminismTest, Word2VecDeterministicMode) {
  const LevaGraph g = TestGraph();
  WalkOptions wo;
  wo.epochs = 4;
  wo.walk_length = 20;
  Rng wr(9);
  BatchedWalkGenerator gen(&g, wo);
  const auto corpus = gen.Generate(&wr);
  ASSERT_TRUE(corpus.ok());

  Word2VecOptions o1;
  o1.dim = 8;
  o1.epochs = 2;
  Word2VecOptions o4 = o1;
  o1.threads = 1;
  o4.threads = 4;
  Rng r1(31);
  Rng r4(31);
  Word2Vec m1(o1);
  Word2Vec m4(o4);
  ASSERT_TRUE(m1.Train(*corpus, g.NumNodes(), &r1).ok());
  ASSERT_TRUE(m4.Train(*corpus, g.NumNodes(), &r4).ok());
  ExpectBitIdentical(m1.node_vectors(), m4.node_vectors());
}

// The default configuration end to end: an RW Fit (walks, then SGNS with
// multi-shard merge rounds on this corpus) gives the same embedding bytes at
// every thread count.
TEST(DeterminismTest, PipelineRandomWalkFitDefaultConfig) {
  auto data = GenerateStudent(8, 0, 9);
  ASSERT_TRUE(data.ok());
  std::vector<double> reference;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    LevaConfig config;
    config.method = EmbeddingMethod::kRandomWalk;
    config.threads = threads;
    LevaPipeline p(config);
    ASSERT_TRUE(p.Fit(data->db).ok());
    const ArrayView<double> d = p.embedding().data();
    if (threads == 1) {
      reference.assign(d.begin(), d.end());
    } else {
      ASSERT_EQ(d.size(), reference.size());
      EXPECT_TRUE(std::equal(d.begin(), d.end(), reference.begin()));
    }
  }
}

MLDataset BlobData(size_t n, Rng* rng) {
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 2;
  ds.x = Matrix(n, 2);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    ds.x(i, 0) = rng->Normal() + (pos ? 2.0 : -2.0);
    ds.x(i, 1) = rng->Normal() + (pos ? 2.0 : -2.0);
    ds.y[i] = pos ? 1.0 : 0.0;
  }
  return ds;
}

TEST(DeterminismTest, RandomForestFit) {
  Rng data_rng(55);
  const MLDataset ds = BlobData(120, &data_rng);
  ForestOptions o1;
  o1.num_trees = 12;
  ForestOptions o4 = o1;
  o1.threads = 1;
  o4.threads = 4;
  Rng r1(21);
  Rng r4(21);
  RandomForest f1(o1);
  RandomForest f4(o4);
  ASSERT_TRUE(f1.Fit(ds.x, ds.y, &r1).ok());
  ASSERT_TRUE(f4.Fit(ds.x, ds.y, &r4).ok());
  const auto p1 = f1.Predict(ds.x);
  const auto p4 = f4.Predict(ds.x);
  ASSERT_EQ(p1.size(), p4.size());
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p4[i]);
  // The caller rng must also advance identically (one base-seed draw).
  EXPECT_EQ(r1.Next(), r4.Next());
}

TEST(DeterminismTest, GridSearchWinner) {
  Rng data_rng(66);
  const MLDataset ds = BlobData(90, &data_rng);
  const ModelFactory factory = [](const ParamSet& p) {
    ForestOptions o;
    o.num_trees = static_cast<size_t>(p.at("trees"));
    return std::make_unique<RandomForest>(o);
  };
  const auto grid = BuildParamGrid({{"trees", {2, 4, 8}}});
  Rng r1(47);
  Rng r4(47);
  const auto g1 = GridSearchCV(factory, grid, ds, 3, Accuracy,
                               /*higher_is_better=*/true, &r1, /*threads=*/1);
  const auto g4 = GridSearchCV(factory, grid, ds, 3, Accuracy,
                               /*higher_is_better=*/true, &r4, /*threads=*/4);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g4.ok());
  EXPECT_EQ(g1->best_params, g4->best_params);
  EXPECT_EQ(g1->best_score, g4->best_score);
}

}  // namespace
}  // namespace leva
