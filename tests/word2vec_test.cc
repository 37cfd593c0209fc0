// Differential and determinism suites for the embedding-training fast path:
// the sharded SGNS trainer is pinned bit-identical to the SGNS oracle in
// tests/reference/ at 1/2/4/8 threads, and the walk corpora it trains on are
// pinned to the per-walker reference generator. These tests carry the `determinism` ctest label and are run
// under TSan (LEVA_SANITIZE=thread) to keep the parallel paths race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "embed/corpus.h"
#include "embed/walks.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "reference/walk_reference.h"
#include "reference/word2vec_reference.h"

namespace leva {
namespace {

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.data().size(), b.data().size());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)),
            0);
}

// Random corpus with a skewed unigram distribution so frequent-token
// subsampling actually draws from the RNG (keep probability < 1 for the
// head tokens).
std::vector<std::vector<uint32_t>> RandomCorpus(size_t sentences,
                                                size_t max_len, uint32_t vocab,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> corpus(sentences);
  for (auto& sentence : corpus) {
    const size_t len = 2 + rng.UniformInt(max_len - 1);
    sentence.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      // min of two uniforms skews mass toward small token ids.
      const uint32_t a = static_cast<uint32_t>(rng.UniformInt(vocab));
      const uint32_t b = static_cast<uint32_t>(rng.UniformInt(vocab));
      sentence.push_back(std::min(a, b));
    }
  }
  return corpus;
}

TEST(FlatCorpusTest, BuildAndIndex) {
  FlatCorpus c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.num_tokens(), 0u);
  c.PushToken(3);
  c.PushToken(1);
  EXPECT_TRUE(c.EndSentence());
  EXPECT_FALSE(c.EndSentence());  // nothing pushed: dropped
  const std::vector<uint32_t> one = {7};
  c.AppendSentence(one);
  c.AppendSentence({});  // empty: dropped
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.num_tokens(), 3u);
  ASSERT_EQ(c[0].size(), 2u);
  EXPECT_EQ(c[0][0], 3u);
  EXPECT_EQ(c[0][1], 1u);
  ASSERT_EQ(c[1].size(), 1u);
  EXPECT_EQ(c[1][0], 7u);
  EXPECT_EQ(c.offsets().front(), 0u);
  EXPECT_EQ(c.offsets().back(), c.num_tokens());
}

TEST(FlatCorpusTest, FlattenMatchesNested) {
  const std::vector<std::vector<uint32_t>> nested = {{1, 2, 3}, {}, {4}};
  const FlatCorpus flat = Flatten(nested);
  ASSERT_EQ(flat.size(), 2u);  // empty sentence dropped
  EXPECT_EQ(flat.tokens(), (std::vector<uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(flat.offsets(), (std::vector<size_t>{0, 3, 4}));
}

// The trainer runs the batched-dot kernel on copy-on-first-touch shard rows;
// it must reproduce the sharded oracle (serial interleaved sampling,
// full-matrix shard copies) bit-for-bit at every thread count. The configs
// cover full-width merge rounds, a 6-token vocabulary where a pair's
// negatives repeat (the kernel's serial fallback), negative >= 16 (the
// oversized-batch fallback), an odd dim, and a vocabulary large enough that
// the shard size follows the token-type count instead of its 64-sentence
// floor, still with four-shard rounds. The production shapes follow: dims 32
// and 64 (the update phase's and RW Fit's), 72 (an odd count of whole 8-lane
// groups) and 75 (lane groups plus a 3-element tail), each at negative 3, 5,
// 7 and 9, so the pair dot kernel runs 4, 6 and 8 targets in one block and
// more than 8 in two.
TEST(Word2VecTest, DeterministicMatchesReferenceBitwise) {
  Word2VecOptions options;
  options.dim = 12;
  options.window = 3;
  options.negative = 5;
  options.epochs = 2;
  ExpectDeterministicMatchesReference(Flatten(RandomCorpus(9000, 8, 80, 7)),
                                      80, options, 123);

  Word2VecOptions small_vocab = options;
  small_vocab.subsample = 0;
  ExpectDeterministicMatchesReference(Flatten(RandomCorpus(2000, 10, 6, 8)), 6,
                                      small_vocab, 5);

  Word2VecOptions oversized = options;
  oversized.negative = 16;
  oversized.epochs = 1;
  ExpectDeterministicMatchesReference(Flatten(RandomCorpus(600, 8, 40, 9)), 40,
                                      oversized, 77);

  Word2VecOptions odd_dim = options;
  odd_dim.dim = 13;  // exercises the kernels' scalar tail end to end
  ExpectDeterministicMatchesReference(Flatten(RandomCorpus(3000, 8, 60, 11)),
                                      60, odd_dim, 31);

  Word2VecOptions wide_vocab = options;
  wide_vocab.epochs = 1;
  ExpectDeterministicMatchesReference(Flatten(RandomCorpus(20000, 8, 150, 12)),
                                      150, wide_vocab, 41);

  const FlatCorpus shaped = Flatten(RandomCorpus(3000, 8, 100, 13));
  for (const size_t dim : {32, 64, 72, 75}) {
    for (const size_t negative : {3, 5, 7, 9}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " negative=" + std::to_string(negative));
      Word2VecOptions production = options;
      production.dim = dim;
      production.negative = negative;
      production.epochs = 1;
      ExpectDeterministicMatchesReference(shaped, 100, production,
                                          dim + negative);
    }
  }
}

// Training is a pure function of the seed at any thread count. 9000
// sentences is enough for full-width (4-shard) merge rounds with many round
// barriers per epoch, and 2 epochs cover the epoch loop.
TEST(Word2VecTest, DeterministicParallelThreadInvariance) {
  const FlatCorpus flat = Flatten(RandomCorpus(9000, 8, 80, 7));

  Word2VecOptions options;
  options.dim = 12;
  options.window = 3;
  options.negative = 3;
  options.epochs = 2;

  Matrix reference_node;
  Matrix reference_ctx;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    Word2VecOptions o = options;
    o.threads = threads;
    Word2Vec model(o);
    Rng rng(123);
    ASSERT_TRUE(model.Train(flat, 80, &rng).ok());
    if (threads == 1) {
      reference_node = model.node_vectors();
      reference_ctx = model.context_vectors();
    } else {
      ExpectBitIdentical(model.node_vectors(), reference_node);
      ExpectBitIdentical(model.context_vectors(), reference_ctx);
    }
  }
}

double Cosine(const Matrix& vecs, size_t a, size_t b) {
  double dot = 0;
  double na = 0;
  double nb = 0;
  for (size_t j = 0; j < vecs.cols(); ++j) {
    dot += vecs(a, j) * vecs(b, j);
    na += vecs(a, j) * vecs(a, j);
    nb += vecs(b, j) * vecs(b, j);
  }
  return dot / std::sqrt(na * nb);
}

// Two-cluster corpus: tokens 0/1 always co-occur and 2/3 always co-occur.
std::vector<std::vector<uint32_t>> ClusterCorpus(size_t sentences) {
  std::vector<std::vector<uint32_t>> corpus;
  corpus.reserve(sentences);
  for (size_t i = 0; i < sentences; ++i) {
    if (i % 2 == 0) {
      corpus.push_back({0, 1, 0, 1, 0, 1});
    } else {
      corpus.push_back({2, 3, 2, 3, 2, 3});
    }
  }
  return corpus;
}

// Frozen round-start weights may slow convergence but must not break it:
// co-occurring tokens end up far more similar than cross-cluster ones.
// 1600 sentences make 25 64-sentence shards, trained in rounds of three.
// Subsampling is off — with a 4-token vocab every token is "frequent" and
// the subsampler would (correctly) discard ~93% of the corpus.
TEST(Word2VecTest, DeterministicParallelQualityFloor) {
  const FlatCorpus flat = Flatten(ClusterCorpus(1600));
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 4;
  options.threads = 4;
  options.subsample = 0;
  Word2Vec model(options);
  Rng rng(31);
  ASSERT_TRUE(model.Train(flat, 4, &rng).ok());
  const Matrix& vecs = model.node_vectors();
  EXPECT_GT(Cosine(vecs, 0, 1), 0.5);
  EXPECT_GT(Cosine(vecs, 2, 3), 0.5);
  EXPECT_GT(Cosine(vecs, 0, 1), Cosine(vecs, 0, 2));
  EXPECT_GT(Cosine(vecs, 2, 3), Cosine(vecs, 1, 3));
}

// Rounds of several shards on a 4-token vocabulary: every shard touches
// every context row, and the shards' deltas on those hub rows, all computed
// from the same round-start weights, point the same way. Summed, they
// overshoot R-fold in an R-shard round and training diverges (max
// |node·ctx| of ~1e12 at 3200 sentences and ~1e22 at 6400, and most seeds
// failing the quality floor at 1600). Dividing each context row's delta by
// the number of shards that touched it keeps every seed bounded and
// separated. 1600 sentences train in three-shard rounds, 6400 in four-shard
// rounds. Two epochs (DeterministicParallelQualityFloor trains four) keep
// the 40 fits near a second; summed deltas fail every one of them.
TEST(Word2VecTest, ShardedRoundsStayBoundedOnHubRows) {
  Word2VecOptions options;
  options.dim = 16;
  options.epochs = 2;
  options.threads = 4;
  options.subsample = 0;
  for (const size_t sentences : {1600u, 6400u}) {
    const FlatCorpus flat = Flatten(ClusterCorpus(sentences));
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("sentences=" + std::to_string(sentences) +
                   " seed=" + std::to_string(seed));
      Word2Vec model(options);
      Rng rng(seed);
      ASSERT_TRUE(model.Train(flat, 4, &rng).ok());
      const Matrix& vecs = model.node_vectors();
      EXPECT_GT(Cosine(vecs, 0, 1), 0.5);
      EXPECT_GT(Cosine(vecs, 2, 3), 0.5);
      EXPECT_GT(Cosine(vecs, 0, 1), Cosine(vecs, 0, 2));
      EXPECT_GT(Cosine(vecs, 2, 3), Cosine(vecs, 1, 3));
      double max_dot = 0;
      for (size_t i = 0; i < 4; ++i) {
        for (size_t c = 0; c < 4; ++c) {
          double dot = 0;
          for (size_t j = 0; j < options.dim; ++j) {
            dot += vecs(i, j) * model.context_vectors()(c, j);
          }
          max_dot = std::max(max_dot, std::abs(dot));
        }
      }
      EXPECT_LE(max_dot, 8.0);
    }
  }
}

// A staged WarmStart belongs to the next Train even when that Train fails:
// after a failed call, a valid Train must cold-start, bit-identical to a
// fresh model's. Covers each early error: null rng, empty vocabulary, a
// token past the vocabulary, and an empty corpus.
TEST(Word2VecTest, FailedTrainConsumesWarmStart) {
  const FlatCorpus flat = Flatten(RandomCorpus(300, 8, 30, 3));
  const FlatCorpus out_of_range = Flatten({{1, 2, 40}});
  Word2VecOptions options;
  options.dim = 8;
  options.epochs = 1;
  Word2Vec fresh(options);
  Rng fresh_rng(17);
  ASSERT_TRUE(fresh.Train(flat, 30, &fresh_rng).ok());

  Matrix warm(30, options.dim);
  for (double& v : warm.mutable_data()) v = 0.25;
  for (int failure = 0; failure < 4; ++failure) {
    SCOPED_TRACE("failure " + std::to_string(failure));
    Word2Vec model(options);
    model.WarmStart(warm);
    Rng rng(1);
    Status failed;
    switch (failure) {
      case 0: failed = model.Train(flat, 30, nullptr); break;
      case 1: failed = model.Train(flat, 0, &rng); break;
      case 2: failed = model.Train(out_of_range, 30, &rng); break;
      default: failed = model.Train(FlatCorpus(), 30, &rng); break;
    }
    EXPECT_FALSE(failed.ok());
    Rng cold_rng(17);
    ASSERT_TRUE(model.Train(flat, 30, &cold_rng).ok());
    ExpectBitIdentical(model.node_vectors(), fresh.node_vectors());
    ExpectBitIdentical(model.context_vectors(), fresh.context_vectors());
  }
}

LevaGraph WalkGraph() {
  TextifiedTable t;
  t.table_name = "t";
  t.rows = {
      {{0, "a"}},
      {{0, "a"}, {1, "b"}},
      {{1, "b"}, {2, "c"}},
      {{2, "c"}, {0, "a"}},
      {{0, "a"}, {1, "b"}, {2, "c"}},
  };
  auto g = BuildGraph({t}, 3);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// The walk engine against the per-walker oracle on the small textified
// graph the word2vec tests train on, across plain, visit-limited,
// balanced-restart, and weighted configs.
TEST(WalksTest, CorpusMatchesReferenceWalker) {
  const LevaGraph g = WalkGraph();
  WalkOptions base;
  base.epochs = 5;
  base.walk_length = 15;
  base.weighted = false;

  WalkOptions limited = base;
  limited.visit_limit = 12;
  WalkOptions balanced = base;
  balanced.balanced_restarts = true;
  balanced.restart_epochs = 2;
  WalkOptions weighted = base;
  weighted.weighted = true;

  for (const WalkOptions& options : {base, limited, balanced, weighted}) {
    ExpectIdenticalCorpora(g, options, 2024);
  }
}

}  // namespace
}  // namespace leva
