#include "reference/word2vec_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "graph/alias.h"

namespace leva {
namespace {

constexpr size_t kMinShardSentences = 64;
constexpr size_t kShardTokensPerType = 8;
constexpr size_t kMaxRoundShards = 4;

// Table-driven sigmoid over [-6, 6] with 1000 entries, as in word2vec.c.
class Sigmoid {
 public:
  Sigmoid() {
    for (int i = 0; i < kSize; ++i) {
      const double x = (2.0 * i / kSize - 1.0) * kMax;
      table_[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }
  double operator()(double x) const {
    if (x >= kMax) return 1.0;
    if (x <= -kMax) return 0.0;
    const int i = static_cast<int>((x + kMax) * (kSize / (2.0 * kMax)));
    return table_[std::clamp(i, 0, kSize - 1)];
  }

 private:
  static constexpr int kSize = 1000;
  static constexpr double kMax = 6.0;
  double table_[kSize];
};

// Frequency-derived tables: subsampling keep-probabilities and the
// unigram^power negative distribution.
struct Plan {
  std::vector<double> keep;
  AliasTable negatives;
  size_t total_tokens = 0;
  size_t total_steps = 1;
  size_t types = 0;  // distinct corpus tokens
  Sigmoid sigmoid;
};

Result<Plan> MakePlan(const FlatCorpus& corpus, size_t vocab_size,
                      const Word2VecOptions& options) {
  if (vocab_size == 0) return Status::InvalidArgument("empty vocabulary");
  std::vector<double> freq(vocab_size, 0.0);
  for (size_t s = 0; s < corpus.size(); ++s) {
    for (const uint32_t t : corpus[s]) {
      if (t >= vocab_size) {
        return Status::OutOfRange("token id exceeds vocab size");
      }
      freq[t] += 1.0;
    }
  }
  Plan plan;
  plan.total_tokens = corpus.num_tokens();
  if (plan.total_tokens == 0) return Status::InvalidArgument("empty corpus");
  plan.total_steps = std::max<size_t>(1, options.epochs * plan.total_tokens);
  for (const double f : freq) plan.types += f > 0 ? 1 : 0;
  std::vector<double> noise(vocab_size);
  for (size_t i = 0; i < vocab_size; ++i) {
    noise[i] = std::pow(freq[i], options.unigram_power);
  }
  plan.negatives = AliasTable(noise);
  plan.keep.assign(vocab_size, 1.0);
  if (options.subsample > 0) {
    for (size_t i = 0; i < vocab_size; ++i) {
      if (freq[i] <= 0) continue;
      const double f = freq[i] / static_cast<double>(plan.total_tokens);
      plan.keep[i] = std::min(
          1.0, std::sqrt(options.subsample / f) + options.subsample / f);
    }
  }
  return plan;
}

// Node rows uniform in [-0.5, 0.5) / dim, drawn row-major; context rows zero.
ReferenceEmbedding InitWeights(size_t vocab_size, size_t dim, Rng* rng) {
  ReferenceEmbedding out{Matrix(vocab_size, dim), Matrix(vocab_size, dim)};
  for (size_t i = 0; i < vocab_size; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      out.node(i, j) = (rng->Uniform() - 0.5) / static_cast<double>(dim);
    }
  }
  return out;
}

// Scalar skip-gram SGD over one sentence. Kept position pos takes
// learning-rate step base_step + pos + 1.
void TrainSentence(const Word2VecOptions& options, const Plan& plan,
                   std::span<const uint32_t> sentence, size_t base_step, Rng* r,
                   ReferenceEmbedding* w) {
  const size_t dim = options.dim;
  std::vector<uint32_t> kept;
  for (const uint32_t t : sentence) {
    if (plan.keep[t] >= 1.0 || r->Uniform() < plan.keep[t]) kept.push_back(t);
  }
  std::vector<double> grad(dim);
  for (size_t pos = 0; pos < kept.size(); ++pos) {
    const size_t step = base_step + pos + 1;
    const double lr =
        options.learning_rate *
        std::max(1e-4, 1.0 - static_cast<double>(step) /
                                 static_cast<double>(plan.total_steps));
    const size_t shrink = r->UniformInt(options.window) + 1;
    const size_t begin = pos >= shrink ? pos - shrink : 0;
    const size_t end = std::min(kept.size(), pos + shrink + 1);
    double* center = w->node.RowPtr(kept[pos]);
    for (size_t cpos = begin; cpos < end; ++cpos) {
      if (cpos == pos) continue;
      const uint32_t ctx = kept[cpos];
      std::fill(grad.begin(), grad.end(), 0.0);
      for (size_t k = 0; k <= options.negative; ++k) {
        uint32_t target = ctx;
        double label = 1.0;
        if (k > 0) {
          target = plan.negatives.Sample(r);
          if (target == ctx) continue;
          label = 0.0;
        }
        double* row = w->context.RowPtr(target);
        double dot = 0;
        for (size_t j = 0; j < dim; ++j) dot += center[j] * row[j];
        const double g = (label - plan.sigmoid(dot)) * lr;
        for (size_t j = 0; j < dim; ++j) {
          grad[j] += g * row[j];
          row[j] += g * center[j];
        }
      }
      for (size_t j = 0; j < dim; ++j) center[j] += grad[j];
    }
  }
}

// m += local - frozen, element by element.
void AddDelta(const Matrix& local, const Matrix& frozen, Matrix* m) {
  for (size_t i = 0; i < m->data().size(); ++i) {
    m->mutable_data()[i] += local.data()[i] - frozen.data()[i];
  }
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)),
            0);
}

}  // namespace

Result<ReferenceEmbedding> ReferenceTrainDeterministic(
    const FlatCorpus& corpus, size_t vocab_size, const Word2VecOptions& options,
    Rng* rng) {
  auto plan = MakePlan(corpus, vocab_size, options);
  if (!plan.ok()) return plan.status();
  ReferenceEmbedding w = InitWeights(vocab_size, options.dim, rng);
  const uint64_t base_seed = rng->Next();
  const size_t sentences = corpus.size();
  // At least kShardTokensPerType tokens per distinct token in a shard, by
  // the mean sentence length (tokens / sentences), and never under
  // kMinShardSentences sentences.
  size_t shard_sentences = kShardTokensPerType * plan->types * sentences /
                           plan->total_tokens;
  if (shard_sentences * plan->total_tokens <
      kShardTokensPerType * plan->types * sentences) {
    ++shard_sentences;  // round up
  }
  shard_sentences = std::max(kMinShardSentences, shard_sentences);
  const size_t shards_per_epoch =
      (sentences + shard_sentences - 1) / shard_sentences;
  // At least eight rounds per epoch, one to kMaxRoundShards shards each.
  const size_t round_sentences =
      std::clamp<size_t>(shards_per_epoch / 8, 1, kMaxRoundShards) *
      shard_sentences;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Trains the shard starting at sentence b (ending at e) on *target.
    auto train_shard = [&](size_t b, size_t e, ReferenceEmbedding* target) {
      Rng shard_rng = StreamRng(base_seed, rngdomain::kWord2VecDet,
                                epoch * shards_per_epoch + b / shard_sentences);
      for (size_t s = b; s < e; ++s) {
        TrainSentence(options, *plan, corpus[s],
                      epoch * plan->total_tokens + corpus.offsets()[s],
                      &shard_rng, target);
      }
    };
    for (size_t rb = 0; rb < sentences; rb += round_sentences) {
      const size_t re = std::min(sentences, rb + round_sentences);
      if (re - rb <= shard_sentences) {
        train_shard(rb, re, &w);  // a round's only shard trains in place
        continue;
      }
      const ReferenceEmbedding frozen = w;
      for (size_t b = rb; b < re; b += shard_sentences) {
        ReferenceEmbedding local = frozen;
        train_shard(b, std::min(re, b + shard_sentences), &local);
        AddDelta(local.node, frozen.node, &w.node);
        AddDelta(local.context, frozen.context, &w.context);
      }
    }
  }
  return w;
}

void ExpectDeterministicMatchesReference(const FlatCorpus& corpus,
                                         size_t vocab_size,
                                         Word2VecOptions options,
                                         uint64_t seed) {
  Rng ref_rng(seed);
  auto ref = ReferenceTrainDeterministic(corpus, vocab_size, options, &ref_rng);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    Word2Vec model(options);
    Rng rng(seed);
    ASSERT_TRUE(model.Train(corpus, vocab_size, &rng).ok());
    ExpectBitIdentical(model.node_vectors(), ref->node);
    ExpectBitIdentical(model.context_vectors(), ref->context);
    // Both consumed the caller's rng identically.
    EXPECT_EQ(rng.Next(), Rng(ref_rng).Next());
  }
}

}  // namespace leva
