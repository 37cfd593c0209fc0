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

// fp32 weights, vocab x dim row-major, as the trainer keeps them.
struct Weights {
  size_t vocab = 0;
  size_t dim = 0;
  std::vector<float> node;
  std::vector<float> context;

  float* NodeRow(size_t i) { return node.data() + i * dim; }
  float* ContextRow(size_t i) { return context.data() + i * dim; }
};

// Which rows one shard read or wrote: a node row once it is the center of a
// pair, a context row once it is a pair's positive or negative target.
struct Touched {
  std::vector<bool> node;
  std::vector<bool> context;
};

// Node rows uniform in [-0.5, 0.5) / dim, drawn row-major in fp64 and
// rounded to fp32; context rows zero.
Weights InitWeights(size_t vocab_size, size_t dim, Rng* rng) {
  Weights w{vocab_size, dim, std::vector<float>(vocab_size * dim),
            std::vector<float>(vocab_size * dim, 0.0f)};
  for (size_t i = 0; i < vocab_size * dim; ++i) {
    w.node[i] =
        static_cast<float>((rng->Uniform() - 0.5) / static_cast<double>(dim));
  }
  return w;
}

// Eight fp32 accumulators, s[l] over the elements j < 8 * floor(dim / 8)
// with j % 8 == l, summed pairwise as ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)),
// then the tail elements added in order.
float Dot(const float* a, const float* b, size_t dim) {
  float s[8] = {};
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    for (size_t l = 0; l < 8; ++l) s[l] += a[j + l] * b[j + l];
  }
  float dot = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  for (; j < dim; ++j) dot += a[j] * b[j];
  return dot;
}

// Scalar skip-gram SGD over one sentence. Kept position pos takes
// learning-rate step base_step + pos + 1.
void TrainSentence(const Word2VecOptions& options, const Plan& plan,
                   std::span<const uint32_t> sentence, size_t base_step, Rng* r,
                   Weights* w, Touched* touched) {
  const size_t dim = options.dim;
  std::vector<uint32_t> kept;
  for (const uint32_t t : sentence) {
    if (plan.keep[t] >= 1.0 || r->Uniform() < plan.keep[t]) kept.push_back(t);
  }
  std::vector<float> grad(dim);
  for (size_t pos = 0; pos < kept.size(); ++pos) {
    const size_t step = base_step + pos + 1;
    const double lr =
        options.learning_rate *
        std::max(1e-4, 1.0 - static_cast<double>(step) /
                                 static_cast<double>(plan.total_steps));
    const size_t shrink = r->UniformInt(options.window) + 1;
    const size_t begin = pos >= shrink ? pos - shrink : 0;
    const size_t end = std::min(kept.size(), pos + shrink + 1);
    float* center = w->NodeRow(kept[pos]);
    for (size_t cpos = begin; cpos < end; ++cpos) {
      if (cpos == pos) continue;
      touched->node[kept[pos]] = true;
      const uint32_t ctx = kept[cpos];
      std::fill(grad.begin(), grad.end(), 0.0f);
      for (size_t k = 0; k <= options.negative; ++k) {
        uint32_t target = ctx;
        double label = 1.0;
        if (k > 0) {
          target = plan.negatives.Sample(r);
          if (target == ctx) continue;
          label = 0.0;
        }
        touched->context[target] = true;
        float* row = w->ContextRow(target);
        const float dot = Dot(center, row, dim);
        const float g = static_cast<float>((label - plan.sigmoid(dot)) * lr);
        for (size_t j = 0; j < dim; ++j) {
          grad[j] += g * row[j];
          row[j] += g * center[j];
        }
      }
      for (size_t j = 0; j < dim; ++j) center[j] += grad[j];
    }
  }
}

// Row i of m += (local - frozen) / div[i], element by element, for every
// row i in `rows` (div == nullptr: plain sum).
void AddDelta(const std::vector<float>& local,
              const std::vector<float>& frozen, const std::vector<bool>& rows,
              const std::vector<uint32_t>* div, size_t dim,
              std::vector<float>* m) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i]) continue;
    for (size_t j = i * dim; j < (i + 1) * dim; ++j) {
      const float delta = local[j] - frozen[j];
      (*m)[j] += div == nullptr ? delta : delta / static_cast<float>((*div)[i]);
    }
  }
}

Matrix Widen(const std::vector<float>& w, size_t vocab, size_t dim) {
  Matrix m(vocab, dim);
  for (size_t i = 0; i < w.size(); ++i) m.mutable_data()[i] = w[i];
  return m;
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
  Weights w = InitWeights(vocab_size, options.dim, rng);
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
    // Trains the shard starting at sentence b (ending at e) on *target,
    // marking the rows it uses in *touched.
    auto train_shard = [&](size_t b, size_t e, Weights* target,
                           Touched* touched) {
      Rng shard_rng = StreamRng(base_seed, rngdomain::kWord2VecDet,
                                epoch * shards_per_epoch + b / shard_sentences);
      for (size_t s = b; s < e; ++s) {
        TrainSentence(options, *plan, corpus[s],
                      epoch * plan->total_tokens + corpus.offsets()[s],
                      &shard_rng, target, touched);
      }
    };
    for (size_t rb = 0; rb < sentences; rb += round_sentences) {
      const size_t re = std::min(sentences, rb + round_sentences);
      Touched fresh{std::vector<bool>(vocab_size),
                    std::vector<bool>(vocab_size)};
      if (re - rb <= shard_sentences) {
        train_shard(rb, re, &w, &fresh);  // a round's only shard: in place
        continue;
      }
      // Every shard trains on its own copy of the round-start weights.
      const Weights frozen = w;
      std::vector<Weights> locals;
      std::vector<Touched> touched;
      for (size_t b = rb; b < re; b += shard_sentences) {
        locals.push_back(frozen);
        touched.push_back(fresh);
        train_shard(b, std::min(re, b + shard_sentences), &locals.back(),
                    &touched.back());
      }
      // Node deltas are summed; a context row's delta is divided by the
      // number of shards that touched it. Shards merge in order.
      std::vector<uint32_t> shards_touching(vocab_size, 0);
      for (const Touched& t : touched) {
        for (size_t i = 0; i < vocab_size; ++i) {
          shards_touching[i] += t.context[i] ? 1 : 0;
        }
      }
      for (size_t s = 0; s < locals.size(); ++s) {
        AddDelta(locals[s].node, frozen.node, touched[s].node, nullptr,
                 options.dim, &w.node);
        AddDelta(locals[s].context, frozen.context, touched[s].context,
                 &shards_touching, options.dim, &w.context);
      }
    }
  }
  return ReferenceEmbedding{Widen(w.node, vocab_size, options.dim),
                            Widen(w.context, vocab_size, options.dim)};
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
