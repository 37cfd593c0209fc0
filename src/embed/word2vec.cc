#include "embed/word2vec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/simd.h"
#include "graph/alias.h"

namespace leva {
namespace {

// Precomputed sigmoid over [-kMaxExp, kMaxExp], the classic word2vec trick.
constexpr int kExpTableSize = 1000;
constexpr double kMaxExp = 6.0;

// Sentences per Hogwild / deterministic shard.
constexpr size_t kSentenceGrain = 64;

// Stack capacity for a skip-gram pair's batched target list (positive +
// negatives). `negative` options at or beyond this fall back to the serial
// reference interleaving.
constexpr size_t kMaxDotBatch = 16;

// Maximum sentences per deterministic-parallel merge round (a multiple of
// kSentenceGrain so shard boundaries line up at any round offset). Shards
// within a round train against the weights frozen at the round start; a
// bounded round keeps the staleness — and therefore the summed-delta
// overshoot on hub rows — small while still amortizing the merge barrier.
// The actual round size shrinks with the corpus (see TrainDeterministic) so
// tiny corpora don't collapse into a single stale batch update.
constexpr size_t kDetRound = 16 * kSentenceGrain;

struct SigmoidTable {
  double values[kExpTableSize];
  SigmoidTable() {
    for (int i = 0; i < kExpTableSize; ++i) {
      const double x = (2.0 * i / kExpTableSize - 1.0) * kMaxExp;
      values[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }
  double operator()(double x) const {
    if (x >= kMaxExp) return 1.0;
    if (x <= -kMaxExp) return 0.0;
    const int idx =
        static_cast<int>((x + kMaxExp) * (kExpTableSize / (2.0 * kMaxExp)));
    return values[std::clamp(idx, 0, kExpTableSize - 1)];
  }
};

// Namespace-scope constant: built once at program start, so the hot loop
// pays no thread-safe-static guard per call.
const SigmoidTable kSigmoid;

double Sigmoid(double x) { return kSigmoid(x); }

// Everything derived from the token frequencies: the negative-sampling
// distribution and the subsampling keep-probabilities. Pure function of
// (freq, total_tokens, options).
struct TrainPlan {
  std::vector<double> keep;
  AliasTable negatives;
  size_t total_tokens = 0;
  size_t total_steps = 1;
};

TrainPlan MakePlan(const std::vector<double>& freq, size_t total_tokens,
                   const Word2VecOptions& options) {
  TrainPlan plan;
  plan.total_tokens = total_tokens;
  plan.total_steps = std::max<size_t>(1, options.epochs * total_tokens);
  const size_t vocab_size = freq.size();

  std::vector<double> noise(vocab_size);
  for (size_t i = 0; i < vocab_size; ++i) {
    noise[i] = std::pow(freq[i], options.unigram_power);
  }
  plan.negatives = AliasTable(noise);

  // Subsampling keep-probability per token (word2vec formula).
  plan.keep.assign(vocab_size, 1.0);
  if (options.subsample > 0) {
    for (size_t i = 0; i < vocab_size; ++i) {
      if (freq[i] <= 0) continue;
      const double f = freq[i] / static_cast<double>(total_tokens);
      plan.keep[i] = std::min(
          1.0, std::sqrt(options.subsample / f) + options.subsample / f);
    }
  }
  return plan;
}

// Weight initialization shared by every path; consumes rng in a fixed order.
void InitWeights(size_t vocab_size, size_t dim, Rng* rng, Matrix* node,
                 Matrix* context) {
  *node = Matrix(vocab_size, dim);
  *context = Matrix(vocab_size, dim);
  for (size_t i = 0; i < vocab_size; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      (*node)(i, j) = (rng->Uniform() - 0.5) / static_cast<double>(dim);
    }
  }
}

// Subsampled sentence: keeps token t with probability plan.keep[t]. Draws
// from `r` only for tokens whose keep-probability is below one.
void Subsample(const TrainPlan& plan, std::span<const uint32_t> sentence,
               Rng* r, std::vector<uint32_t>* kept) {
  kept->clear();
  for (const uint32_t t : sentence) {
    if (plan.keep[t] >= 1.0 || r->Uniform() < plan.keep[t]) {
      kept->push_back(t);
    }
  }
}

// Row access of the sequential and Hogwild paths: straight into the shared
// weight matrices. A context row's slot is its row id.
struct SharedRows {
  Matrix* node;
  Matrix* context;

  double* NodeRow(uint32_t row) { return node->RowPtr(row); }
  uint32_t ContextSlot(uint32_t row) { return row; }
  double* ContextRow(uint32_t slot) { return context->RowPtr(slot); }
};

// Copy-on-first-touch rows of one weight matrix that one deterministic
// shard updates. `cur` holds the shard's working copies (plain sequential
// SGD within the shard), `orig` the round-start snapshot, so the merge
// applies cur - orig per row. Insertion order is recorded in `rows` and is a
// pure function of the shard's sentences, making the merge order
// thread-count invariant.
struct ShardRows {
  std::unordered_map<uint32_t, uint32_t> slot;
  std::vector<uint32_t> rows;
  std::vector<double> cur;
  std::vector<double> orig;

  // Slot of `row`, copying it in on first touch. May grow the arena, which
  // invalidates every pointer previously returned by Row.
  uint32_t Touch(const Matrix& m, uint32_t row, size_t dim) {
    const auto [it, inserted] =
        slot.emplace(row, static_cast<uint32_t>(rows.size()));
    if (inserted) {
      rows.push_back(row);
      const double* src = m.RowPtr(row);
      cur.insert(cur.end(), src, src + dim);
      orig.insert(orig.end(), src, src + dim);
    }
    return it->second;
  }
  double* Row(uint32_t s, size_t dim) {
    return cur.data() + static_cast<size_t>(s) * dim;
  }
};

// Row access of one deterministic shard: reads the weights frozen at the
// round start, writes private copies merged at the round barrier.
struct ShardUpdate {
  const Matrix* node_src = nullptr;
  const Matrix* context_src = nullptr;
  size_t dim = 0;
  ShardRows node;
  ShardRows ctx;

  double* NodeRow(uint32_t row) {
    return node.Row(node.Touch(*node_src, row, dim), dim);
  }
  uint32_t ContextSlot(uint32_t row) {
    return ctx.Touch(*context_src, row, dim);
  }
  double* ContextRow(uint32_t s) { return ctx.Row(s, dim); }
};

// Merges the per-shard weight deltas in fixed sentence-shard order (and
// row-first-touch order within a shard) — both pure functions of the seed,
// never of the thread count.
LEVA_TARGET_CLONES
void MergeShardUpdates(std::vector<ShardUpdate>* updates, size_t dim,
                       Matrix* node, Matrix* context) {
  for (ShardUpdate& u : *updates) {
    for (size_t i = 0; i < u.node.rows.size(); ++i) {
      simd::VecAddDelta(node->RowPtr(u.node.rows[i]),
                        u.node.cur.data() + i * dim,
                        u.node.orig.data() + i * dim, dim);
    }
    for (size_t i = 0; i < u.ctx.rows.size(); ++i) {
      simd::VecAddDelta(context->RowPtr(u.ctx.rows[i]),
                        u.ctx.cur.data() + i * dim,
                        u.ctx.orig.data() + i * dim, dim);
    }
  }
}

// Per-worker buffers of the skip-gram kernel.
struct SentenceScratch {
  std::vector<uint32_t> kept;
  std::vector<double> grad;
  std::vector<uint32_t> negs;

  explicit SentenceScratch(const Word2VecOptions& options)
      : grad(options.dim), negs(options.negative) {}
};

// The skip-gram SGD kernel over the subsampled sentence in scratch->kept.
// Position pos takes learning-rate step base_step + pos + 1. `rows` decides how weight rows are
// reached (SharedRows or ShardUpdate); context rows are first resolved to
// slots — which may grow a shard's row arena — and only then to pointers.
// Always inlined into the two entry points below, whose attributes (ISA
// clones, the Hogwild TSan exemption) then apply to its loops.
template <typename Rows>
LEVA_ALWAYS_INLINE void TrainSentence(const Word2VecOptions& options,
                                      const TrainPlan& plan,
                                      size_t base_step, Rng* r, Rows* rows,
                                      SentenceScratch* scratch) {
  const size_t dim = options.dim;
  const std::vector<uint32_t>& kept = scratch->kept;
  double* g = scratch->grad.data();
  uint32_t* negs = scratch->negs.data();
  for (size_t pos = 0; pos < kept.size(); ++pos) {
    const size_t step = base_step + pos + 1;
    const double lr =
        options.learning_rate *
        std::max(1e-4, 1.0 - static_cast<double>(step) /
                                 static_cast<double>(plan.total_steps));
    // Dynamic window shrink, as in the reference implementation.
    const size_t shrink = r->UniformInt(options.window) + 1;
    const size_t begin = pos >= shrink ? pos - shrink : 0;
    const size_t end = std::min(kept.size(), pos + shrink + 1);
    const uint32_t center = kept[pos];
    for (size_t cpos = begin; cpos < end; ++cpos) {
      if (cpos == pos) continue;
      const uint32_t ctx = kept[cpos];
      // Node and context rows live in separate arenas, so resolving context
      // slots below never moves the center row.
      double* center_vec = rows->NodeRow(center);
      // Draw the pair's negatives up front — the same draws in the same
      // order as the reference's interleaved sampling — and assemble the
      // pair's target list: the positive context first, then every negative
      // that differs from it (the reference skips those).
      for (size_t k = 0; k < options.negative; ++k) {
        negs[k] = plan.negatives.Sample(r);
      }
      uint32_t tids[kMaxDotBatch];
      double* targets[kMaxDotBatch];
      double dots[kMaxDotBatch];
      size_t nt = 0;
      bool distinct = options.negative < kMaxDotBatch;
      if (distinct) {
        tids[nt++] = ctx;
        for (size_t k = 0; k < options.negative; ++k) {
          const uint32_t t = negs[k];
          if (t == ctx) continue;
          for (size_t i = 1; i < nt; ++i) distinct &= (tids[i] != t);
          tids[nt++] = t;
        }
      }
      if (distinct) {
        // All targets hit distinct context rows, so no update in this pair
        // feeds a later dot: compute every dot up front with the interleaved
        // batch kernel (bit-identical sums, ~one dot-chain's latency), then
        // apply the updates in the reference order. k == 0 initializes the
        // gradient buffer in-kernel, so no std::fill per pair.
        for (size_t t = 0; t < nt; ++t) tids[t] = rows->ContextSlot(tids[t]);
        for (size_t t = 0; t < nt; ++t) targets[t] = rows->ContextRow(tids[t]);
        simd::DotBatch(center_vec, targets, nt, dim, dots);
        for (size_t t = 0; t < nt; ++t) {
          const double label = t == 0 ? 1.0 : 0.0;
          const double gcoef = (label - Sigmoid(dots[t])) * lr;
          if (t == 0) {
            simd::SkipGramInit(gcoef, center_vec, targets[t], g, dim);
          } else {
            simd::SkipGramAccum(gcoef, center_vec, targets[t], g, dim);
          }
        }
      } else {
        // A repeated negative row (or an oversized batch): fall back to the
        // reference's serial interleaving, where each dot sees all earlier
        // updates of this pair.
        for (size_t k = 0; k <= options.negative; ++k) {
          uint32_t target;
          double label;
          if (k == 0) {
            target = ctx;
            label = 1.0;
          } else {
            target = negs[k - 1];
            if (target == ctx) continue;
            label = 0.0;
          }
          double* target_vec = rows->ContextRow(rows->ContextSlot(target));
          const double dot = simd::Dot(center_vec, target_vec, dim);
          const double gcoef = (label - Sigmoid(dot)) * lr;
          if (k == 0) {
            simd::SkipGramInit(gcoef, center_vec, target_vec, g, dim);
          } else {
            simd::SkipGramAccum(gcoef, center_vec, target_vec, g, dim);
          }
        }
      }
      simd::VecAdd(center_vec, g, dim);
    }
  }
}

// Sequential and Hogwild entry point. Under Hogwild the reads and writes of
// shared rows are intentionally unsynchronized (sparse updates collide
// rarely), so this instantiation alone is exempt from TSan.
LEVA_TARGET_CLONES
LEVA_NO_SANITIZE_THREAD
void TrainSentenceShared(const Word2VecOptions& options, const TrainPlan& plan,
                         size_t base_step, Rng* r, SharedRows rows,
                         SentenceScratch* scratch) {
  TrainSentence(options, plan, base_step, r, &rows, scratch);
}

// Deterministic-shard entry point: shared rows are only read (frozen for the
// round), so it stays TSan-instrumented.
LEVA_TARGET_CLONES
void TrainSentenceShard(const Word2VecOptions& options, const TrainPlan& plan,
                        size_t base_step, Rng* r, ShardUpdate* rows,
                        SentenceScratch* scratch) {
  TrainSentence(options, plan, base_step, r, rows, scratch);
}

// Deterministic-parallel trainer: shards of kSentenceGrain sentences train
// against the weights frozen at the start of a kDetRound-sentence round,
// each shard doing plain sequential SGD on private row copies; the shard
// deltas merge in fixed shard order at the round barrier. Output is a pure
// function of (corpus, seed) at any thread count.
Status TrainDeterministic(const Word2VecOptions& options,
                          const FlatCorpus& corpus, const TrainPlan& plan,
                          size_t threads, Rng* rng, Matrix* node,
                          Matrix* context) {
  const size_t dim = options.dim;
  const size_t num_sentences = corpus.size();
  const auto& offsets = corpus.offsets();
  const size_t shards_per_epoch =
      (num_sentences + kSentenceGrain - 1) / kSentenceGrain;
  const uint64_t base_seed = rng->Next();

  // Round size scales with the corpus (roughly eight merge rounds per epoch,
  // capped at kDetRound): a corpus smaller than ~8 shards runs one shard per
  // round, which is plain sequential SGD with periodic (no-op) merges, while
  // large corpora amortize the barrier over the full 16-shard round. A pure
  // function of the corpus size — never of the thread count — so the output
  // stays thread-count invariant.
  const size_t round_size =
      std::clamp<size_t>(num_sentences / (8 * kSentenceGrain), 1,
                         kDetRound / kSentenceGrain) *
      kSentenceGrain;

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t rb = 0; rb < num_sentences; rb += round_size) {
      const size_t re = std::min(num_sentences, rb + round_size);
      const size_t round_shards =
          (re - rb + kSentenceGrain - 1) / kSentenceGrain;
      std::vector<ShardUpdate> updates(round_shards);

      // Workers only READ node/context (frozen for the round) and write
      // shard-private state, so this is race-free by construction; the merge
      // below happens after the ParallelFor barrier.
      ParallelFor(threads, rb, re, kSentenceGrain, [&](size_t b, size_t e) {
        ShardUpdate& u = updates[(b - rb) / kSentenceGrain];
        u.node_src = node;
        u.context_src = context;
        u.dim = dim;
        Rng shard_rng =
            StreamRng(base_seed, rngdomain::kWord2VecDet,
                      epoch * shards_per_epoch + b / kSentenceGrain);
        SentenceScratch scratch(options);
        for (size_t s = b; s < e; ++s) {
          Subsample(plan, corpus[s], &shard_rng, &scratch.kept);
          // The learning-rate step is derived from the sentence's raw token
          // offset in the flat corpus — a pure function of (epoch, sentence,
          // position), never of execution order.
          TrainSentenceShard(options, plan,
                             epoch * plan.total_tokens + offsets[s],
                             &shard_rng, &u, &scratch);
        }
      });

      MergeShardUpdates(&updates, dim, node, context);
    }
  }
  return Status::OK();
}

}  // namespace

Status Word2Vec::Train(const FlatCorpus& corpus, size_t vocab_size, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng is required");
  if (vocab_size == 0) return Status::InvalidArgument("empty vocabulary");
  const size_t dim = options_.dim;

  // Token frequencies drive both subsampling and the negative distribution.
  // The flat layout makes this a single streaming pass.
  std::vector<double> freq(vocab_size, 0.0);
  for (const uint32_t t : corpus.tokens()) {
    if (t >= vocab_size) return Status::OutOfRange("token id exceeds vocab size");
    freq[t] += 1.0;
  }
  const size_t total_tokens = corpus.num_tokens();
  if (total_tokens == 0) return Status::InvalidArgument("empty corpus");

  const TrainPlan plan = MakePlan(freq, total_tokens, options_);
  if (warm_) {
    // Warm start: adopt the staged node vectors, random-init only the new
    // vocabulary tail (same draw as a cold start would give those rows),
    // zero context — continuing SGD from a fitted model.
    const Matrix warm = std::move(warm_node_);
    warm_node_ = Matrix();
    warm_ = false;
    if (warm.cols() != dim) {
      return Status::InvalidArgument(
          "warm-start matrix has dim " + std::to_string(warm.cols()) +
          ", expected " + std::to_string(dim));
    }
    if (warm.rows() > vocab_size) {
      return Status::InvalidArgument(
          "warm-start matrix has " + std::to_string(warm.rows()) +
          " rows but vocab size is " + std::to_string(vocab_size));
    }
    node_ = Matrix(vocab_size, dim);
    context_ = Matrix(vocab_size, dim);
    if (warm.rows() > 0) {
      std::copy(warm.data().begin(), warm.data().end(),
                node_.mutable_data().begin());
    }
    for (size_t i = warm.rows(); i < vocab_size; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        node_(i, j) = (rng->Uniform() - 0.5) / static_cast<double>(dim);
      }
    }
  } else {
    InitWeights(vocab_size, dim, rng, &node_, &context_);
  }

  const size_t threads = ResolveThreads(options_.threads);
  if (options_.deterministic) {
    return TrainDeterministic(options_, corpus, plan, threads, rng, &node_,
                              &context_);
  }

  // Global position in the learning-rate schedule, batched from per-token to
  // per-sentence: one relaxed fetch_add covers a sentence's kept tokens, and
  // each position derives its step from the returned base — the sequential
  // path sees exactly the per-token step values of the reference trainer.
  std::atomic<size_t> steps{0};
  const SharedRows rows{&node_, &context_};
  auto train_sentences = [&](size_t b, size_t e, Rng* r) {
    SentenceScratch scratch(options_);
    for (size_t s = b; s < e; ++s) {
      Subsample(plan, corpus[s], r, &scratch.kept);
      const size_t base =
          steps.fetch_add(scratch.kept.size(), std::memory_order_relaxed);
      TrainSentenceShared(options_, plan, base, r, rows, &scratch);
    }
  };

  if (threads <= 1) {
    // Sequential update order: bit-identical to the reference trainer in
    // tests/reference/word2vec_reference.cc (pinned in
    // tests/word2vec_test.cc).
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      train_sentences(0, corpus.size(), rng);
    }
    return Status::OK();
  }

  // Hogwild: shard sentences across the pool with a per-shard RNG stream.
  // The stream layout (base seed, epoch, shard) is thread-count invariant,
  // but the unsynchronized weight updates are not — see Word2VecOptions.
  const uint64_t base_seed = rng->Next();
  const size_t shards = (corpus.size() + kSentenceGrain - 1) / kSentenceGrain;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    ParallelFor(threads, 0, corpus.size(), kSentenceGrain,
                [&](size_t b, size_t e) {
                  Rng shard_rng = StreamRng(base_seed, rngdomain::kWord2Vec,
                                            epoch * shards + b / kSentenceGrain);
                  train_sentences(b, e, &shard_rng);
                });
  }
  return Status::OK();
}

}  // namespace leva
