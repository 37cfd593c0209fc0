#include "embed/word2vec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/parallel.h"
#include "common/simd.h"
#include "graph/alias.h"

namespace leva {
namespace {

// Precomputed sigmoid over [-kMaxExp, kMaxExp], the classic word2vec trick.
constexpr int kExpTableSize = 1000;
constexpr double kMaxExp = 6.0;

// Stack capacity for a skip-gram pair's target list (positive + negatives).
// `negative` options at or beyond this fall back to the serial reference
// interleaving.
constexpr size_t kMaxPairTargets = 16;

// The shard schedule. Every shard copies each weight row it touches and
// merges it back, and a shard's negatives reach nearly every token type of
// the corpus, so a shard costs about one pass over the corpus's rows whatever
// its length. Sizing a shard to at least kShardTokensPerType tokens per
// token type keeps that copy a small share of the shard's training;
// kMinShardSentences keeps tiny-vocabulary corpora from being cut into
// shards of a handful of sentences.
constexpr size_t kMinShardSentences = 64;
constexpr size_t kShardTokensPerType = 8;
// Shards within a round train against the weights frozen at the round start,
// so the size of a round bounds the staleness. A round holds up to
// kMaxRoundShards shards, and fewer on a corpus of under kMinRoundsPerEpoch
// full rounds per epoch, so each round stays a small slice of the epoch.
constexpr size_t kMaxRoundShards = 4;
constexpr size_t kMinRoundsPerEpoch = 8;

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
  size_t types = 0;  // distinct tokens of the corpus
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
    plan.types += freq[i] > 0;
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

// The trainer's working form of a weight matrix: vocab x dim fp32 rows,
// row-major, zero-initialized. Train narrows its inputs into this form and
// widens the result back to fp64 once, at the end.
struct Weights {
  size_t rows;
  size_t dim;
  std::vector<float> data;

  Weights(size_t rows, size_t dim)
      : rows(rows), dim(dim), data(rows * dim, 0.0f) {}
  float* Row(size_t i) { return data.data() + i * dim; }
  const float* Row(size_t i) const { return data.data() + i * dim; }
  // The fp64 matrix of the same values (exact). Frees the fp32 rows, so
  // widening the second matrix does not also hold the first one's fp32 rows.
  Matrix Widen() && {
    Matrix m(rows, dim);
    std::copy(data.begin(), data.end(), m.mutable_data().begin());
    std::vector<float>().swap(data);
    return m;
  }
};

// The cold-start draw of node rows first..rows: (U(0,1) - 0.5) / dim,
// computed in fp64 and rounded to fp32, consuming rng in row-major order.
void InitNodeRows(size_t first, Rng* rng, Weights* node) {
  const size_t dim = node->dim;
  for (size_t i = first; i < node->rows; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      node->Row(i)[j] = static_cast<float>((rng->Uniform() - 0.5) /
                                           static_cast<double>(dim));
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

// Sentences per shard and shards per round: a pure function of the corpus,
// never of the thread count, so the output is thread-count invariant.
struct ShardSchedule {
  size_t shard_sentences = 0;
  size_t round_shards = 0;
};

ShardSchedule MakeSchedule(size_t sentences, const TrainPlan& plan) {
  ShardSchedule schedule;
  // ceil(kShardTokensPerType * types / mean sentence length).
  schedule.shard_sentences = std::max(
      kMinShardSentences,
      (kShardTokensPerType * plan.types * sentences + plan.total_tokens - 1) /
          plan.total_tokens);
  const size_t shards =
      (sentences + schedule.shard_sentences - 1) / schedule.shard_sentences;
  schedule.round_shards =
      std::clamp<size_t>(shards / kMinRoundsPerEpoch, 1, kMaxRoundShards);
  return schedule;
}

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

// Copy-on-first-touch rows of one weight matrix that one shard updates.
// `cur` holds the shard's working copies (plain sequential SGD within the
// shard) and, once the shard is done, their deltas against the frozen
// source. `slot` maps a row id to its copy; first-touch order is recorded in
// `rows` and is a pure function of the shard's sentences, making the merge
// order thread-count invariant. The arenas live across rounds, so their
// capacity is reused.
struct ShardRows {
  std::vector<uint32_t> slot;  // vocab-sized, kNoSlot where untouched
  std::vector<uint32_t> rows;
  std::vector<float> cur;

  // Forgets the previous shard's rows, resetting only the slots it set.
  void Clear() {
    for (const uint32_t row : rows) slot[row] = kNoSlot;
    rows.clear();
    cur.clear();
  }
  // Slot of `row`, copying it in on first touch. May grow the arena, which
  // invalidates every pointer previously returned by Row.
  uint32_t Touch(const Weights& m, uint32_t row, size_t dim) {
    uint32_t s = slot[row];
    if (s == kNoSlot) {
      s = static_cast<uint32_t>(rows.size());
      slot[row] = s;
      rows.push_back(row);
      const float* src = m.Row(row);
      cur.insert(cur.end(), src, src + dim);
    }
    return s;
  }
  float* Row(uint32_t s, size_t dim) {
    return cur.data() + static_cast<size_t>(s) * dim;
  }
};

// Row access of one shard: reads the weights frozen at the round start,
// writes private copies merged at the round barrier. The only shard of a
// round has no one to be isolated from, so it trains on the shared rows in
// place (`in_place`), with no copy, delta or merge.
struct ShardUpdate {
  Weights* node_src = nullptr;
  Weights* context_src = nullptr;
  size_t dim = 0;
  bool in_place = false;
  ShardRows node;
  ShardRows ctx;

  float* NodeRow(uint32_t row) {
    if (in_place) return node_src->Row(row);
    return node.Row(node.Touch(*node_src, row, dim), dim);
  }
  uint32_t ContextSlot(uint32_t row) {
    return in_place ? row : ctx.Touch(*context_src, row, dim);
  }
  float* ContextRow(uint32_t s) {
    return in_place ? context_src->Row(s) : ctx.Row(s, dim);
  }
};

// Turns a finished shard's row copies into deltas, cur -= src. The sources
// are frozen for the round, so every shard does this in parallel before the
// barrier, and the merge adds exactly the cur - src it would have computed.
LEVA_TARGET_CLONES
void ShardDeltas(ShardUpdate* u) {
  const size_t dim = u->dim;
  for (size_t i = 0; i < u->node.rows.size(); ++i) {
    simd::VecSub(u->node.cur.data() + i * dim,
                 u->node_src->Row(u->node.rows[i]), dim);
  }
  for (size_t i = 0; i < u->ctx.rows.size(); ++i) {
    simd::VecSub(u->ctx.cur.data() + i * dim,
                 u->context_src->Row(u->ctx.rows[i]), dim);
  }
}

// Merges a round's shard deltas in fixed sentence-shard order (and
// row-first-touch order within a shard) — both pure functions of the seed,
// never of the thread count. Node-row deltas are summed. A context row's
// delta is divided by the number of the round's shards that touched the
// row: every shard computed its delta from the same round-start rows, and
// on a hub row (one nearly every shard draws as a positive or a negative)
// those deltas point the same way, so their plain sum overshoots R-fold in
// an R-shard round and can diverge. The shards' slot indexes still hold
// their touched rows here (a shard clears them when it next starts), so the
// count is a pure function of the shards' sentences too.
LEVA_TARGET_CLONES
void MergeShardUpdates(std::span<ShardUpdate> updates, size_t dim,
                       Weights* node, Weights* context) {
  for (ShardUpdate& u : updates) {
    for (size_t i = 0; i < u.node.rows.size(); ++i) {
      simd::VecAdd(node->Row(u.node.rows[i]), u.node.cur.data() + i * dim,
                   dim);
    }
    for (size_t i = 0; i < u.ctx.rows.size(); ++i) {
      const uint32_t row = u.ctx.rows[i];
      size_t touches = 0;
      for (const ShardUpdate& v : updates) {
        touches += v.ctx.slot[row] != kNoSlot;
      }
      simd::VecAddDiv(context->Row(row), u.ctx.cur.data() + i * dim,
                      static_cast<float>(touches), dim);
    }
  }
}

// Per-worker buffers of the skip-gram kernel.
struct SentenceScratch {
  std::vector<uint32_t> kept;
  std::vector<float> grad;
  std::vector<uint32_t> negs;

  explicit SentenceScratch(const Word2VecOptions& options)
      : grad(options.dim), negs(options.negative) {}
};

// The skip-gram SGD kernel over the subsampled sentence in scratch->kept,
// on one shard's rows. Position pos takes learning-rate step
// base_step + pos + 1. Context rows are first resolved to slots — which may
// grow the shard's row arena — and only then to pointers.
LEVA_TARGET_CLONES
void TrainSentenceShard(const Word2VecOptions& options, const TrainPlan& plan,
                        size_t base_step, Rng* r, ShardUpdate* rows,
                        SentenceScratch* scratch) {
  const size_t dim = options.dim;
  const std::vector<uint32_t>& kept = scratch->kept;
  float* g = scratch->grad.data();
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
      float* center_vec = rows->NodeRow(center);
      // Draw the pair's negatives up front — the same draws in the same
      // order as the reference's interleaved sampling — and assemble the
      // pair's target list: the positive context first, then every negative
      // that differs from it (the reference skips those).
      for (size_t k = 0; k < options.negative; ++k) {
        negs[k] = plan.negatives.Sample(r);
      }
      uint32_t tids[kMaxPairTargets];
      float* targets[kMaxPairTargets];
      float dots[kMaxPairTargets];
      size_t nt = 0;
      bool distinct = options.negative < kMaxPairTargets;
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
        // feeds a later dot: compute every dot up front in one pass over the
        // center row, then apply all the updates in one more, the gradient
        // held in a register — the same bits as the serial loop below
        // (EXPERIMENTS.md "Fused SGNS pair kernel").
        for (size_t t = 0; t < nt; ++t) tids[t] = rows->ContextSlot(tids[t]);
        for (size_t t = 0; t < nt; ++t) targets[t] = rows->ContextRow(tids[t]);
        simd::PairDots(center_vec, targets, nt, dots, dim);
        float gcoefs[kMaxPairTargets];
        for (size_t t = 0; t < nt; ++t) {
          const double label = t == 0 ? 1.0 : 0.0;
          gcoefs[t] = static_cast<float>((label - Sigmoid(dots[t])) * lr);
        }
        simd::PairUpdate(center_vec, targets, gcoefs, nt, dim);
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
          float* target_vec = rows->ContextRow(rows->ContextSlot(target));
          const float dot = simd::Dot(center_vec, target_vec, dim);
          const float gcoef = static_cast<float>((label - Sigmoid(dot)) * lr);
          if (k == 0) {
            simd::SkipGramInit(gcoef, center_vec, target_vec, g, dim);
          } else {
            simd::SkipGramAccum(gcoef, center_vec, target_vec, g, dim);
          }
        }
        simd::VecAdd(center_vec, g, dim);
      }
    }
  }
}

// Shards of a round train against the weights frozen at the round start,
// each doing plain sequential SGD on private row copies; the shard deltas
// merge in fixed shard order at the round barrier. Output is a pure
// function of (corpus, seed) at any thread count.
void TrainShards(const Word2VecOptions& options, const FlatCorpus& corpus,
                 const TrainPlan& plan, size_t threads, Rng* rng,
                 Weights* node, Weights* context) {
  const size_t num_sentences = corpus.size();
  const auto& offsets = corpus.offsets();
  const ShardSchedule schedule = MakeSchedule(num_sentences, plan);
  const size_t grain = schedule.shard_sentences;
  const size_t round_size = schedule.round_shards * grain;
  const size_t shards_per_epoch = (num_sentences + grain - 1) / grain;
  const uint64_t base_seed = rng->Next();

  // One arena set per shard of a round, reused by every round.
  const size_t vocab_size = node->rows;
  std::vector<ShardUpdate> updates(schedule.round_shards);
  for (ShardUpdate& u : updates) {
    u.node_src = node;
    u.context_src = context;
    u.dim = options.dim;
    u.node.slot.assign(vocab_size, kNoSlot);
    u.ctx.slot.assign(vocab_size, kNoSlot);
  }
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t rb = 0; rb < num_sentences; rb += round_size) {
      const size_t re = std::min(num_sentences, rb + round_size);
      const size_t round_shards = (re - rb + grain - 1) / grain;
      // With several shards, workers only READ node/context (frozen for the
      // round) and write shard-private state, so this is race-free by
      // construction; the merge below happens after the ParallelFor barrier.
      // A one-shard round runs inline on this thread.
      ParallelFor(threads, rb, re, grain, [&](size_t b, size_t e) {
        ShardUpdate& u = updates[(b - rb) / grain];
        u.in_place = round_shards == 1;
        u.node.Clear();
        u.ctx.Clear();
        Rng shard_rng = StreamRng(base_seed, rngdomain::kWord2VecDet,
                                  epoch * shards_per_epoch + b / grain);
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
        if (!u.in_place) ShardDeltas(&u);
      });
      if (round_shards > 1) {
        MergeShardUpdates({updates.data(), round_shards}, options.dim, node,
                          context);
      }
    }
  }
}

}  // namespace

Status Word2Vec::Train(const FlatCorpus& corpus, size_t vocab_size, Rng* rng) {
  // A staged warm start belongs to this call, whether it succeeds or not.
  const bool warm = std::exchange(warm_, false);
  Matrix warm_node = std::exchange(warm_node_, Matrix());
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
  Weights node(vocab_size, dim);
  Weights context(vocab_size, dim);  // zero, cold or warm
  size_t first_drawn = 0;
  if (warm) {
    // Warm start: adopt the staged node vectors (rounded to fp32) and
    // random-init only the new vocabulary tail, the same draw a cold start
    // gives those rows — continuing SGD from a fitted model.
    if (warm_node.cols() != dim) {
      return Status::InvalidArgument(
          "warm-start matrix has dim " + std::to_string(warm_node.cols()) +
          ", expected " + std::to_string(dim));
    }
    if (warm_node.rows() > vocab_size) {
      return Status::InvalidArgument(
          "warm-start matrix has " + std::to_string(warm_node.rows()) +
          " rows but vocab size is " + std::to_string(vocab_size));
    }
    std::transform(warm_node.data().begin(), warm_node.data().end(),
                   node.data.begin(),
                   [](double v) { return static_cast<float>(v); });
    first_drawn = warm_node.rows();
    warm_node = Matrix();  // narrowed: free the fp64 copy before training
  }
  InitNodeRows(first_drawn, rng, &node);

  TrainShards(options_, corpus, plan, ResolveThreads(options_.threads), rng,
              &node, &context);
  node_ = std::move(node).Widen();
  context_ = std::move(context).Widen();
  return Status::OK();
}

}  // namespace leva
