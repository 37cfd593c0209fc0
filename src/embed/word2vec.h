#ifndef LEVA_EMBED_WORD2VEC_H_
#define LEVA_EMBED_WORD2VEC_H_

#include <cstddef>

#include "common/result.h"
#include "common/rng.h"
#include "embed/corpus.h"
#include "la/matrix.h"

namespace leva {

/// Skip-gram with negative sampling (Mikolov et al. 2013), trained over a
/// corpus of uint32 token-id sentences (typically random walks). Produces a
/// node embedding (input vectors) and a context embedding, the pair that
/// approximates the proximity matrix of Section 4.2.
struct Word2VecOptions {
  size_t dim = 100;
  size_t window = 5;
  size_t negative = 5;
  /// Frequent-token subsampling threshold; the paper's "negative sampling
  /// rate" setting (1e-3).
  double subsample = 1e-3;
  double learning_rate = 0.025;
  size_t epochs = 3;
  /// Unigram distortion exponent for the negative-sampling distribution.
  double unigram_power = 0.75;
  /// Worker threads (0 = every CPU in the process's affinity mask, see
  /// ResolveThreads). Only where the work runs: the trained vectors are a
  /// pure function of the corpus, options and seed at any thread count.
  size_t threads = 1;
};

class Word2Vec {
 public:
  explicit Word2Vec(Word2VecOptions options = {}) : options_(options) {}

  /// Trains on `corpus`; token ids must be < vocab_size. The weights train
  /// as fp32 rows (dots in a fixed 8-lane order, simd::Dot) and are widened
  /// to the fp64 matrices below once, at the end. Sentences are cut into
  /// shards and the shards into merge rounds; every shard of a round runs
  /// plain sequential SGD on private copies of the weights frozen at the
  /// round start, and the shards' weight deltas are merged back in shard
  /// order at the round barrier: node-row deltas summed, each context-row
  /// delta divided by the number of the round's shards that touched that
  /// row (a round's only shard trains in place). Shard and round sizes
  /// depend on the corpus alone, never on `threads`, so any thread count
  /// gives the same bits. The schedule is pinned to the oracle in
  /// tests/reference/word2vec_reference.h.
  Status Train(const FlatCorpus& corpus, size_t vocab_size, Rng* rng);

  /// Stages `node` as the initial node-vector matrix for the NEXT Train
  /// call (the streaming-update warm start: continue SGNS from a previously
  /// fitted embedding instead of random init). Rows 0..node.rows() are
  /// adopted rounded to fp32 (exact for rows this trainer produced); rows
  /// past them — new vocabulary — are initialized by the standard
  /// (U(0,1)-0.5)/dim draw, and the context matrix starts at zero exactly as
  /// a cold start does. Consumed by that Train, whether it succeeds or fails
  /// (a second Train cold-starts again); `node.cols()` must equal
  /// options().dim and rows() must not exceed the trained vocab_size,
  /// checked at Train time.
  void WarmStart(Matrix node) {
    warm_node_ = std::move(node);
    warm_ = true;
  }

  /// Input ("node") vectors, vocab_size x dim.
  const Matrix& node_vectors() const { return node_; }
  /// Output ("context") vectors.
  const Matrix& context_vectors() const { return context_; }

  const Word2VecOptions& options() const { return options_; }

 private:
  Word2VecOptions options_;
  Matrix node_;
  Matrix context_;
  Matrix warm_node_;  // staged by WarmStart, consumed by the next Train
  bool warm_ = false;
};

}  // namespace leva

#endif  // LEVA_EMBED_WORD2VEC_H_
