// Skip-gram SGNS oracles for Word2Vec::Train. Both are written out with
// scalar loops, their own sigmoid table and their own training plan, and
// sample every negative interleaved with the updates of its pair (the
// classic word2vec order), so they share nothing with the production kernel
// but the options struct and the RNG. Single-threaded by design; never used
// outside tests.
#ifndef LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "embed/corpus.h"
#include "embed/word2vec.h"
#include "la/matrix.h"

namespace leva {

/// Trained node (input) and context (output) vectors, vocab_size x dim.
struct ReferenceEmbedding {
  Matrix node;
  Matrix context;
};

/// Sequential SGNS in classic SGD order: what Word2Vec::Train must produce
/// with threads <= 1 and deterministic == false, for the same `rng` state.
/// `options.threads` and `options.deterministic` are ignored.
Result<ReferenceEmbedding> ReferenceTrainSequential(
    const FlatCorpus& corpus, size_t vocab_size, const Word2VecOptions& options,
    Rng* rng);

/// Deterministic-shard SGNS: what Word2Vec::Train must produce with
/// deterministic == true at any thread count. Sentences are cut into
/// 64-sentence shards and rounds of up to 16 shards; every shard of a round
/// trains sequentially on its own copy of the round-start weights, and the
/// shards' weight deltas are added back in shard order at the round end.
/// `options.threads` and `options.deterministic` are ignored.
Result<ReferenceEmbedding> ReferenceTrainDeterministic(
    const FlatCorpus& corpus, size_t vocab_size, const Word2VecOptions& options,
    Rng* rng);

/// Asserts that Word2Vec with `options.deterministic = true` at 1, 2, 4 and
/// 8 threads reproduces ReferenceTrainDeterministic bit for bit on `corpus`
/// for `seed`.
void ExpectDeterministicMatchesReference(const FlatCorpus& corpus,
                                         size_t vocab_size,
                                         Word2VecOptions options,
                                         uint64_t seed);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_
