// Skip-gram SGNS oracle for Word2Vec::Train. It is written out with scalar
// fp32 loops (the dot as eight explicit accumulators), its own sigmoid table
// and its own training plan, keeps full-matrix shard copies, and samples
// every negative interleaved with the updates of its pair (the classic
// word2vec order), so it shares nothing with the production kernel but the
// options struct and the RNG. Single-threaded by design; never used outside
// tests.
#ifndef LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "embed/corpus.h"
#include "embed/word2vec.h"
#include "la/matrix.h"

namespace leva {

/// Flattens a nested sentence corpus into the FlatCorpus Train reads.
inline FlatCorpus Flatten(const std::vector<std::vector<uint32_t>>& nested) {
  FlatCorpus flat;
  size_t tokens = 0;
  for (const auto& s : nested) tokens += s.size();
  flat.Reserve(nested.size(), tokens);
  for (const auto& s : nested) flat.AppendSentence({s.data(), s.size()});
  return flat;
}

/// Trained node (input) and context (output) vectors, vocab_size x dim,
/// widened from the fp32 rows they trained as.
struct ReferenceEmbedding {
  Matrix node;
  Matrix context;
};

/// Sharded SGNS: what Word2Vec::Train must produce at any thread count.
/// Sentences are cut into shards of max(64, ceil(8 * types / mean sentence
/// length)) sentences, where `types` counts the distinct corpus tokens, and
/// the shards into rounds of clamp(shards per epoch / 8, 1, 4) shards. Every
/// shard of a round trains sequentially on its own copy of the round-start
/// fp32 weights, and the shards' weight deltas are added back in shard order
/// at the round end: node rows summed, each context row's delta divided by
/// the number of the round's shards that touched that row. The only shard
/// of a round trains on the weights in place. Node rows start as
/// (U(0,1) - 0.5) / dim rounded to fp32. `options.threads` is ignored.
Result<ReferenceEmbedding> ReferenceTrainDeterministic(
    const FlatCorpus& corpus, size_t vocab_size, const Word2VecOptions& options,
    Rng* rng);

/// Asserts that Word2Vec at 1, 2, 4 and 8 threads reproduces
/// ReferenceTrainDeterministic bit for bit on `corpus` for `seed`.
void ExpectDeterministicMatchesReference(const FlatCorpus& corpus,
                                         size_t vocab_size,
                                         Word2VecOptions options,
                                         uint64_t seed);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_WORD2VEC_REFERENCE_H_
