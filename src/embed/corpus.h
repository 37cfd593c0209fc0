#ifndef LEVA_EMBED_CORPUS_H_
#define LEVA_EMBED_CORPUS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace leva {

/// Flat sentence corpus: one contiguous uint32 token buffer plus a
/// sentence-offsets array (sentence i spans [offsets()[i], offsets()[i+1])).
/// This is the interchange format between walk generation and Word2Vec
/// training — a single allocation that grows amortized instead of one heap
/// vector per walk, and a layout the training loops can stream through
/// without pointer chasing.
///
/// Building is append-oriented: push tokens, then EndSentence() to close the
/// current sentence (empty sentences are dropped, matching the legacy nested
/// corpus which never stored empty walks).
class FlatCorpus {
 public:
  /// Number of sentences.
  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }
  /// Total tokens across all sentences.
  size_t num_tokens() const { return tokens_.size(); }

  /// Sentence `i` as a span over the shared token buffer.
  std::span<const uint32_t> operator[](size_t i) const {
    return {tokens_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  const std::vector<uint32_t>& tokens() const { return tokens_; }
  /// size() + 1 entries; offsets()[0] == 0, offsets()[size()] == num_tokens().
  const std::vector<size_t>& offsets() const { return offsets_; }

  void Reserve(size_t sentences, size_t tokens) {
    offsets_.reserve(sentences + 1);
    tokens_.reserve(tokens);
  }

  /// Appends one token to the sentence currently being built.
  void PushToken(uint32_t t) { tokens_.push_back(t); }

  /// Closes the sentence under construction. Returns false (and stores
  /// nothing) when no tokens were pushed since the last close.
  bool EndSentence() {
    if (tokens_.size() == offsets_.back()) return false;
    offsets_.push_back(tokens_.size());
    return true;
  }

  /// Appends a whole sentence; empty spans are dropped.
  void AppendSentence(std::span<const uint32_t> sentence) {
    tokens_.insert(tokens_.end(), sentence.begin(), sentence.end());
    EndSentence();
  }

 private:
  std::vector<uint32_t> tokens_;
  std::vector<size_t> offsets_ = {0};
};

}  // namespace leva

#endif  // LEVA_EMBED_CORPUS_H_
