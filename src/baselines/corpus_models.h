#ifndef LEVA_BASELINES_CORPUS_MODELS_H_
#define LEVA_BASELINES_CORPUS_MODELS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/embedding_model.h"
#include "embed/word2vec.h"
#include "text/textifier.h"

namespace leva {

/// The Table 5 "Word2Vec" baseline: textifies every row into sentences (its
/// cells in column order, then shuffled) and trains word embeddings directly,
/// losing the relational structure. Rows are featurized as the mean of their
/// token vectors, whose common component Fit removes.
class DirectWord2VecModel : public RowwiseEmbeddingModel {
 public:
  DirectWord2VecModel(Word2VecOptions w2v, TextifyOptions textify,
                      uint64_t seed)
      : w2v_options_(w2v), textify_options_(textify), seed_(seed) {}

  Status Fit(const Database& db) override;
  size_t dim() const override { return embedding_.dim(); }
  const Embedding& embedding() const override { return embedding_; }

 protected:
  Result<std::vector<double>> RowVector(const Table& table, size_t row,
                                        const std::string& target_column,
                                        bool rows_in_graph) const override;
  /// Token weight used when averaging (1.0 here; DeepER overrides with IDF).
  virtual double TokenWeight(const std::string&) const { return 1.0; }

  Word2VecOptions w2v_options_;
  TextifyOptions textify_options_;
  uint64_t seed_;
  Textifier textifier_;
  Embedding embedding_;  // token -> vector
  std::unordered_map<std::string, double> token_row_freq_;
  size_t total_rows_ = 0;
};

/// DeepER-style tuple embeddings (Ebraheem et al., VLDB 2018): token vectors
/// from the same corpus, composed per tuple with IDF weighting so rare
/// (discriminative) tokens dominate the tuple representation.
class DeeperModel : public DirectWord2VecModel {
 public:
  using DirectWord2VecModel::DirectWord2VecModel;

 protected:
  double TokenWeight(const std::string& token) const override;
};

}  // namespace leva

#endif  // LEVA_BASELINES_CORPUS_MODELS_H_
