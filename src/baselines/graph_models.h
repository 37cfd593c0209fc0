#ifndef LEVA_BASELINES_GRAPH_MODELS_H_
#define LEVA_BASELINES_GRAPH_MODELS_H_

#include <string>
#include <vector>

#include "baselines/embedding_model.h"
#include "embed/walks.h"
#include "embed/word2vec.h"
#include "graph/graph.h"
#include "text/textifier.h"

namespace leva {

/// Table 5 "Node2Vec" baseline: a graph built purely on syntactic token
/// sharing — no voting refinement, no missing-data removal, no edge
/// weighting — embedded with p/q-biased second-order walks (Grover &
/// Leskovec, KDD 2016).
class Node2VecModel : public RowwiseEmbeddingModel {
 public:
  Node2VecModel(double p, double q, Word2VecOptions w2v,
                TextifyOptions textify, uint64_t seed)
      : p_(p), q_(q), w2v_options_(w2v), textify_options_(textify),
        seed_(seed) {}

  Status Fit(const Database& db) override;
  size_t dim() const override { return embedding_.dim(); }
  const Embedding& embedding() const override { return embedding_; }
  const LevaGraph& graph() const { return graph_; }

 protected:
  Result<std::vector<double>> RowVector(const Table& table, size_t row,
                                        const std::string& target_column,
                                        bool rows_in_graph) const override;
  // Builds the graph this model embeds; overridden by EmbdiModel.
  virtual Result<LevaGraph> BuildModelGraph(
      const std::vector<TextifiedTable>& tables, size_t total_attributes);
  // Maps a textified token to the embedding key (EmbdiModel normalizes).
  virtual std::string TokenKey(const std::string& token) const;

  double p_;
  double q_;
  Word2VecOptions w2v_options_;
  TextifyOptions textify_options_;
  uint64_t seed_;
  Textifier textifier_;
  LevaGraph graph_;
  Embedding embedding_;
};

/// EmbDI-style model (Cappuzzo et al., SIGMOD 2020): a tripartite graph
/// linking cell-value nodes to their rows and to their columns, embedded with
/// uniform random walks. The "-F" flavor applies EmbDI's input
/// transformations (token normalization) before graph construction; "-S"
/// feeds the data as-is.
class EmbdiModel : public Node2VecModel {
 public:
  EmbdiModel(bool normalize_tokens, Word2VecOptions w2v,
             TextifyOptions textify, uint64_t seed)
      : Node2VecModel(1.0, 1.0, w2v, textify, seed),
        normalize_tokens_(normalize_tokens) {}

 protected:
  Result<LevaGraph> BuildModelGraph(
      const std::vector<TextifiedTable>& tables,
      size_t total_attributes) override;
  std::string TokenKey(const std::string& token) const override;

 private:
  bool normalize_tokens_;
};

}  // namespace leva

#endif  // LEVA_BASELINES_GRAPH_MODELS_H_
