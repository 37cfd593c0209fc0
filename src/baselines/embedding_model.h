#ifndef LEVA_BASELINES_EMBEDDING_MODEL_H_
#define LEVA_BASELINES_EMBEDDING_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "embed/embedding.h"
#include "ml/dataset.h"
#include "ml/featurize.h"
#include "table/table.h"

namespace leva {

/// Common interface over embedding construction methods compared in Table 5:
/// Leva (MF/RW), direct Word2Vec, Node2Vec, EmbDI-style, and DeepER-style.
/// Fit sees the database without test rows; Featurize turns a base-table
/// slice into a dataset (`rows_in_graph` distinguishes fitted rows from
/// held-out rows, which are composed from token embeddings).
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  virtual Status Fit(const Database& db) = 0;

  /// Builds the MLDataset for `table`, one feature row of width dim() per
  /// table row. The tokens of `target_column` never enter the features; an
  /// empty `target_column` means the table has no label, so every column is
  /// featurized and `y` stays zero.
  virtual Result<MLDataset> Featurize(const Table& table,
                                      const std::string& target_column,
                                      const TargetEncoder& encoder,
                                      bool rows_in_graph) const = 0;

  /// Feature width produced by Featurize.
  virtual size_t dim() const = 0;

  /// The underlying token/row embedding store.
  virtual const Embedding& embedding() const = 0;
};

/// The baselines that compose each row on its own (Word2Vec/DeepER and
/// Node2Vec/EmbDI): Featurize is one loop over RowVector.
class RowwiseEmbeddingModel : public EmbeddingModel {
 public:
  Result<MLDataset> Featurize(const Table& table,
                              const std::string& target_column,
                              const TargetEncoder& encoder,
                              bool rows_in_graph) const final;

 protected:
  /// Feature vector (width dim()) of `row`, skipping the tokens of
  /// `target_column`.
  virtual Result<std::vector<double>> RowVector(
      const Table& table, size_t row, const std::string& target_column,
      bool rows_in_graph) const = 0;
};

}  // namespace leva

#endif  // LEVA_BASELINES_EMBEDDING_MODEL_H_
