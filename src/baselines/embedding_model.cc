#include "baselines/embedding_model.h"

namespace leva {

Result<MLDataset> RowwiseEmbeddingModel::Featurize(
    const Table& table, const std::string& target_column,
    const TargetEncoder& encoder, bool rows_in_graph) const {
  LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                        TargetColumnIndex(table, target_column));
  const size_t width = dim();
  MLDataset ds;
  ds.classification = encoder.classification();
  ds.num_classes = encoder.classification() ? encoder.num_classes() : 2;
  ds.x = Matrix(table.NumRows(), width);
  ds.y.resize(table.NumRows());
  for (size_t j = 0; j < width; ++j) {
    ds.feature_names.push_back("emb" + std::to_string(j));
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    LEVA_ASSIGN_OR_RETURN(
        const std::vector<double> vec,
        RowVector(table, r, target_column, rows_in_graph));
    if (vec.size() != width) {
      return Status::Internal("row vector width mismatch");
    }
    for (size_t j = 0; j < width; ++j) ds.x(r, j) = vec[j];
    if (target_idx < table.NumColumns()) {
      LEVA_ASSIGN_OR_RETURN(ds.y[r], encoder.Encode(table.at(r, target_idx)));
    }
  }
  return ds;
}

}  // namespace leva
