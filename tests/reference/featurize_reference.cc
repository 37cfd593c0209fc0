#include "reference/featurize_reference.h"

#include <vector>

namespace leva {

Result<MLDataset> ReferenceFeaturize(const LevaPipeline& pipeline,
                                     const Table& table,
                                     const std::string& target_column,
                                     const TargetEncoder& encoder,
                                     bool rows_in_graph) {
  LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                        table.ColumnIndex(target_column));
  const size_t dim = pipeline.embedding().dim();
  const size_t width =
      pipeline.config().featurization == Featurization::kRowPlusValue
          ? 2 * dim
          : dim;

  MLDataset ds;
  ds.classification = encoder.classification();
  ds.num_classes = encoder.classification() ? encoder.num_classes() : 2;
  ds.x = Matrix(table.NumRows(), width);
  ds.y.resize(table.NumRows());
  for (size_t j = 0; j < dim; ++j) {
    ds.feature_names.push_back("emb" + std::to_string(j));
  }
  if (width == 2 * dim) {
    for (size_t j = 0; j < dim; ++j) {
      ds.feature_names.push_back("val" + std::to_string(j));
    }
  }

  for (size_t r = 0; r < table.NumRows(); ++r) {
    LEVA_ASSIGN_OR_RETURN(
        const std::vector<double> vec,
        pipeline.RowVector(table, r, target_column, rows_in_graph));
    for (size_t j = 0; j < width; ++j) ds.x(r, j) = vec[j];
    LEVA_ASSIGN_OR_RETURN(ds.y[r], encoder.Encode(table.at(r, target_idx)));
  }
  return ds;
}

}  // namespace leva
