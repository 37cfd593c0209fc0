#include "reference/featurize_reference.h"

#include <vector>

#include "reference/textify_reference.h"

namespace leva {
namespace {

// Weighted mean of the value-node embeddings of `tokens` (zeros when no
// token is known). Hub value nodes shared by many rows carry little
// inclusion-dependency signal, so the weight mirrors the edge weighting of
// Section 3.2: inverse to the value node's degree.
std::vector<double> ComposeFromTokens(const LevaPipeline& pipeline,
                                      const std::vector<std::string>& tokens) {
  const Embedding& embedding = pipeline.embedding();
  const LevaGraph& graph = pipeline.graph();
  std::vector<double> out(embedding.dim(), 0.0);
  double total_weight = 0.0;
  for (const std::string& token : tokens) {
    const auto vec = embedding.Get(token);
    if (vec.empty()) continue;
    double w = 1.0;
    if (pipeline.config().graph.weighted) {
      const NodeId vn = graph.ValueNode(token);
      if (vn != kInvalidNode && graph.Degree(vn) > 0) {
        w = 1.0 / static_cast<double>(graph.Degree(vn));
      }
    }
    total_weight += w;
    for (size_t j = 0; j < out.size(); ++j) out[j] += w * vec[j];
  }
  if (total_weight > 0) {
    for (double& v : out) v /= total_weight;
  }
  return out;
}

}  // namespace

Result<std::vector<double>> ReferenceRowVector(const LevaPipeline& pipeline,
                                               const Table& table, size_t row,
                                               const std::string& target_column,
                                               bool rows_in_graph) {
  const bool row_only =
      pipeline.config().featurization == Featurization::kRowOnly;
  std::vector<std::string> tokens;
  if (!(rows_in_graph && row_only)) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      const Column& col = table.column(c);
      if (!target_column.empty() && col.name == target_column) continue;
      LEVA_ASSIGN_OR_RETURN(
          std::vector<std::string> cell,
          ReferenceCellTokens(pipeline.textifier(), table.name(), col.name,
                              col.values[row]));
      for (std::string& t : cell) tokens.push_back(std::move(t));
    }
  }

  std::vector<double> row_vec;
  if (rows_in_graph) {
    const std::string label = table.name() + ":" + std::to_string(row);
    const auto vec = pipeline.embedding().Get(label);
    if (vec.empty()) {
      return Status::NotFound("row node missing for '" + label + "'");
    }
    row_vec.assign(vec.begin(), vec.end());
  } else {
    row_vec = ComposeFromTokens(pipeline, tokens);
  }
  if (row_only) return row_vec;
  const std::vector<double> value_vec = ComposeFromTokens(pipeline, tokens);
  row_vec.insert(row_vec.end(), value_vec.begin(), value_vec.end());
  return row_vec;
}

Result<MLDataset> ReferenceFeaturize(const LevaPipeline& pipeline,
                                     const Table& table,
                                     const std::string& target_column,
                                     const TargetEncoder& encoder,
                                     bool rows_in_graph) {
  size_t target_idx = table.NumColumns();
  if (!target_column.empty()) {
    LEVA_ASSIGN_OR_RETURN(target_idx, table.ColumnIndex(target_column));
  }
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
        ReferenceRowVector(pipeline, table, r, target_column, rows_in_graph));
    for (size_t j = 0; j < width; ++j) ds.x(r, j) = vec[j];
    if (target_idx < table.NumColumns()) {
      LEVA_ASSIGN_OR_RETURN(ds.y[r], encoder.Encode(table.at(r, target_idx)));
    }
  }
  return ds;
}

}  // namespace leva
