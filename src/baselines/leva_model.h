#ifndef LEVA_BASELINES_LEVA_MODEL_H_
#define LEVA_BASELINES_LEVA_MODEL_H_

#include "baselines/embedding_model.h"
#include "core/pipeline.h"

namespace leva {

/// Adapts LevaPipeline to the EmbeddingModel interface so the benchmark
/// harnesses can treat Leva and the baseline embedding methods uniformly.
class LevaModel : public EmbeddingModel {
 public:
  explicit LevaModel(LevaConfig config = {}) : pipeline_(std::move(config)) {}

  Status Fit(const Database& db) override { return pipeline_.Fit(db); }

  /// The pipeline's batched Featurize: column-wise textify + interned token
  /// resolution + blocked parallel gather.
  Result<MLDataset> Featurize(const Table& table,
                              const std::string& target_column,
                              const TargetEncoder& encoder,
                              bool rows_in_graph) const override {
    return pipeline_.Featurize(table, target_column, encoder, rows_in_graph);
  }

  size_t dim() const override {
    return pipeline_.config().featurization == Featurization::kRowPlusValue
               ? 2 * pipeline_.embedding().dim()
               : pipeline_.embedding().dim();
  }

  const Embedding& embedding() const override {
    return pipeline_.embedding();
  }

  LevaPipeline& pipeline() { return pipeline_; }
  const LevaPipeline& pipeline() const { return pipeline_; }

 private:
  LevaPipeline pipeline_;
};

}  // namespace leva

#endif  // LEVA_BASELINES_LEVA_MODEL_H_
