// Row-at-a-time featurization: the differential oracle for the batched
// LevaPipeline::Featurize. Each row is built on its own from the pipeline's
// public accessors — the per-cell reference tokenizer (ReferenceCellTokens,
// which reads Textifier::FindColumn), per-token Embedding::Get and graph
// degree lookups, a freshly allocated vector — with no TokenResolver and no
// column-batch textification. Never used outside tests.
#ifndef LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/pipeline.h"
#include "ml/dataset.h"
#include "ml/featurize.h"
#include "table/table.h"

namespace leva {

/// The feature vector of one row under the pipeline's featurization (Section
/// 6.5.1). Row: the row node's embedding when `rows_in_graph`, otherwise the
/// inverse-degree weighted mean of the row's value-node embeddings. Row +
/// Value appends that mean. The tokens of `target_column` are skipped; an
/// empty `target_column` skips none.
Result<std::vector<double>> ReferenceRowVector(const LevaPipeline& pipeline,
                                               const Table& table, size_t row,
                                               const std::string& target_column,
                                               bool rows_in_graph);

/// The dataset LevaPipeline::Featurize must produce for the same arguments:
/// same features (bitwise), targets, feature names and class count.
Result<MLDataset> ReferenceFeaturize(const LevaPipeline& pipeline,
                                     const Table& table,
                                     const std::string& target_column,
                                     const TargetEncoder& encoder,
                                     bool rows_in_graph);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_
