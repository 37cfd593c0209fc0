// Row-at-a-time featurization: the differential oracle for the batched
// LevaPipeline::Featurize. One public RowVector call per row — per-row
// textification, per-token store lookups, a freshly allocated vector — then
// a copy into the dataset. Never used outside tests.
#ifndef LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_

#include <string>

#include "common/result.h"
#include "core/pipeline.h"
#include "ml/dataset.h"
#include "ml/featurize.h"
#include "table/table.h"

namespace leva {

/// The dataset LevaPipeline::Featurize must produce for the same arguments:
/// same features (bitwise), targets, feature names and class count.
Result<MLDataset> ReferenceFeaturize(const LevaPipeline& pipeline,
                                     const Table& table,
                                     const std::string& target_column,
                                     const TargetEncoder& encoder,
                                     bool rows_in_graph);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_FEATURIZE_REFERENCE_H_
