#ifndef LEVA_ER_ENTITY_RESOLUTION_H_
#define LEVA_ER_ENTITY_RESOLUTION_H_

#include "baselines/embedding_model.h"
#include "common/result.h"
#include "datagen/er_data.h"

namespace leva {

/// Entity-resolution evaluation (Section 6.7): fit `model` over the two dirty
/// tables, featurize each labeled candidate pair from the row embeddings
/// (|e_a - e_b| plus cosine and L1 similarity), standardize the features
/// with the training split's mean and standard deviation, train a binary
/// classifier on that split, and report F1 on the held-out pairs.
struct ErEvalOptions {
  double train_fraction = 0.6;
  uint64_t seed = 99;
};

struct ErEvalResult {
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
};

/// `model` must already be fitted on a Database containing the dataset's two
/// tables (named "table_a" / "table_b").
Result<ErEvalResult> EvaluateEntityResolution(const EmbeddingModel& model,
                                              const ErDataset& dataset,
                                              const ErEvalOptions& options = {});

/// Convenience: builds the two-table Database for an ErDataset.
Result<Database> ErDatabase(const ErDataset& dataset);

}  // namespace leva

#endif  // LEVA_ER_ENTITY_RESOLUTION_H_
