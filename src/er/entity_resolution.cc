#include "er/entity_resolution.h"

#include <cmath>

#include "ml/dataset.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace leva {

Result<Database> ErDatabase(const ErDataset& dataset) {
  Database db;
  LEVA_RETURN_IF_ERROR(db.AddTable(dataset.table_a));
  LEVA_RETURN_IF_ERROR(db.AddTable(dataset.table_b));
  return db;
}

Result<ErEvalResult> EvaluateEntityResolution(const EmbeddingModel& model,
                                              const ErDataset& dataset,
                                              const ErEvalOptions& options) {
  if (dataset.pairs.empty()) {
    return Status::InvalidArgument("no candidate pairs");
  }
  const size_t dim = model.dim();
  const size_t width = dim + 2;  // |a-b| ++ cosine ++ L1

  // Both tables are unlabeled and fitted: one Featurize call each gives every
  // row's embedding, and the pairs index into the two matrices.
  const TargetEncoder no_target;
  LEVA_ASSIGN_OR_RETURN(
      const MLDataset rows_a,
      model.Featurize(dataset.table_a, "", no_target, /*rows_in_graph=*/true));
  LEVA_ASSIGN_OR_RETURN(
      const MLDataset rows_b,
      model.Featurize(dataset.table_b, "", no_target, /*rows_in_graph=*/true));

  Matrix x(dataset.pairs.size(), width);
  std::vector<double> y(dataset.pairs.size());
  for (size_t p = 0; p < dataset.pairs.size(); ++p) {
    const ErPair& pair = dataset.pairs[p];
    if (pair.row_a >= rows_a.NumRows() || pair.row_b >= rows_b.NumRows()) {
      return Status::InvalidArgument("candidate pair row out of range");
    }
    const double* va = rows_a.x.RowPtr(pair.row_a);
    const double* vb = rows_b.x.RowPtr(pair.row_b);
    double dot = 0;
    double na = 0;
    double nb = 0;
    double l1 = 0;
    for (size_t j = 0; j < dim; ++j) {
      x(p, j) = std::fabs(va[j] - vb[j]);
      dot += va[j] * vb[j];
      na += va[j] * va[j];
      nb += vb[j] * vb[j];
      l1 += std::fabs(va[j] - vb[j]);
    }
    x(p, dim) = (na > 0 && nb > 0) ? dot / std::sqrt(na * nb) : 0.0;
    x(p, dim + 1) = l1 / static_cast<double>(dim);
    y[p] = pair.match ? 1.0 : 0.0;
  }

  Rng rng(options.seed);
  const size_t train_n = static_cast<size_t>(
      options.train_fraction * static_cast<double>(dataset.pairs.size()));
  const std::vector<size_t> perm = rng.Permutation(dataset.pairs.size());

  MLDataset train;
  train.x = Matrix(train_n, width);
  train.y.resize(train_n);
  MLDataset test;
  test.x = Matrix(dataset.pairs.size() - train_n, width);
  test.y.resize(dataset.pairs.size() - train_n);
  for (size_t i = 0; i < perm.size(); ++i) {
    MLDataset& split = i < train_n ? train : test;
    const size_t row = i < train_n ? i : i - train_n;
    for (size_t j = 0; j < width; ++j) split.x(row, j) = x(perm[i], j);
    split.y[row] = y[perm[i]];
  }
  // The three feature kinds live on unrelated scales, and an embedding with
  // a large common component squeezes them further: nearly parallel rows put
  // every pair's cosine near 1 and its |a-b| near 0. Standardizing with the
  // training split's statistics lets the regression see the spread.
  StandardizeFeatures(&train, &test);

  ElasticNetOptions lr_options;
  lr_options.lambda = 1e-4;
  lr_options.epochs = 60;
  LogisticRegressor classifier(2, lr_options);
  LEVA_RETURN_IF_ERROR(classifier.Fit(train.x, train.y, &rng));
  const std::vector<double> pred = classifier.Predict(test.x);
  const std::vector<double>& test_y = test.y;

  ErEvalResult result;
  result.f1 = F1Binary(test_y, pred);
  result.precision = PrecisionBinary(test_y, pred);
  result.recall = RecallBinary(test_y, pred);
  return result;
}

}  // namespace leva
