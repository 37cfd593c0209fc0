#include "baselines/experiment.h"

#include "ml/gridsearch.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace leva {

Result<ExperimentTask> PrepareTask(SyntheticDataset data,
                                   double test_fraction, uint64_t seed) {
  const Table* base = data.db.FindTable(data.base_table);
  if (base == nullptr) {
    return Status::NotFound("base table '" + data.base_table + "' missing");
  }
  Rng rng(seed);
  ExperimentTask task;
  const size_t n = base->NumRows();
  const std::vector<size_t> perm = rng.Permutation(n);
  const size_t test_n =
      static_cast<size_t>(test_fraction * static_cast<double>(n));
  task.test_rows.assign(perm.begin(), perm.begin() + static_cast<ptrdiff_t>(test_n));
  task.train_rows.assign(perm.begin() + static_cast<ptrdiff_t>(test_n), perm.end());

  task.train_table = base->SubsetRows(task.train_rows);
  task.train_table.set_name(data.base_table);
  task.test_table = base->SubsetRows(task.test_rows);
  task.test_table.set_name(data.base_table);

  LEVA_RETURN_IF_ERROR(task.encoder.Fit(
      *base->FindColumn(data.target_column), data.classification));

  // fit_db = all tables, with the base table's target column dropped so the
  // unsupervised embedding never sees a label.
  for (const Table& t : data.db.tables()) {
    if (t.name() == data.base_table) {
      Table features = t;
      LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                            features.ColumnIndex(data.target_column));
      LEVA_RETURN_IF_ERROR(features.DropColumn(target_idx));
      LEVA_RETURN_IF_ERROR(task.fit_db.AddTable(std::move(features)));
    } else {
      LEVA_RETURN_IF_ERROR(task.fit_db.AddTable(t));
    }
  }
  for (const ForeignKey& fk : data.db.foreign_keys()) {
    task.fit_db.AddForeignKey(fk);
  }
  task.data = std::move(data);
  return task;
}

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest:
      return "RF";
    case ModelKind::kLogistic:
      return "LR";
    case ModelKind::kLinear:
      return "LinReg";
    case ModelKind::kElasticNet:
      return "ElasticNet";
    case ModelKind::kMlp:
      return "NN";
  }
  return "?";
}

namespace {

struct ModelSpec {
  ModelFactory factory;
  std::vector<ParamSet> grid;
};

ModelSpec MakeSpec(ModelKind kind, bool classification, size_t num_classes,
                   bool wide_grid) {
  ModelSpec spec;
  switch (kind) {
    case ModelKind::kRandomForest: {
      spec.factory = [classification, num_classes](const ParamSet& p) {
        ForestOptions options;
        options.num_trees = 40;
        options.tree.classification = classification;
        options.tree.num_classes = num_classes;
        options.tree.max_depth = static_cast<size_t>(p.at("max_depth"));
        options.tree.min_samples_leaf =
            static_cast<size_t>(p.at("min_samples_leaf"));
        return std::make_unique<RandomForest>(options);
      };
      spec.grid = BuildParamGrid(
          {{"max_depth", wide_grid ? std::vector<double>{6, 10, 14}
                                   : std::vector<double>{10}},
           {"min_samples_leaf",
            wide_grid ? std::vector<double>{1, 2, 5} : std::vector<double>{1, 4}}});
      return spec;
    }
    case ModelKind::kLogistic: {
      spec.factory = [num_classes](const ParamSet& p) {
        ElasticNetOptions options;
        options.lambda = p.at("lambda");
        options.l1_ratio = 0.5;
        options.epochs = 40;
        return std::make_unique<LogisticRegressor>(num_classes, options);
      };
      spec.grid = BuildParamGrid(
          {{"lambda", wide_grid ? std::vector<double>{1e-5, 1e-4, 1e-3, 1e-2}
                                : std::vector<double>{1e-4, 1e-2}}});
      return spec;
    }
    case ModelKind::kLinear: {
      spec.factory = [](const ParamSet&) {
        ElasticNetOptions options;
        options.lambda = 0.0;
        options.epochs = 60;
        return std::make_unique<LinearRegressor>(options);
      };
      spec.grid = {{}};
      return spec;
    }
    case ModelKind::kElasticNet: {
      spec.factory = [](const ParamSet& p) {
        ElasticNetOptions options;
        options.lambda = p.at("lambda");
        options.l1_ratio = 0.5;
        options.epochs = 60;
        return std::make_unique<LinearRegressor>(options);
      };
      spec.grid = BuildParamGrid(
          {{"lambda", wide_grid ? std::vector<double>{1e-4, 1e-3, 1e-2, 1e-1}
                                : std::vector<double>{1e-3, 1e-2}}});
      return spec;
    }
    case ModelKind::kMlp: {
      spec.factory = [classification, num_classes](const ParamSet& p) {
        MlpOptions options;
        options.classification = classification;
        options.num_classes = num_classes;
        options.hidden_dim = 64;
        options.epochs = 40;
        options.learning_rate = p.at("lr");
        options.dropout = p.at("dropout");
        return std::make_unique<MLP>(options);
      };
      spec.grid = BuildParamGrid(
          {{"lr", wide_grid ? std::vector<double>{0.003, 0.01, 0.03}
                            : std::vector<double>{0.01}},
           {"dropout", wide_grid ? std::vector<double>{0.0, 0.2}
                                 : std::vector<double>{0.0}}});
      return spec;
    }
  }
  return spec;
}

}  // namespace

Result<double> TrainAndScore(ModelKind kind, const MLDataset& train,
                             const MLDataset& test, uint64_t seed,
                             bool wide_grid) {
  const bool classification = train.classification;
  const ModelSpec spec =
      MakeSpec(kind, classification, train.num_classes, wide_grid);
  const ScoreFn score = classification ? ScoreFn(Accuracy)
                                       : ScoreFn(MeanAbsoluteError);
  Rng rng(seed);
  ParamSet best = spec.grid.front();
  if (spec.grid.size() > 1) {
    LEVA_ASSIGN_OR_RETURN(
        const GridSearchResult result,
        GridSearchCV(spec.factory, spec.grid, train, 3, score,
                     /*higher_is_better=*/classification, &rng));
    best = result.best_params;
  }
  return FitAndScore(spec.factory, best, train, test, score, &rng);
}

Result<std::pair<MLDataset, MLDataset>> FeaturizeTask(
    const EmbeddingModel& fitted_model, const ExperimentTask& task) {
  // Featurize the whole base table (all rows are graph nodes), then split by
  // the shared train/test row indices.
  const Table* base = task.data.db.FindTable(task.data.base_table);
  if (base == nullptr) return Status::NotFound("base table missing");
  LEVA_ASSIGN_OR_RETURN(
      const MLDataset all,
      fitted_model.Featurize(*base, task.data.target_column, task.encoder,
                             /*rows_in_graph=*/true));
  MLDataset train = all.Subset(task.train_rows);
  MLDataset test = all.Subset(task.test_rows);
  StandardizeFeatures(&train, &test);
  return std::make_pair(std::move(train), std::move(test));
}

Result<double> EvaluateEmbeddingModel(EmbeddingModel* model,
                                      const ExperimentTask& task,
                                      ModelKind kind, uint64_t seed,
                                      bool wide_grid) {
  LEVA_RETURN_IF_ERROR(model->Fit(task.fit_db));
  LEVA_ASSIGN_OR_RETURN(auto datasets, FeaturizeTask(*model, task));
  return TrainAndScore(kind, datasets.first, datasets.second, seed, wide_grid);
}

Result<double> EvaluateTabularBaseline(const ExperimentTask& task,
                                       TabularBaseline baseline,
                                       size_t top_k_features, ModelKind kind,
                                       uint64_t seed) {
  LEVA_ASSIGN_OR_RETURN(
      const auto materialized,
      MaterializeBaselineTable(task.data.db, task.data.base_table,
                               task.data.target_column, baseline));
  Rng rng(seed);
  LEVA_ASSIGN_OR_RETURN(
      auto datasets,
      BuildTabularDatasets(materialized.first, materialized.second,
                           task.data.classification, task.train_rows,
                           task.test_rows, top_k_features, &rng));
  return TrainAndScore(kind, datasets.first, datasets.second, seed);
}

// Embedding quality needs enough dimensions to separate the informative
// graph structure from row-identity noise; dim 100 (the Table 2 default)
// remains fast on the benchmark scales.
LevaConfig FastLevaConfig(EmbeddingMethod method, uint64_t seed, size_t dim) {
  LevaConfig config;
  config.method = method;
  config.embedding_dim = dim;
  config.walks.epochs = 6;
  config.walks.walk_length = 30;
  config.word2vec.epochs = 3;
  config.word2vec.dim = dim;
  // The benchmark datasets are scaled down ~100x from the originals, so the
  // histogram resolution scales with them (the Table 2 default of 50 bins
  // targets million-row tables; Fig. 7b sweeps this knob).
  config.textify.bin_count = 20;
  config.seed = seed;
  return config;
}

}  // namespace leva
