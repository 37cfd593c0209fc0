// Coverage for the experiment harness and option paths not exercised
// elsewhere: task preparation invariants, grid-search helpers, forced
// histogram types, featurizer options, and walk-option clamping.
#include <gtest/gtest.h>

#include <set>

#include "baselines/experiment.h"
#include "baselines/leva_model.h"
#include "datagen/synthetic.h"
#include "la/decomp.h"
#include "ml/gridsearch.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace leva {
namespace {

SyntheticDataset TinyTask() {
  SyntheticConfig c;
  c.base_rows = 120;
  c.dims = {
      {.name = "d", .rows = 20, .predictive_numeric = 1,
       .predictive_categorical = 1, .noise_numeric = 0,
       .noise_categorical = 0, .categories = 4, .parent = ""},
  };
  c.seed = 2;
  auto ds = GenerateSynthetic(c);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(PrepareTaskTest, SplitIsDisjointAndComplete) {
  auto task = PrepareTask(TinyTask(), 0.25, 5);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->test_rows.size(), 30u);
  EXPECT_EQ(task->train_rows.size(), 90u);
  std::set<size_t> all(task->train_rows.begin(), task->train_rows.end());
  all.insert(task->test_rows.begin(), task->test_rows.end());
  EXPECT_EQ(all.size(), 120u);
}

TEST(PrepareTaskTest, FitDbDropsTargetButKeepsAllRows) {
  auto task = PrepareTask(TinyTask(), 0.25, 5);
  ASSERT_TRUE(task.ok());
  const Table* fit_base = task->fit_db.FindTable("base");
  ASSERT_NE(fit_base, nullptr);
  // Transductive protocol: every row's features, no label column.
  EXPECT_EQ(fit_base->NumRows(), 120u);
  EXPECT_EQ(fit_base->FindColumn("target"), nullptr);
  // Foreign keys carried over for the Full baseline.
  EXPECT_EQ(task->fit_db.foreign_keys().size(),
            task->data.db.foreign_keys().size());
}

TEST(PrepareTaskTest, MissingBaseTableFails) {
  SyntheticDataset broken = TinyTask();
  broken.base_table = "nope";
  EXPECT_FALSE(PrepareTask(std::move(broken), 0.25, 5).ok());
}

TEST(PrepareTaskTest, EncoderSharedAcrossSlices) {
  auto task = PrepareTask(TinyTask(), 0.25, 5);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->encoder.num_classes(), 2u);
  EXPECT_TRUE(task->encoder.Encode(Value("class_0")).ok());
  EXPECT_TRUE(task->encoder.Encode(Value("class_1")).ok());
}

TEST(HarnessTest, TrainAndScoreAllModelKinds) {
  auto task = PrepareTask(TinyTask(), 0.25, 6);
  ASSERT_TRUE(task.ok());
  LevaModel model(FastLevaConfig(EmbeddingMethod::kMatrixFactorization, 7, 16));
  ASSERT_TRUE(model.Fit(task->fit_db).ok());
  const auto datasets = FeaturizeTask(model, *task);
  ASSERT_TRUE(datasets.ok());
  for (const ModelKind kind :
       {ModelKind::kRandomForest, ModelKind::kLogistic, ModelKind::kMlp}) {
    const auto score =
        TrainAndScore(kind, datasets->first, datasets->second, 1);
    ASSERT_TRUE(score.ok()) << ModelKindName(kind);
    EXPECT_GE(*score, 0.0);
    EXPECT_LE(*score, 1.0);
  }
}

TEST(HarnessTest, ModelKindNamesDistinct) {
  std::set<std::string> names;
  for (const ModelKind kind :
       {ModelKind::kRandomForest, ModelKind::kLogistic, ModelKind::kLinear,
        ModelKind::kElasticNet, ModelKind::kMlp}) {
    names.insert(ModelKindName(kind));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(GridSearchTest, EmptyAxesYieldSingleEmptyAssignment) {
  const auto grid = BuildParamGrid({});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid[0].empty());
}

TEST(GridSearchTest, FitAndScoreUsesGivenParams) {
  Rng rng(3);
  MLDataset ds;
  ds.classification = false;
  ds.x = Matrix(100, 1);
  ds.y.resize(100);
  for (size_t i = 0; i < 100; ++i) {
    ds.x(i, 0) = rng.Normal();
    ds.y[i] = 4.0 * ds.x(i, 0);
  }
  const ModelFactory factory = [](const ParamSet&) {
    ElasticNetOptions options;
    options.epochs = 100;
    return std::make_unique<LinearRegressor>(options);
  };
  const auto mae =
      FitAndScore(factory, {}, ds, ds, MeanAbsoluteError, &rng);
  ASSERT_TRUE(mae.ok());
  EXPECT_LT(*mae, 0.2);
}

TEST(PcaTest, ExplainedVarianceDescending) {
  Rng rng(4);
  Matrix x(200, 5);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      x(i, j) = rng.Normal() * static_cast<double>(5 - j);
    }
  }
  const auto pca = PCA::Fit(x, 5);
  ASSERT_TRUE(pca.ok());
  for (size_t j = 1; j < 5; ++j) {
    EXPECT_GE(pca->explained_variance()[j - 1],
              pca->explained_variance()[j]);
  }
}

TEST(TextifierOptionsTest, ForcedHistogramType) {
  Database db;
  Table t("t");
  Column c;
  c.name = "x";
  c.type = DataType::kDouble;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    // Heavy-tailed data would normally pick equi-depth.
    c.values.push_back(
        Value(rng.Bernoulli(0.05) ? rng.Normal() * 100 : rng.Normal()));
  }
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());

  TextifyOptions options;
  options.force_histogram_type = true;
  options.forced_type = HistogramType::kEquiWidth;
  options.bin_count = 10;
  Textifier tx(options);
  ASSERT_TRUE(tx.Fit(db).ok());
  // With forced equi-width bins on heavy-tailed data, almost everything
  // lands in a couple of central bins.
  const auto column = tx.TransformColumn("t", db.tables()[0].column(0));
  ASSERT_TRUE(column.ok());
  const std::set<std::string_view> tokens(column->tokens.begin(),
                                          column->tokens.end());
  EXPECT_LE(tokens.size(), 10u);
}

TEST(WalkOptionsTest, RestartEpochsClampedToTotal) {
  auto data = GenerateStudent(30, 0, 8);
  ASSERT_TRUE(data.ok());
  LevaConfig config;
  config.embedding_dim = 4;
  config.method = EmbeddingMethod::kRandomWalk;
  config.walks.epochs = 2;
  config.walks.balanced_restarts = true;
  config.walks.restart_epochs = 10;  // > epochs: must clamp, not underflow
  config.word2vec.epochs = 1;
  LevaPipeline pipeline(config);
  EXPECT_TRUE(pipeline.Fit(data->db).ok());
}

TEST(EvaluateTabularTest, FullFeSelectsSubset) {
  auto task = PrepareTask(TinyTask(), 0.25, 9);
  ASSERT_TRUE(task.ok());
  const auto with_fe = EvaluateTabularBaseline(
      *task, TabularBaseline::kFull, 3, ModelKind::kLogistic, 1);
  ASSERT_TRUE(with_fe.ok());
  EXPECT_GE(*with_fe, 0.0);
}

}  // namespace
}  // namespace leva
