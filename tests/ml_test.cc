#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/featurize.h"
#include "ml/gridsearch.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace leva {
namespace {

// y = 2*x0 - 3*x1 + 1 with small noise.
MLDataset LinearRegressionData(size_t n, Rng* rng) {
  MLDataset ds;
  ds.classification = false;
  ds.x = Matrix(n, 2);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ds.x(i, 0) = rng->Normal();
    ds.x(i, 1) = rng->Normal();
    ds.y[i] = 2.0 * ds.x(i, 0) - 3.0 * ds.x(i, 1) + 1.0 + 0.01 * rng->Normal();
  }
  return ds;
}

// Two Gaussian blobs, linearly separable.
MLDataset BlobData(size_t n, Rng* rng) {
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 2;
  ds.x = Matrix(n, 2);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    ds.x(i, 0) = rng->Normal() + (pos ? 2.0 : -2.0);
    ds.x(i, 1) = rng->Normal() + (pos ? 2.0 : -2.0);
    ds.y[i] = pos ? 1.0 : 0.0;
  }
  return ds;
}

// XOR-ish pattern: not linearly separable, solvable by trees and MLPs.
MLDataset XorData(size_t n, Rng* rng) {
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 2;
  ds.x = Matrix(n, 2);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ds.x(i, 0) = rng->Uniform(-1, 1);
    ds.x(i, 1) = rng->Uniform(-1, 1);
    ds.y[i] = (ds.x(i, 0) > 0) != (ds.x(i, 1) > 0) ? 1.0 : 0.0;
  }
  return ds;
}

TEST(MetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, MaeMse) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2}, {2, 4}), 1.5);
}

TEST(MetricsTest, R2PerfectAndMean) {
  EXPECT_DOUBLE_EQ(R2Score({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_NEAR(R2Score({1, 2, 3}, {2, 2, 2}), 0.0, 1e-12);
}

TEST(MetricsTest, F1PrecisionRecall) {
  const std::vector<double> truth = {1, 1, 0, 0};
  const std::vector<double> pred = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(PrecisionBinary(truth, pred), 0.5);
  EXPECT_DOUBLE_EQ(RecallBinary(truth, pred), 0.5);
  EXPECT_DOUBLE_EQ(F1Binary(truth, pred), 0.5);
  EXPECT_DOUBLE_EQ(F1Binary({0, 0}, {0, 0}), 0.0);  // no positives
}

TEST(DatasetTest, SubsetAndSelectFeatures) {
  Rng rng(1);
  const MLDataset ds = LinearRegressionData(10, &rng);
  const MLDataset sub = ds.Subset({0, 5, 9});
  EXPECT_EQ(sub.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(sub.x(1, 0), ds.x(5, 0));
  EXPECT_DOUBLE_EQ(sub.y[2], ds.y[9]);

  const MLDataset one = ds.SelectFeatures({1});
  EXPECT_EQ(one.NumFeatures(), 1u);
  EXPECT_DOUBLE_EQ(one.x(3, 0), ds.x(3, 1));
}

TEST(DatasetTest, SplitSizes) {
  Rng rng(2);
  const MLDataset ds = LinearRegressionData(100, &rng);
  const TrainTestSplit split = SplitTrainTest(ds, 0.25, &rng);
  EXPECT_EQ(split.test.NumRows(), 25u);
  EXPECT_EQ(split.train.NumRows(), 75u);
  EXPECT_EQ(split.train_rows.size() + split.test_rows.size(), 100u);
}

TEST(DatasetTest, KFoldCoversAllRows) {
  Rng rng(3);
  const auto folds = KFoldIndices(23, 5, &rng);
  size_t total = 0;
  std::set<size_t> seen;
  for (const auto& fold : folds) {
    total += fold.size();
    seen.insert(fold.begin(), fold.end());
  }
  EXPECT_EQ(total, 23u);
  EXPECT_EQ(seen.size(), 23u);
}

TEST(DatasetTest, StandardizeUsesTrainStats) {
  Rng rng(4);
  MLDataset train = LinearRegressionData(200, &rng);
  MLDataset test = LinearRegressionData(50, &rng);
  StandardizeFeatures(&train, &test);
  double mean = 0;
  for (size_t r = 0; r < train.NumRows(); ++r) mean += train.x(r, 0);
  EXPECT_NEAR(mean / static_cast<double>(train.NumRows()), 0.0, 1e-9);
}

TEST(LinearRegressorTest, RecoversCoefficients) {
  Rng rng(5);
  const MLDataset ds = LinearRegressionData(500, &rng);
  ElasticNetOptions options;
  options.epochs = 200;
  LinearRegressor model(options);
  ASSERT_TRUE(model.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 0.1);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.1);
  EXPECT_NEAR(model.bias(), 1.0, 0.1);
}

TEST(LinearRegressorTest, L1DrivesIrrelevantWeightsToZero) {
  Rng rng(6);
  MLDataset ds;
  ds.x = Matrix(400, 3);
  ds.y.resize(400);
  for (size_t i = 0; i < 400; ++i) {
    ds.x(i, 0) = rng.Normal();
    ds.x(i, 1) = rng.Normal();  // irrelevant
    ds.x(i, 2) = rng.Normal();  // irrelevant
    ds.y[i] = 3.0 * ds.x(i, 0) + 0.01 * rng.Normal();
  }
  ElasticNetOptions options;
  options.lambda = 0.1;
  options.l1_ratio = 1.0;
  options.epochs = 150;
  LinearRegressor model(options);
  ASSERT_TRUE(model.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_LT(std::fabs(model.weights()[1]), 0.05);
  EXPECT_LT(std::fabs(model.weights()[2]), 0.05);
  EXPECT_GT(std::fabs(model.weights()[0]), 2.0);
}

TEST(LinearRegressorTest, RejectsBadInput) {
  Rng rng(7);
  LinearRegressor model;
  EXPECT_FALSE(model.Fit(Matrix(3, 2), {1.0}, &rng).ok());
  EXPECT_FALSE(model.Fit(Matrix(), {}, &rng).ok());
}

TEST(LogisticRegressorTest, SeparatesBlobs) {
  Rng rng(8);
  const MLDataset train = BlobData(400, &rng);
  const MLDataset test = BlobData(100, &rng);
  LogisticRegressor model(2);
  ASSERT_TRUE(model.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(test.y, model.Predict(test.x)), 0.95);
}

TEST(LogisticRegressorTest, MulticlassSoftmax) {
  Rng rng(9);
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 3;
  ds.x = Matrix(600, 2);
  ds.y.resize(600);
  for (size_t i = 0; i < 600; ++i) {
    const size_t cls = i % 3;
    const double cx = cls == 0 ? -3.0 : (cls == 1 ? 0.0 : 3.0);
    ds.x(i, 0) = rng.Normal() * 0.5 + cx;
    ds.x(i, 1) = rng.Normal() * 0.5;
    ds.y[i] = static_cast<double>(cls);
  }
  LogisticRegressor model(3);
  ASSERT_TRUE(model.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_GT(Accuracy(ds.y, model.Predict(ds.x)), 0.95);

  const Matrix proba = model.PredictProba(ds.x);
  for (size_t i = 0; i < 10; ++i) {
    double sum = 0;
    for (size_t k = 0; k < 3; ++k) sum += proba(i, k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LogisticRegressorTest, RejectsOneClass) {
  Rng rng(10);
  LogisticRegressor model(1);
  EXPECT_FALSE(model.Fit(Matrix(2, 1), {0.0, 0.0}, &rng).ok());
}

TEST(DecisionTreeTest, SolvesXor) {
  Rng rng(11);
  const MLDataset train = XorData(500, &rng);
  const MLDataset test = XorData(200, &rng);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(test.y, tree.Predict(test.x)), 0.9);
}

TEST(DecisionTreeTest, RegressionVarianceSplit) {
  Rng rng(12);
  const MLDataset ds = LinearRegressionData(400, &rng);
  TreeOptions options;
  options.classification = false;
  options.max_depth = 10;
  DecisionTree tree(options);
  ASSERT_TRUE(tree.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_GT(R2Score(ds.y, tree.Predict(ds.x)), 0.8);
}

TEST(DecisionTreeTest, MinSamplesLeafRegularizes) {
  Rng rng(13);
  const MLDataset ds = XorData(300, &rng);
  TreeOptions loose;
  TreeOptions strict = loose;
  strict.min_samples_leaf = 100;
  DecisionTree t1(loose);
  DecisionTree t2(strict);
  ASSERT_TRUE(t1.Fit(ds.x, ds.y, &rng).ok());
  ASSERT_TRUE(t2.Fit(ds.x, ds.y, &rng).ok());
  // The heavily regularized tree must fit the training data less tightly.
  EXPECT_GE(Accuracy(ds.y, t1.Predict(ds.x)),
            Accuracy(ds.y, t2.Predict(ds.x)));
}

TEST(DecisionTreeTest, PureNodeStops) {
  Rng rng(14);
  Matrix x(10, 1);
  std::vector<double> y(10, 1.0);  // single class
  for (size_t i = 0; i < 10; ++i) x(i, 0) = static_cast<double>(i);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y, &rng).ok());
  EXPECT_EQ(tree.Predict(x)[3], 1.0);
}

TEST(RandomForestTest, BeatsSingleShallowTree) {
  Rng rng(15);
  const MLDataset train = XorData(400, &rng);
  const MLDataset test = XorData(200, &rng);
  ForestOptions options;
  options.num_trees = 30;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(test.y, forest.Predict(test.x)), 0.85);
}

TEST(RandomForestTest, ImportancesIdentifyRelevantFeature) {
  Rng rng(16);
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 2;
  ds.x = Matrix(400, 4);
  ds.y.resize(400);
  for (size_t i = 0; i < 400; ++i) {
    for (size_t j = 0; j < 4; ++j) ds.x(i, j) = rng.Normal();
    ds.y[i] = ds.x(i, 2) > 0 ? 1.0 : 0.0;  // only feature 2 matters
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(ds.x, ds.y, &rng).ok());
  const auto imp = forest.FeatureImportances();
  EXPECT_GT(imp[2], imp[0]);
  EXPECT_GT(imp[2], imp[1]);
  EXPECT_GT(imp[2], imp[3]);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2] + imp[3], 1.0, 1e-9);
}

TEST(RandomForestTest, RegressionMean) {
  Rng rng(17);
  const MLDataset ds = LinearRegressionData(300, &rng);
  ForestOptions options;
  options.num_trees = 20;
  options.tree.classification = false;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_GT(R2Score(ds.y, forest.Predict(ds.x)), 0.7);
}

TEST(MlpTest, SolvesXor) {
  Rng rng(18);
  const MLDataset train = XorData(600, &rng);
  const MLDataset test = XorData(200, &rng);
  MlpOptions options;
  options.hidden_dim = 16;
  options.epochs = 150;
  options.learning_rate = 0.05;
  MLP mlp(options);
  ASSERT_TRUE(mlp.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(test.y, mlp.Predict(test.x)), 0.9);
}

TEST(MlpTest, Regression) {
  Rng rng(19);
  const MLDataset ds = LinearRegressionData(500, &rng);
  MlpOptions options;
  options.classification = false;
  options.hidden_dim = 16;
  options.epochs = 100;
  MLP mlp(options);
  ASSERT_TRUE(mlp.Fit(ds.x, ds.y, &rng).ok());
  EXPECT_GT(R2Score(ds.y, mlp.Predict(ds.x)), 0.9);
}

TEST(MlpTest, DropoutStillLearns) {
  Rng rng(20);
  const MLDataset train = BlobData(300, &rng);
  MlpOptions options;
  options.dropout = 0.3;
  options.epochs = 80;
  MLP mlp(options);
  ASSERT_TRUE(mlp.Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(train.y, mlp.Predict(train.x)), 0.9);
}

TEST(MlpTest, ProbabilitiesSumToOne) {
  Rng rng(21);
  const MLDataset ds = BlobData(100, &rng);
  MLP mlp;
  ASSERT_TRUE(mlp.Fit(ds.x, ds.y, &rng).ok());
  const Matrix proba = mlp.PredictProba(ds.x);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(proba(i, 0) + proba(i, 1), 1.0, 1e-9);
  }
}

TEST(GridSearchTest, BuildParamGridCartesian) {
  const auto grid = BuildParamGrid({{"a", {1, 2}}, {"b", {10, 20, 30}}});
  EXPECT_EQ(grid.size(), 6u);
}

TEST(GridSearchTest, PicksBetterRegularization) {
  Rng rng(22);
  const MLDataset ds = BlobData(200, &rng);
  const ModelFactory factory = [](const ParamSet& p) {
    ElasticNetOptions options;
    options.lambda = p.at("lambda");
    options.epochs = 40;
    return std::make_unique<LogisticRegressor>(2, options);
  };
  // Absurdly strong regularization must lose to a mild one.
  const auto result = GridSearchCV(
      factory, BuildParamGrid({{"lambda", {1e-4, 50.0}}}), ds, 3,
      Accuracy, /*higher_is_better=*/true, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->best_params.at("lambda"), 1e-4);
  EXPECT_GT(result->best_score, 0.9);
}

TEST(GridSearchTest, ValidatesInput) {
  Rng rng(23);
  const MLDataset ds = BlobData(10, &rng);
  const ModelFactory factory = [](const ParamSet&) {
    return std::make_unique<LogisticRegressor>(2);
  };
  EXPECT_FALSE(GridSearchCV(factory, {}, ds, 3, Accuracy, true, &rng).ok());
  EXPECT_FALSE(
      GridSearchCV(factory, {{}}, ds, 1, Accuracy, true, &rng).ok());
  EXPECT_FALSE(
      GridSearchCV(factory, {{}}, ds, 20, Accuracy, true, &rng).ok());
}

Table MixedTable() {
  Table t("t");
  Column num;
  num.name = "num";
  num.type = DataType::kDouble;
  num.values = {Value(1.0), Value::Null(), Value(3.0), Value(5.0)};
  Column cat;
  cat.name = "cat";
  cat.type = DataType::kString;
  cat.values = {Value("a"), Value("b"), Value("a"), Value("c")};
  Column label;
  label.name = "label";
  label.type = DataType::kString;
  label.values = {Value("yes"), Value("no"), Value("yes"), Value("no")};
  EXPECT_TRUE(t.AddColumn(num).ok());
  EXPECT_TRUE(t.AddColumn(cat).ok());
  EXPECT_TRUE(t.AddColumn(label).ok());
  return t;
}

TEST(OneHotFeaturizerTest, EncodesMixedColumns) {
  const Table t = MixedTable();
  OneHotFeaturizer featurizer;
  ASSERT_TRUE(featurizer.Fit(t, "label", true).ok());
  const auto ds = featurizer.Transform(t);
  ASSERT_TRUE(ds.ok());
  // num + num#missing + 3 categories.
  EXPECT_EQ(ds->NumFeatures(), 5u);
  EXPECT_EQ(ds->num_classes, 2u);
  // Null numeric imputed to mean (3.0) with missing flag set.
  EXPECT_DOUBLE_EQ(ds->x(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(ds->x(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(ds->x(0, 1), 0.0);
}

TEST(OneHotFeaturizerTest, UnseenCategoryIsAllZeros) {
  const Table train = MixedTable();
  OneHotFeaturizer featurizer;
  ASSERT_TRUE(featurizer.Fit(train, "label", true).ok());
  Table test = train.SubsetRows({0});
  test.set_name("t");
  test.mutable_column(1).values[0] = Value("zebra");
  const auto ds = featurizer.Transform(test);
  ASSERT_TRUE(ds.ok());
  for (size_t j = 2; j < 5; ++j) EXPECT_DOUBLE_EQ(ds->x(0, j), 0.0);
}

TEST(OneHotFeaturizerTest, CategoryCap) {
  Table t("t");
  Column c;
  c.name = "c";
  c.type = DataType::kString;
  Column y;
  y.name = "y";
  y.type = DataType::kString;
  for (int i = 0; i < 100; ++i) {
    c.values.push_back(Value("cat" + std::to_string(i)));
    y.values.push_back(Value(i % 2 == 0 ? "a" : "b"));
  }
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(t.AddColumn(y).ok());
  OneHotOptions options;
  options.max_categories = 10;
  OneHotFeaturizer featurizer(options);
  ASSERT_TRUE(featurizer.Fit(t, "y", true).ok());
  const auto ds = featurizer.Transform(t);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->NumFeatures(), 10u);
}

TEST(OneHotFeaturizerTest, RegressionTargetMustBeNumeric) {
  const Table t = MixedTable();
  OneHotFeaturizer featurizer;
  EXPECT_FALSE(featurizer.Fit(t, "cat", false).ok());
  EXPECT_TRUE(featurizer.Fit(t, "num", false).ok());
}

TEST(TargetEncoderTest, DeterministicSortedLabels) {
  Column target;
  target.values = {Value("b"), Value("a"), Value("c"), Value("a")};
  TargetEncoder encoder;
  ASSERT_TRUE(encoder.Fit(target, true).ok());
  EXPECT_EQ(encoder.num_classes(), 3u);
  EXPECT_DOUBLE_EQ(*encoder.Encode(Value("a")), 0.0);
  EXPECT_DOUBLE_EQ(*encoder.Encode(Value("b")), 1.0);
  EXPECT_DOUBLE_EQ(*encoder.Encode(Value("c")), 2.0);
  EXPECT_FALSE(encoder.Encode(Value("zzz")).ok());
}

TEST(TargetEncoderTest, RegressionPassThrough) {
  Column target;
  target.values = {Value(1.5), Value(2.5)};
  TargetEncoder encoder;
  ASSERT_TRUE(encoder.Fit(target, false).ok());
  EXPECT_DOUBLE_EQ(*encoder.Encode(Value(7.25)), 7.25);
  EXPECT_FALSE(encoder.Encode(Value("x")).ok());
}

TEST(FeatureSelectionTest, FindsInformativeFeatures) {
  Rng rng(24);
  MLDataset ds;
  ds.classification = true;
  ds.num_classes = 2;
  ds.x = Matrix(300, 6);
  ds.y.resize(300);
  for (size_t i = 0; i < 300; ++i) {
    for (size_t j = 0; j < 6; ++j) ds.x(i, j) = rng.Normal();
    ds.y[i] = (ds.x(i, 1) + ds.x(i, 4)) > 0 ? 1.0 : 0.0;
  }
  const auto selected = SelectTopKFeatures(ds, 2, &rng);
  ASSERT_TRUE(selected.ok());
  ASSERT_EQ(selected->size(), 2u);
  EXPECT_TRUE((*selected)[0] == 1 || (*selected)[0] == 4);
  EXPECT_TRUE((*selected)[1] == 1 || (*selected)[1] == 4);
}

// Model sweep: every model type trains and predicts on the blob task.
class ModelSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelSweepTest, LearnsBlobs) {
  Rng rng(30 + GetParam());
  const MLDataset train = BlobData(300, &rng);
  const MLDataset test = BlobData(100, &rng);
  std::unique_ptr<Model> model;
  switch (GetParam()) {
    case 0:
      model = std::make_unique<LogisticRegressor>(2);
      break;
    case 1: {
      ForestOptions options;
      options.num_trees = 15;
      model = std::make_unique<RandomForest>(options);
      break;
    }
    default: {
      MlpOptions options;
      options.epochs = 60;
      model = std::make_unique<MLP>(options);
      break;
    }
  }
  ASSERT_TRUE(model->Fit(train.x, train.y, &rng).ok());
  EXPECT_GT(Accuracy(test.y, model->Predict(test.x)), 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSweepTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace leva
