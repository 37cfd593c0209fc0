#include <gtest/gtest.h>

#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "embed/mf.h"
#include "la/sparse.h"
#include "ml/featurize.h"

namespace leva {
namespace {

// Small, fast settings for unit tests.
LevaConfig TestConfig(EmbeddingMethod method) {
  LevaConfig config;
  config.method = method;
  config.embedding_dim = 8;
  config.walks.epochs = 3;
  config.walks.walk_length = 10;
  config.word2vec.epochs = 1;
  config.seed = 5;
  return config;
}

SyntheticDataset Student() {
  auto ds = GenerateStudent(120, 0, 3);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(PipelineTest, FitMfProducesEmbeddingForAllNodes) {
  const SyntheticDataset ds = Student();
  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  EXPECT_EQ(pipeline.chosen_method(), EmbeddingMethod::kMatrixFactorization);
  EXPECT_EQ(pipeline.embedding().size(), pipeline.graph().NumNodes());
  // Row nodes of every table are embedded.
  EXPECT_TRUE(pipeline.embedding().Has("expenses:0"));
  EXPECT_TRUE(pipeline.embedding().Has("order_info:0"));
  EXPECT_TRUE(pipeline.embedding().Has("price_info:0"));
}

TEST(PipelineTest, FitRwWorks) {
  const SyntheticDataset ds = Student();
  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  EXPECT_EQ(pipeline.chosen_method(), EmbeddingMethod::kRandomWalk);
  EXPECT_EQ(pipeline.embedding().dim(), 8u);
}

TEST(PipelineTest, AutoSelectionHonorsMemoryBudget) {
  const SyntheticDataset ds = Student();
  LevaConfig config = TestConfig(EmbeddingMethod::kAuto);
  config.memory_budget_bytes = size_t{4} << 30;  // plenty -> MF
  LevaPipeline big(config);
  ASSERT_TRUE(big.Fit(ds.db).ok());
  EXPECT_EQ(big.chosen_method(), EmbeddingMethod::kMatrixFactorization);

  config.memory_budget_bytes = 1024;  // tiny -> RW
  LevaPipeline small(config);
  ASSERT_TRUE(small.Fit(ds.db).ok());
  EXPECT_EQ(small.chosen_method(), EmbeddingMethod::kRandomWalk);
}

// The MF estimate bounds the MF stage at every thread count, so the same
// config and data choose the same method on any host: at a budget of
// exactly the estimate MF fits, one byte under it RW is chosen.
TEST(PipelineTest, AutoSelectionDoesNotDependOnThreads) {
  const SyntheticDataset ds = Student();
  LevaPipeline fitted(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(fitted.Fit(ds.db).ok());
  const LevaGraph& graph = fitted.graph();
  // Enough rows that the SVD's transposed products run in several chunks.
  ASSERT_GT(SparseMatrix::TransposeChunks(graph.NumNodes()), 1u);
  LevaConfig config = TestConfig(EmbeddingMethod::kAuto);
  const size_t estimate = EstimateMfMemoryBytes(
      graph.NumNodes(), graph.NumEdges(),
      LevaPipeline::MfStageOptions(config, config.embedding_dim, 1));
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{64}}) {
    EXPECT_EQ(EstimateMfMemoryBytes(graph.NumNodes(), graph.NumEdges(),
                                    LevaPipeline::MfStageOptions(
                                        config, config.embedding_dim, threads)),
              estimate)
        << threads;
    config.threads = threads;
    config.memory_budget_bytes = estimate;
    LevaPipeline fits(config);
    ASSERT_TRUE(fits.Fit(ds.db).ok());
    EXPECT_EQ(fits.chosen_method(), EmbeddingMethod::kMatrixFactorization)
        << threads;
    config.memory_budget_bytes = estimate - 1;
    LevaPipeline over(config);
    ASSERT_TRUE(over.Fit(ds.db).ok());
    EXPECT_EQ(over.chosen_method(), EmbeddingMethod::kRandomWalk) << threads;
  }
}

// Names of the Fit stages that recorded a span.
std::vector<std::string> RecordedStages(const LevaPipeline& pipeline) {
  std::vector<std::string> names;
  for (const auto& [name, histogram] : pipeline.metrics().FitStages()) {
    if (histogram->count() > 0) names.push_back(name);
  }
  return names;
}

TEST(PipelineTest, ProfileRecordsStages) {
  const SyntheticDataset ds = Student();
  LevaPipeline mf(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(mf.Fit(ds.db).ok());
  EXPECT_EQ(RecordedStages(mf),
            (std::vector<std::string>{"textify", "graph", "factorization",
                                      "deploy_index"}));

  LevaPipeline rw(TestConfig(EmbeddingMethod::kRandomWalk));
  ASSERT_TRUE(rw.Fit(ds.db).ok());
  EXPECT_EQ(RecordedStages(rw),
            (std::vector<std::string>{"textify", "graph", "walk_generation",
                                      "embedding_training", "deploy_index"}));
}

TEST(PipelineTest, FitStageSpansSumWithinFitSpan) {
  const SyntheticDataset ds = Student();
  for (const EmbeddingMethod method : {EmbeddingMethod::kMatrixFactorization,
                                       EmbeddingMethod::kRandomWalk}) {
    LevaPipeline pipeline(TestConfig(method));
    double wall = 0;
    for (uint64_t fits = 1; fits <= 2; ++fits) {
      WallTimer timer;
      ASSERT_TRUE(pipeline.Fit(ds.db).ok());
      wall += timer.ElapsedSeconds();
      const PipelineMetrics& m = pipeline.metrics();
      double stages = 0;
      for (const auto& [name, histogram] : m.FitStages()) {
        if (histogram->count() > 0) {
          EXPECT_EQ(histogram->count(), fits) << name;
        }
        stages += histogram->sum_seconds();
      }
      // The stages nest inside the fit span, which nests inside the wall
      // time measured here; both accumulate across Fit calls.
      EXPECT_EQ(m.fit.count(), fits);
      EXPECT_GT(stages, 0.0);
      EXPECT_LE(stages, m.fit.sum_seconds());
      EXPECT_LE(m.fit.sum_seconds(), wall);
    }
  }
}

TEST(PipelineTest, CopyStartsWithEmptyMetrics) {
  const SyntheticDataset ds = Student();
  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  const LevaPipeline copy = pipeline;
  EXPECT_EQ(pipeline.metrics().fit.count(), 1u);
  EXPECT_EQ(copy.metrics().fit.count(), 0u);
  EXPECT_EQ(copy.embedding().size(), pipeline.embedding().size());
}

TEST(PipelineTest, FeaturizeTrainRowsUsesRowNodes) {
  const SyntheticDataset ds = Student();
  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());

  const Table* base = ds.db.FindTable("expenses");
  TargetEncoder encoder;
  ASSERT_TRUE(
      encoder.Fit(*base->FindColumn("total_expenses"), false).ok());
  const auto features =
      pipeline.Featurize(*base, "total_expenses", encoder, true);
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->NumRows(), base->NumRows());
  // Default featurization is Row + Value: twice the embedding dim.
  EXPECT_EQ(features->NumFeatures(), 16u);
  EXPECT_FALSE(features->classification);
}

TEST(PipelineTest, RowOnlyHalvesWidth) {
  const SyntheticDataset ds = Student();
  LevaConfig config = TestConfig(EmbeddingMethod::kMatrixFactorization);
  config.featurization = Featurization::kRowOnly;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  const Table* base = ds.db.FindTable("expenses");
  TargetEncoder encoder;
  ASSERT_TRUE(encoder.Fit(*base->FindColumn("total_expenses"), false).ok());
  const auto features =
      pipeline.Featurize(*base, "total_expenses", encoder, true);
  ASSERT_TRUE(features.ok());
  EXPECT_EQ(features->NumFeatures(), 8u);
}

TEST(PipelineTest, FeaturizeUnseenRowsComposesFromTokens) {
  // Fit on the first 100 students; featurize the held-out 20 as unseen.
  auto full = GenerateStudent(120, 0, 3);
  ASSERT_TRUE(full.ok());
  const Table* base = full->db.FindTable("expenses");
  std::vector<size_t> train_rows;
  std::vector<size_t> test_rows;
  for (size_t r = 0; r < base->NumRows(); ++r) {
    (r < 100 ? train_rows : test_rows).push_back(r);
  }
  Table train_table = base->SubsetRows(train_rows);
  Table test_table = base->SubsetRows(test_rows);
  train_table.set_name("expenses");
  test_table.set_name("expenses");

  Database fit_db;
  ASSERT_TRUE(fit_db.AddTable(train_table).ok());
  ASSERT_TRUE(fit_db.AddTable(*full->db.FindTable("order_info")).ok());
  ASSERT_TRUE(fit_db.AddTable(*full->db.FindTable("price_info")).ok());

  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(pipeline.Fit(fit_db).ok());

  TargetEncoder encoder;
  ASSERT_TRUE(encoder.Fit(*base->FindColumn("total_expenses"), false).ok());
  const auto test_features =
      pipeline.Featurize(test_table, "total_expenses", encoder, false);
  ASSERT_TRUE(test_features.ok());
  EXPECT_EQ(test_features->NumRows(), 20u);
  // At least one feature should be non-zero: the held-out students' tokens
  // (gender, school) were seen during Fit.
  bool any_nonzero = false;
  for (const double v : test_features->x.data()) {
    if (v != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(PipelineTest, FeaturizeBeforeFitFails) {
  LevaPipeline pipeline;
  Table t("t");
  TargetEncoder encoder;
  EXPECT_EQ(pipeline.Featurize(t, "y", encoder, true).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, FeaturizeSkipsTargetTokens) {
  // The features must not depend on the target values in the featurized
  // table: the target column must not leak into the row vectors.
  const SyntheticDataset ds = Student();
  LevaPipeline pipeline(TestConfig(EmbeddingMethod::kMatrixFactorization));
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  const Table* base = ds.db.FindTable("expenses");
  TargetEncoder encoder;
  ASSERT_TRUE(encoder.Fit(*base->FindColumn("total_expenses"), false).ok());

  Table mutated = *base;
  mutated.set_name("expenses");
  const size_t target_idx = *mutated.ColumnIndex("total_expenses");
  mutated.mutable_column(target_idx).values[0] = Value(99999.0);

  const auto f1 = pipeline.Featurize(*base, "total_expenses", encoder, true);
  const auto f2 = pipeline.Featurize(mutated, "total_expenses", encoder, true);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(f1->y[0], f2->y[0]);
  EXPECT_EQ(f1->x.data(), f2->x.data());
}

TEST(PipelineTest, WeightedConfigPropagates) {
  const SyntheticDataset ds = Student();
  LevaConfig config = TestConfig(EmbeddingMethod::kRandomWalk);
  config.graph.weighted = false;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  // Unweighted graph: all stored edge weights are 1.
  const LevaGraph& g = pipeline.graph();
  for (NodeId n = 0; n < g.NumNodes() && n < 50; ++n) {
    for (const float w : g.Weights(n)) EXPECT_FLOAT_EQ(w, 1.0f);
  }
}

TEST(PipelineTest, LineMethodPlugsIn) {
  const SyntheticDataset ds = Student();
  LevaConfig config = TestConfig(EmbeddingMethod::kLine);
  config.line.samples_per_edge = 10;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(ds.db).ok());
  EXPECT_EQ(pipeline.chosen_method(), EmbeddingMethod::kLine);
  EXPECT_EQ(pipeline.embedding().dim(), 8u);
  EXPECT_EQ(pipeline.metrics().edge_sampling.count(), 1u);
}

}  // namespace
}  // namespace leva
