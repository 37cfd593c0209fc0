#include <gtest/gtest.h>

#include "baselines/corpus_models.h"
#include "baselines/discovery.h"
#include "baselines/graph_models.h"
#include "baselines/leva_model.h"
#include "baselines/tabular.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"

namespace leva {
namespace {

SyntheticDataset SmallTask() {
  SyntheticConfig c;
  c.base_rows = 250;
  c.classification = true;
  c.num_classes = 2;
  c.dims = {
      {.name = "dim", .rows = 50, .predictive_numeric = 1,
       .predictive_categorical = 1, .noise_numeric = 1,
       .noise_categorical = 1, .categories = 6, .parent = ""},
  };
  c.seed = 4;
  auto ds = GenerateSynthetic(c);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

TEST(DiscoveryTest, FindsTrueFkJoin) {
  const SyntheticDataset ds = SmallTask();
  const auto joins = DiscoverJoins(ds.db, "base");
  ASSERT_TRUE(joins.ok());
  bool found = false;
  for (const DiscoveredJoin& j : *joins) {
    if (j.base_column == "fk_dim" && j.other_table == "dim" &&
        j.other_column == "dim_id") {
      found = true;
      EXPECT_GT(j.containment, 0.95);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiscoveryTest, RespectsContainmentThreshold) {
  const SyntheticDataset ds = SmallTask();
  DiscoveryOptions strict;
  strict.containment_threshold = 1.01;  // impossible
  const auto joins = DiscoverJoins(ds.db, "base", strict);
  ASSERT_TRUE(joins.ok());
  EXPECT_TRUE(joins->empty());
}

TEST(DiscoveryTest, MaterializeAddsDiscoveredColumns) {
  const SyntheticDataset ds = SmallTask();
  const auto table = MaterializeDiscoveredTable(ds.db, "base");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 250u);
  EXPECT_NE(table->FindColumn("dim.dim_pnum0"), nullptr);
}

TEST(DiscoveryTest, UnknownBaseFails) {
  const SyntheticDataset ds = SmallTask();
  EXPECT_FALSE(DiscoverJoins(ds.db, "nope").ok());
}

TEST(TabularTest, MaterializeAllKinds) {
  const SyntheticDataset ds = SmallTask();
  for (const TabularBaseline kind :
       {TabularBaseline::kBase, TabularBaseline::kFull,
        TabularBaseline::kDisc}) {
    const auto result =
        MaterializeBaselineTable(ds.db, "base", "target", kind);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->first.NumRows(), 250u);
    EXPECT_NE(result->first.FindColumn(result->second), nullptr);
  }
}

TEST(TabularTest, FullIncludesDimColumnsBaseDoesNot) {
  const SyntheticDataset ds = SmallTask();
  const auto base =
      MaterializeBaselineTable(ds.db, "base", "target", TabularBaseline::kBase);
  const auto full =
      MaterializeBaselineTable(ds.db, "base", "target", TabularBaseline::kFull);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(base->first.FindColumn("dim.dim_pnum0"), nullptr);
  EXPECT_NE(full->first.FindColumn("dim.dim_pnum0"), nullptr);
}

TEST(TabularTest, BuildDatasetsSplitsAndSelects) {
  const SyntheticDataset ds = SmallTask();
  const auto full =
      MaterializeBaselineTable(ds.db, "base", "target", TabularBaseline::kFull);
  ASSERT_TRUE(full.ok());
  std::vector<size_t> train_rows;
  std::vector<size_t> test_rows;
  for (size_t r = 0; r < 250; ++r) (r < 200 ? train_rows : test_rows).push_back(r);
  Rng rng(1);
  const auto datasets = BuildTabularDatasets(
      full->first, full->second, true, train_rows, test_rows, 5, &rng);
  ASSERT_TRUE(datasets.ok());
  EXPECT_EQ(datasets->first.NumRows(), 200u);
  EXPECT_EQ(datasets->second.NumRows(), 50u);
  EXPECT_EQ(datasets->first.NumFeatures(), 5u);
  EXPECT_EQ(datasets->second.NumFeatures(), 5u);
}

Word2VecOptions FastW2v() {
  Word2VecOptions w;
  w.dim = 8;
  w.epochs = 1;
  return w;
}

// A fitted model's features for `base`, labeled by its "target" column.
MLDataset FeaturizeBase(const EmbeddingModel& model, const Database& db) {
  const Table* base = db.FindTable("base");
  TargetEncoder encoder;
  EXPECT_TRUE(encoder.Fit(*base->FindColumn("target"), true).ok());
  auto features = model.Featurize(*base, "target", encoder, true);
  EXPECT_TRUE(features.ok()) << features.status().ToString();
  return std::move(features).value();
}

TEST(CorpusModelsTest, DirectWord2VecFitsAndFeaturizes) {
  const SyntheticDataset ds = SmallTask();
  DirectWord2VecModel model(FastW2v(), {}, 3);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  EXPECT_GT(model.embedding().size(), 0u);
  const MLDataset features = FeaturizeBase(model, ds.db);
  EXPECT_EQ(features.NumRows(), 250u);
  EXPECT_EQ(features.NumFeatures(), 8u);
}

// The token vectors must move well off their random init. Init draws each
// element from U(-0.5, 0.5) / dim, so the expected sum of squares at init is
// vocab / (12 dim). Fit removes the mean and the top principal direction, so
// what stays is what training learned beyond one common direction. With one
// sentence per row the Table 5 options trained so little that the whole
// embedding ended near its init sum (2.68 against 2.15 here).
TEST(CorpusModelsTest, DirectWord2VecVectorsLeaveTheirInit) {
  auto data = GenerateSynthetic(DatasetConfigByName("genes").value());
  ASSERT_TRUE(data.ok());
  Word2VecOptions w2v;  // the Table 5 options
  w2v.dim = 64;
  w2v.epochs = 2;
  DirectWord2VecModel model(w2v, {}, 3);
  ASSERT_TRUE(model.Fit(data->db).ok());
  const Embedding& emb = model.embedding();
  double sum_sq = 0;
  for (const std::string& key : emb.keys()) {
    for (const double v : emb.Get(key)) sum_sq += v * v;
  }
  const double at_init =
      static_cast<double>(emb.size()) / (12.0 * static_cast<double>(w2v.dim));
  EXPECT_GT(sum_sq, 4 * at_init)
      << "sum of squares " << sum_sq << " vs ~" << at_init << " at init";
}

TEST(CorpusModelsTest, DeeperWeightsDiffer) {
  const SyntheticDataset ds = SmallTask();
  DirectWord2VecModel direct(FastW2v(), {}, 3);
  DeeperModel deeper(FastW2v(), {}, 3);
  ASSERT_TRUE(direct.Fit(ds.db).ok());
  ASSERT_TRUE(deeper.Fit(ds.db).ok());
  // IDF weighting must change the composition.
  EXPECT_NE(FeaturizeBase(direct, ds.db).x.data(),
            FeaturizeBase(deeper, ds.db).x.data());
}

TEST(GraphModelsTest, Node2VecBuildsUnrefinedGraph) {
  const SyntheticDataset ds = SmallTask();
  Node2VecModel model(1.0, 0.5, FastW2v(), {}, 3);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  // Unrefined: no missing-data removal happened.
  EXPECT_EQ(model.graph().stats().tokens_removed_missing, 0u);
  const MLDataset features = FeaturizeBase(model, ds.db);
  EXPECT_EQ(features.NumRows(), 250u);
  EXPECT_EQ(features.NumFeatures(), 8u);
}

TEST(GraphModelsTest, EmbdiTripartiteHasColumnNodes) {
  const SyntheticDataset ds = SmallTask();
  EmbdiModel model(false, FastW2v(), {}, 3);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  // Column nodes exist: labeled "__col__<attr id>".
  EXPECT_TRUE(model.embedding().Has("__col__0"));
}

TEST(GraphModelsTest, EmbdiNormalizationMergesCaseVariants) {
  // Two tables with case-differing tokens: F merges them, S keeps them apart.
  Database db;
  for (const std::string name : {"a", "b"}) {
    Table t(name);
    Column c;
    c.name = "val";
    c.type = DataType::kString;
    for (int i = 0; i < 20; ++i) {
      c.values.push_back(Value(name == "a" ? "Widget" : "widget"));
    }
    ASSERT_TRUE(t.AddColumn(c).ok());
    ASSERT_TRUE(db.AddTable(t).ok());
  }
  EmbdiModel normalized(true, FastW2v(), {}, 3);
  ASSERT_TRUE(normalized.Fit(db).ok());
  EXPECT_TRUE(normalized.embedding().Has("widget"));
  EXPECT_FALSE(normalized.embedding().Has("Widget"));

  EmbdiModel raw(false, FastW2v(), {}, 3);
  ASSERT_TRUE(raw.Fit(db).ok());
  EXPECT_TRUE(raw.embedding().Has("Widget"));
}

TEST(LevaModelTest, AdapterMatchesPipeline) {
  const SyntheticDataset ds = SmallTask();
  LevaConfig config;
  config.embedding_dim = 8;
  config.method = EmbeddingMethod::kMatrixFactorization;
  LevaModel model(config);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  EXPECT_EQ(model.dim(), 16u);  // Row + Value
  const MLDataset features = FeaturizeBase(model, ds.db);
  EXPECT_EQ(features.NumFeatures(), 16u);
  EXPECT_EQ(features.NumRows(), 250u);
}

TEST(RowwiseFeaturizeTest, EncodesTargets) {
  const SyntheticDataset ds = SmallTask();
  DirectWord2VecModel model(FastW2v(), {}, 3);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  for (const double y : FeaturizeBase(model, ds.db).y) {
    EXPECT_TRUE(y == 0.0 || y == 1.0);
  }
}

TEST(RowwiseFeaturizeTest, EmptyTargetEncodesNothing) {
  const SyntheticDataset ds = SmallTask();
  Node2VecModel model(1.0, 1.0, FastW2v(), {}, 3);
  ASSERT_TRUE(model.Fit(ds.db).ok());
  const Table* base = ds.db.FindTable("base");
  const auto features = model.Featurize(*base, "", TargetEncoder(), true);
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_EQ(features->NumRows(), base->NumRows());
  EXPECT_EQ(features->y, std::vector<double>(base->NumRows(), 0.0));
  EXPECT_EQ(model.Featurize(*base, "no_such_column", TargetEncoder(), true)
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace leva
