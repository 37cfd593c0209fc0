#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "baselines/leva_model.h"
#include "datagen/er_data.h"
#include "er/entity_resolution.h"
#include "reference/featurize_reference.h"

namespace leva {
namespace {

ErDataset SmallEr(double perturbation) {
  ErConfig config;
  config.entities = 120;
  config.perturbation = perturbation;
  config.seed = 21;
  auto ds = GenerateErDataset(config);
  EXPECT_TRUE(ds.ok());
  return std::move(ds).value();
}

LevaConfig FastLeva() {
  LevaConfig config;
  config.embedding_dim = 16;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.featurization = Featurization::kRowOnly;
  config.seed = 9;
  return config;
}

TEST(ErTest, DatabaseHelper) {
  const ErDataset ds = SmallEr(0.1);
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->tables().size(), 2u);
}

// The ER harness featurizes each table with one batched, unlabeled
// Featurize call over its fitted rows. Those rows must be the row-at-a-time
// vectors bit for bit, so Table 8 does not move with the featurizer.
TEST(ErTest, BatchedRowsMatchRowAtATimeVectors) {
  const ErDataset ds = SmallEr(0.1);
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  for (const Featurization mode :
       {Featurization::kRowOnly, Featurization::kRowPlusValue}) {
    LevaConfig config = FastLeva();
    config.featurization = mode;
    LevaModel model(config);
    ASSERT_TRUE(model.Fit(*db).ok());
    for (const Table* table : {&ds.table_a, &ds.table_b}) {
      const auto batched =
          model.Featurize(*table, "", TargetEncoder(), /*rows_in_graph=*/true);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ASSERT_EQ(batched->NumRows(), table->NumRows());
      ASSERT_EQ(batched->NumFeatures(), model.dim());
      for (size_t r = 0; r < table->NumRows(); ++r) {
        const auto row = ReferenceRowVector(model.pipeline(), *table, r, "",
                                            /*rows_in_graph=*/true);
        ASSERT_TRUE(row.ok());
        ASSERT_EQ(row->size(), model.dim());
        EXPECT_EQ(0, std::memcmp(batched->x.RowPtr(r), row->data(),
                                 row->size() * sizeof(double)))
            << table->name() << " row " << r;
      }
    }
  }
}

TEST(ErTest, LevaResolvesLightlyPerturbedEntities) {
  const ErDataset ds = SmallEr(0.1);
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  LevaModel model(FastLeva());
  ASSERT_TRUE(model.Fit(*db).ok());
  const auto result = EvaluateEntityResolution(model, ds);
  ASSERT_TRUE(result.ok());
  // Light perturbation: matching should clearly beat the 33% positive rate.
  EXPECT_GT(result->f1, 0.6);
}

TEST(ErTest, HarderPerturbationLowersF1) {
  const ErDataset easy = SmallEr(0.05);
  const ErDataset hard = SmallEr(0.6);
  const auto easy_db = ErDatabase(easy);
  const auto hard_db = ErDatabase(hard);
  ASSERT_TRUE(easy_db.ok());
  ASSERT_TRUE(hard_db.ok());

  LevaModel easy_model(FastLeva());
  ASSERT_TRUE(easy_model.Fit(*easy_db).ok());
  const auto easy_result = EvaluateEntityResolution(easy_model, easy);
  ASSERT_TRUE(easy_result.ok());

  LevaModel hard_model(FastLeva());
  ASSERT_TRUE(hard_model.Fit(*hard_db).ok());
  const auto hard_result = EvaluateEntityResolution(hard_model, hard);
  ASSERT_TRUE(hard_result.ok());

  EXPECT_GE(easy_result->f1 + 0.05, hard_result->f1);
}

TEST(ErTest, PrecisionRecallWithinBounds) {
  const ErDataset ds = SmallEr(0.2);
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  LevaModel model(FastLeva());
  ASSERT_TRUE(model.Fit(*db).ok());
  const auto result = EvaluateEntityResolution(model, ds);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->precision, 0.0);
  EXPECT_LE(result->precision, 1.0);
  EXPECT_GE(result->recall, 0.0);
  EXPECT_LE(result->recall, 1.0);
}

// Row vectors dominated by one shared direction: 10 in every coordinate,
// plus a 0.005-scale offset per entity and a 0.0005-scale offset per row. A
// matched pair shares its entity offset. Every pair's cosine is >= 0.999,
// and the features that separate matches are four orders of magnitude
// below the common component.
class NearlyParallelModel : public RowwiseEmbeddingModel {
 public:
  NearlyParallelModel(const ErDataset& ds, size_t dim) : dim_(dim) {
    for (size_t r = 0; r < ds.table_a.NumRows(); ++r) entity_a_[r] = r;
    size_t next = ds.table_a.NumRows();
    for (const ErPair& pair : ds.pairs) {
      if (pair.match) entity_b_[pair.row_b] = entity_a_[pair.row_a];
    }
    for (size_t r = 0; r < ds.table_b.NumRows(); ++r) {
      if (entity_b_.count(r) == 0) entity_b_[r] = next++;
    }
  }

  Status Fit(const Database&) override { return Status::OK(); }
  size_t dim() const override { return dim_; }
  const Embedding& embedding() const override { return embedding_; }

 protected:
  Result<std::vector<double>> RowVector(const Table& table, size_t row,
                                        const std::string&,
                                        bool) const override {
    const bool in_a = table.name() == "table_a";
    const size_t entity = in_a ? entity_a_.at(row) : entity_b_.at(row);
    Rng entity_rng(1000 + entity);
    Rng row_rng((in_a ? 1u : 2u) * 100000 + row);
    std::vector<double> v(dim_);
    for (double& x : v) {
      x = 10.0 + 0.005 * entity_rng.Normal() + 0.0005 * row_rng.Normal();
    }
    return v;
  }

 private:
  size_t dim_;
  std::map<size_t, size_t> entity_a_;
  std::map<size_t, size_t> entity_b_;
  Embedding embedding_;
};

TEST(ErTest, NearlyParallelVectorsStillResolve) {
  const ErDataset ds = SmallEr(0.1);
  const NearlyParallelModel model(ds, 16);
  const auto rows_a = model.Featurize(ds.table_a, "", TargetEncoder(), true);
  const auto rows_b = model.Featurize(ds.table_b, "", TargetEncoder(), true);
  ASSERT_TRUE(rows_a.ok());
  ASSERT_TRUE(rows_b.ok());
  double min_cosine = 1.0;
  for (const ErPair& pair : ds.pairs) {
    const double* a = rows_a->x.RowPtr(pair.row_a);
    const double* b = rows_b->x.RowPtr(pair.row_b);
    double dot = 0, na = 0, nb = 0;
    for (size_t j = 0; j < model.dim(); ++j) {
      dot += a[j] * b[j];
      na += a[j] * a[j];
      nb += b[j] * b[j];
    }
    min_cosine = std::min(min_cosine, dot / std::sqrt(na * nb));
  }
  ASSERT_GE(min_cosine, 0.999);
  const auto result = EvaluateEntityResolution(model, ds);
  ASSERT_TRUE(result.ok());
  // Unstandardized, the regression predicts no match at all (F1 0).
  EXPECT_GT(result->recall, 0.0);
  EXPECT_GT(result->f1, 0.9);
}

TEST(ErTest, EmptyPairsRejected) {
  ErDataset ds = SmallEr(0.1);
  ds.pairs.clear();
  LevaModel model(FastLeva());
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(model.Fit(*db).ok());
  EXPECT_FALSE(EvaluateEntityResolution(model, ds).ok());
}

TEST(ErTest, OutOfRangePairRejected) {
  ErDataset ds = SmallEr(0.1);
  const auto db = ErDatabase(ds);
  ASSERT_TRUE(db.ok());
  LevaModel model(FastLeva());
  ASSERT_TRUE(model.Fit(*db).ok());
  ds.pairs[0].row_b = ds.table_b.NumRows();
  const auto result = EvaluateEntityResolution(model, ds);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace leva
