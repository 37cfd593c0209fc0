#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/string_util.h"
#include "datagen/datasets.h"
#include "datagen/er_data.h"
#include "datagen/synthetic.h"
#include "reference/textify_reference.h"

namespace leva {
namespace {

SyntheticConfig TinyConfig() {
  SyntheticConfig c;
  c.base_rows = 200;
  c.dims = {
      {.name = "d1", .rows = 40, .predictive_numeric = 1,
       .predictive_categorical = 1, .noise_numeric = 1,
       .noise_categorical = 1, .categories = 5, .parent = ""},
      {.name = "d2", .rows = 30, .predictive_numeric = 1,
       .predictive_categorical = 0, .noise_numeric = 0,
       .noise_categorical = 0, .categories = 5, .parent = "d1"},
  };
  c.seed = 9;
  return c;
}

TEST(SyntheticTest, GeneratesExpectedShape) {
  const auto ds = GenerateSynthetic(TinyConfig());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->db.tables().size(), 3u);  // base + 2 dims
  const Table* base = ds->db.FindTable("base");
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->NumRows(), 200u);
  EXPECT_NE(base->FindColumn("target"), nullptr);
  EXPECT_NE(base->FindColumn("fk_d1"), nullptr);
  // d2 hangs off d1, not the base table.
  EXPECT_EQ(base->FindColumn("fk_d2"), nullptr);
  EXPECT_NE(ds->db.FindTable("d1")->FindColumn("fk_d2"), nullptr);
}

TEST(SyntheticTest, ForeignKeysRecorded) {
  const auto ds = GenerateSynthetic(TinyConfig());
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->db.foreign_keys().size(), 2u);
  // Chain FK: d1 -> d2.
  bool chain_found = false;
  for (const ForeignKey& fk : ds->db.foreign_keys()) {
    if (fk.child_table == "d1" && fk.parent_table == "d2") chain_found = true;
  }
  EXPECT_TRUE(chain_found);
}

TEST(SyntheticTest, FkValuesResolve) {
  const auto ds = GenerateSynthetic(TinyConfig());
  ASSERT_TRUE(ds.ok());
  const Table* base = ds->db.FindTable("base");
  const Table* d1 = ds->db.FindTable("d1");
  std::set<std::string> keys;
  for (const Value& v : d1->FindColumn("d1_id")->values) {
    keys.insert(v.as_string());
  }
  for (const Value& v : base->FindColumn("fk_d1")->values) {
    EXPECT_TRUE(keys.count(v.as_string()) > 0);
  }
}

TEST(SyntheticTest, ClassificationTargetBalanced) {
  SyntheticConfig c = TinyConfig();
  c.classification = true;
  c.num_classes = 3;
  c.base_rows = 600;
  const auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  std::map<std::string, size_t> counts;
  for (const Value& v :
       ds->db.FindTable("base")->FindColumn("target")->values) {
    ++counts[v.as_string()];
  }
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [label, n] : counts) {
    EXPECT_GT(n, 120u);  // roughly balanced thirds of 600
  }
}

TEST(SyntheticTest, RegressionTargetNumeric) {
  SyntheticConfig c = TinyConfig();
  c.classification = false;
  const auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  for (const Value& v :
       ds->db.FindTable("base")->FindColumn("target")->values) {
    EXPECT_TRUE(v.is_numeric());
  }
}

TEST(SyntheticTest, MissingInjectionProducesNullsAndQuestionMarks) {
  SyntheticConfig c = TinyConfig();
  c.missing_rate = 0.3;
  const auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  size_t nulls = 0;
  size_t questions = 0;
  for (const Column& col : ds->db.FindTable("d1")->columns()) {
    for (const Value& v : col.values) {
      if (v.is_null()) ++nulls;
      if (v.is_string() && v.as_string() == "?") ++questions;
    }
  }
  EXPECT_GT(nulls, 0u);
  EXPECT_GT(questions, 0u);
  // Base table target stays clean.
  for (const Value& v :
       ds->db.FindTable("base")->FindColumn("target")->values) {
    EXPECT_FALSE(v.is_null());
  }
}

TEST(SyntheticTest, DeterministicForSeed) {
  const auto a = GenerateSynthetic(TinyConfig());
  const auto b = GenerateSynthetic(TinyConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->latent_score, b->latent_score);
}

TEST(SyntheticTest, LatentScoreDrivesTarget) {
  SyntheticConfig c = TinyConfig();
  c.classification = false;
  c.label_noise = 0.01;
  const auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  // Correlation between latent score and the target must be strong.
  const auto& target = ds->db.FindTable("base")->FindColumn("target")->values;
  double sum_xy = 0;
  double sum_x = 0;
  double sum_y = 0;
  double sum_xx = 0;
  double sum_yy = 0;
  const size_t n = target.size();
  for (size_t i = 0; i < n; ++i) {
    const double x = ds->latent_score[i];
    const double y = target[i].ToNumeric();
    sum_xy += x * y;
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_yy += y * y;
  }
  const double corr =
      (n * sum_xy - sum_x * sum_y) /
      std::sqrt((n * sum_xx - sum_x * sum_x) * (n * sum_yy - sum_y * sum_y));
  EXPECT_GT(corr, 0.95);
}

TEST(SyntheticTest, InvalidConfigsRejected) {
  SyntheticConfig empty;
  empty.base_rows = 0;
  EXPECT_FALSE(GenerateSynthetic(empty).ok());

  SyntheticConfig bad_parent = TinyConfig();
  bad_parent.dims[1].parent = "nonexistent";
  EXPECT_FALSE(GenerateSynthetic(bad_parent).ok());
}

TEST(StudentTest, SchemaMatchesPaper) {
  const auto ds = GenerateStudent(50, 0, 1);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->db.tables().size(), 3u);
  const Table* expenses = ds->db.FindTable("expenses");
  ASSERT_NE(expenses, nullptr);
  EXPECT_NE(expenses->FindColumn("gender"), nullptr);
  EXPECT_NE(expenses->FindColumn("school_name"), nullptr);
  EXPECT_NE(expenses->FindColumn("total_expenses"), nullptr);
  EXPECT_EQ(ds->db.FindTable("order_info")->NumRows(), 100u);  // 2 per student
  EXPECT_EQ(ds->db.foreign_keys().size(), 2u);
}

TEST(StudentTest, TotalExpensesEqualsOrderedPrices) {
  const auto ds = GenerateStudent(30, 0, 2);
  ASSERT_TRUE(ds.ok());
  const Table* orders = ds->db.FindTable("order_info");
  const Table* prices = ds->db.FindTable("price_info");
  std::map<std::string, double> price_of;
  for (size_t r = 0; r < prices->NumRows(); ++r) {
    price_of[prices->at(r, 0).as_string()] = prices->at(r, 1).ToNumeric();
  }
  std::map<std::string, double> total;
  for (size_t r = 0; r < orders->NumRows(); ++r) {
    total[orders->at(r, 0).as_string()] +=
        price_of[orders->at(r, 1).as_string()];
  }
  const Table* expenses = ds->db.FindTable("expenses");
  for (size_t r = 0; r < expenses->NumRows(); ++r) {
    EXPECT_NEAR(expenses->FindColumn("total_expenses")->values[r].ToNumeric(),
                total[expenses->at(r, 0).as_string()], 1e-9);
  }
}

TEST(StudentTest, NoiseAttributesAppended) {
  const auto ds = GenerateStudent(20, 3, 4);
  ASSERT_TRUE(ds.ok());
  EXPECT_NE(ds->db.FindTable("expenses")->FindColumn("exp_noise2"), nullptr);
  EXPECT_NE(ds->db.FindTable("order_info")->FindColumn("ord_noise0"), nullptr);
  EXPECT_NE(ds->db.FindTable("price_info")->FindColumn("pri_noise1"), nullptr);
}

TEST(ReplicateTest, GrowsRowsAndTokensLinearly) {
  const auto ds = GenerateStudent(20, 0, 5);
  ASSERT_TRUE(ds.ok());
  const auto replicated = ReplicateDatabase(ds->db, 3);
  ASSERT_TRUE(replicated.ok());
  EXPECT_EQ(replicated->FindTable("expenses")->NumRows(), 60u);
  // Distinct string tokens grow: copy suffixes keep them apart.
  std::set<std::string> names;
  for (const Value& v :
       replicated->FindTable("expenses")->FindColumn("name")->values) {
    names.insert(v.as_string());
  }
  EXPECT_EQ(names.size(), 60u);
}

TEST(ReplicateTest, NumericValuesShiftedPerCopy) {
  const auto ds = GenerateStudent(10, 0, 6);
  ASSERT_TRUE(ds.ok());
  const auto replicated = ReplicateDatabase(ds->db, 2);
  ASSERT_TRUE(replicated.ok());
  const Column* prices = replicated->FindTable("price_info")->FindColumn("prices");
  // Second copy values exceed the first copy's maximum.
  double max_first = 0;
  double min_second = 1e18;
  for (size_t r = 0; r < 50; ++r) max_first = std::max(max_first, prices->values[r].ToNumeric());
  for (size_t r = 50; r < 100; ++r) min_second = std::min(min_second, prices->values[r].ToNumeric());
  EXPECT_GT(min_second, max_first);
}

TEST(ReplicateTest, FactorZeroRejected) {
  Database db;
  EXPECT_FALSE(ReplicateDatabase(db, 0).ok());
}

TEST(NamedConfigsTest, AllResolveAndMatchTableCounts) {
  for (const auto& [name, tables] :
       std::vector<std::pair<std::string, size_t>>{{"genes", 3},
                                                   {"kraken", 10},
                                                   {"ftp", 2},
                                                   {"financial", 8},
                                                   {"restbase", 3},
                                                   {"bio", 3}}) {
    const auto config = DatasetConfigByName(name);
    ASSERT_TRUE(config.ok()) << name;
    const auto ds = GenerateSynthetic(*config);
    ASSERT_TRUE(ds.ok()) << name;
    EXPECT_EQ(ds->db.tables().size(), tables) << name;
  }
  EXPECT_FALSE(DatasetConfigByName("nope").ok());
}

TEST(NamedConfigsTest, TaskTypesMatchTable4) {
  EXPECT_TRUE(GenesConfig().classification);
  EXPECT_EQ(GenesConfig().num_classes, 3u);
  EXPECT_TRUE(FinancialConfig().classification);
  EXPECT_FALSE(RestbaseConfig().classification);
  EXPECT_FALSE(BioConfig().classification);
  EXPECT_GT(GenesConfig().missing_rate, 0.0);
  EXPECT_DOUBLE_EQ(KrakenConfig().missing_rate, 0.0);
}

TEST(ErDataTest, GeneratesLabeledPairs) {
  ErConfig config;
  config.entities = 50;
  const auto ds = GenerateErDataset(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table_a.NumRows(), 50u);
  EXPECT_EQ(ds->table_b.NumRows(), 50u);
  size_t matches = 0;
  for (const ErPair& p : ds->pairs) {
    EXPECT_LT(p.row_a, 50u);
    EXPECT_LT(p.row_b, 50u);
    if (p.match) ++matches;
  }
  EXPECT_EQ(matches, 50u);
  EXPECT_EQ(ds->pairs.size(), 50u * (1 + config.negatives_per_match));
}

TEST(ErDataTest, MatchedRowsShareTokens) {
  ErConfig config;
  config.entities = 30;
  config.perturbation = 0.1;
  const auto ds = GenerateErDataset(config);
  ASSERT_TRUE(ds.ok());
  // For most matches, the name strings share at least one word.
  size_t sharing = 0;
  size_t total = 0;
  for (const ErPair& p : ds->pairs) {
    if (!p.match) continue;
    ++total;
    const std::string a = ds->table_a.at(p.row_a, 0).as_string();
    const std::string b = ds->table_b.at(p.row_b, 0).as_string();
    std::set<std::string> a_tokens;
    for (const auto& t : Split(a, ' ')) a_tokens.insert(t);
    for (const auto& t : Split(b, ' ')) {
      if (a_tokens.count(t)) {
        ++sharing;
        break;
      }
    }
  }
  EXPECT_GT(sharing, total * 8 / 10);
}

TEST(ErDataTest, NamedConfigsOrderedByDifficulty) {
  const auto easy = ErDatasetByName("beeradvo_ratebeer");
  const auto medium = ErDatasetByName("walmart_amazon");
  const auto hard = ErDatasetByName("amazon_google");
  ASSERT_TRUE(easy.ok());
  ASSERT_TRUE(medium.ok());
  ASSERT_TRUE(hard.ok());
  EXPECT_FALSE(ErDatasetByName("zzz").ok());
}

}  // namespace
}  // namespace leva
