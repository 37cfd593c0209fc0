#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "reference/textify_reference.h"
#include "table/table.h"
#include "text/histogram.h"
#include "text/textifier.h"

namespace leva {
namespace {

TEST(KurtosisTest, NormalIsAboutThree) {
  Rng rng(5);
  std::vector<double> values(20000);
  for (double& v : values) v = rng.Normal();
  EXPECT_NEAR(Kurtosis(values), 3.0, 0.3);
}

TEST(KurtosisTest, HeavyTailExceedsThree) {
  Rng rng(6);
  std::vector<double> values(20000);
  for (double& v : values) {
    // Mixture: mostly small, occasionally huge -> heavy tail.
    v = rng.Bernoulli(0.02) ? rng.Normal() * 50.0 : rng.Normal();
  }
  EXPECT_GT(Kurtosis(values), kHeavyTailKurtosis);
}

TEST(KurtosisTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Kurtosis({}), 0.0);
  EXPECT_DOUBLE_EQ(Kurtosis({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Kurtosis({2.0, 2.0, 2.0}), 0.0);  // zero variance
}

TEST(HistogramTest, EquiWidthBinsAreUniformWidth) {
  std::vector<double> values;
  for (int i = 0; i <= 100; ++i) values.push_back(static_cast<double>(i));
  const Histogram h = Histogram::Fit(values, 10, HistogramType::kEquiWidth);
  EXPECT_EQ(h.num_bins(), 10u);
  EXPECT_EQ(h.BinOf(0.0), 0u);
  EXPECT_EQ(h.BinOf(100.0), 9u);
  EXPECT_EQ(h.BinOf(55.0), 5u);
}

TEST(HistogramTest, OutOfRangeClamps) {
  const Histogram h =
      Histogram::Fit({0.0, 10.0}, 5, HistogramType::kEquiWidth);
  EXPECT_EQ(h.BinOf(-100.0), 0u);
  EXPECT_EQ(h.BinOf(1e9), h.num_bins() - 1);
}

TEST(HistogramTest, EquiDepthBalancesCounts) {
  Rng rng(7);
  std::vector<double> values(10000);
  for (double& v : values) v = std::exp(rng.Normal() * 2.0);  // skewed
  const Histogram h = Histogram::Fit(values, 10, HistogramType::kEquiDepth);
  std::vector<size_t> counts(h.num_bins(), 0);
  for (const double v : values) ++counts[h.BinOf(v)];
  const size_t expected = values.size() / h.num_bins();
  for (const size_t c : counts) {
    EXPECT_GT(c, expected / 3);
    EXPECT_LT(c, expected * 3);
  }
}

TEST(HistogramTest, ConstantColumnOneBin) {
  const Histogram h =
      Histogram::Fit({5.0, 5.0, 5.0}, 10, HistogramType::kEquiWidth);
  EXPECT_EQ(h.num_bins(), 1u);
  EXPECT_EQ(h.BinOf(5.0), 0u);
  EXPECT_EQ(h.BinOf(99.0), 0u);
}

TEST(HistogramTest, EmptyInputOneBin) {
  const Histogram h = Histogram::Fit({}, 10, HistogramType::kEquiWidth);
  EXPECT_EQ(h.num_bins(), 1u);
}

TEST(HistogramTest, FitAutoPicksEquiDepthForHeavyTails) {
  Rng rng(8);
  std::vector<double> heavy(5000);
  for (double& v : heavy) {
    v = rng.Bernoulli(0.02) ? rng.Normal() * 100.0 : rng.Normal();
  }
  EXPECT_EQ(Histogram::FitAuto(heavy, 10).type(), HistogramType::kEquiDepth);

  std::vector<double> uniform(5000);
  for (double& v : uniform) v = rng.Uniform();
  EXPECT_EQ(Histogram::FitAuto(uniform, 10).type(),
            HistogramType::kEquiWidth);
}

// Property sweep: monotone bin assignment for all histogram configurations.
class HistogramPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, HistogramType>> {};

TEST_P(HistogramPropertyTest, BinAssignmentIsMonotone) {
  const auto [bins, type] = GetParam();
  Rng rng(static_cast<uint64_t>(bins) * 31 + 1);
  std::vector<double> values(3000);
  for (double& v : values) v = rng.Normal() * 10.0;
  const Histogram h = Histogram::Fit(values, bins, type);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  size_t prev = 0;
  for (const double v : sorted) {
    const size_t bin = h.BinOf(v);
    EXPECT_GE(bin, prev);
    EXPECT_LT(bin, h.num_bins());
    prev = bin;
  }
}

TEST_P(HistogramPropertyTest, EffectiveBinCountBounded) {
  const auto [bins, type] = GetParam();
  Rng rng(static_cast<uint64_t>(bins) * 17 + 3);
  std::vector<double> values(500);
  for (double& v : values) v = rng.Uniform(0, 100);
  const Histogram h = Histogram::Fit(values, bins, type);
  EXPECT_LE(h.num_bins(), bins == 0 ? 1 : bins);
  EXPECT_GE(h.num_bins(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(2, 5, 10, 50, 160),
                       ::testing::Values(HistogramType::kEquiWidth,
                                         HistogramType::kEquiDepth)));

Database MakeTypedDb() {
  Database db;
  Table t("t");
  Column key;
  key.name = "id";
  key.type = DataType::kString;
  Column num;
  num.name = "amount";
  num.type = DataType::kDouble;
  Column cat;
  cat.name = "color";
  cat.type = DataType::kString;
  Column list;
  list.name = "tags";
  list.type = DataType::kString;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    key.values.push_back(Value("id_" + std::to_string(i)));
    num.values.push_back(Value(rng.Uniform(0, 100)));
    cat.values.push_back(Value(i % 2 == 0 ? std::string("red") : std::string("blue")));
    list.values.push_back(Value("tag" + std::to_string(i % 3) + ",tag" +
                                std::to_string(i % 5)));
  }
  EXPECT_TRUE(t.AddColumn(key).ok());
  EXPECT_TRUE(t.AddColumn(num).ok());
  EXPECT_TRUE(t.AddColumn(cat).ok());
  EXPECT_TRUE(t.AddColumn(list).ok());
  EXPECT_TRUE(db.AddTable(t).ok());
  return db;
}

TEST(TextifierTest, ClassifiesColumnTypes) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  EXPECT_EQ(tx.FindColumn("t", "id")->cls, ColumnClass::kKey);
  EXPECT_EQ(tx.FindColumn("t", "amount")->cls, ColumnClass::kNumeric);
  EXPECT_EQ(tx.FindColumn("t", "color")->cls, ColumnClass::kStringAtomic);
  EXPECT_EQ(tx.FindColumn("t", "tags")->cls, ColumnClass::kStringList);
  EXPECT_EQ(tx.FindColumn("t", "nope"), nullptr);
}

TEST(TextifierTest, FloatColumnIsNeverKey) {
  Database db;
  Table t("t");
  Column c;
  c.name = "f";
  c.type = DataType::kDouble;
  for (int i = 0; i < 50; ++i) c.values.push_back(Value(i + 0.5));
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  EXPECT_EQ(tx.FindColumn("t", "f")->cls, ColumnClass::kNumeric);
}

TEST(TextifierTest, NumericTokensAreBinned) {
  const Database db = MakeTypedDb();
  TextifyOptions options;
  options.bin_count = 10;
  Textifier tx(options);
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tokens = TransformOneCell(tx, "t", "amount", Value(50.0));
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_TRUE(tokens->front().starts_with("amount#bin"));
}

TEST(TextifierTest, UnseenNumericFallsIntoExistingBin) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  // Way outside the fitted range: clamps to the last bin rather than failing.
  const auto tokens = TransformOneCell(tx, "t", "amount", Value(1e9));
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
}

TEST(TextifierTest, NullEmitsNothing) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tokens = TransformOneCell(tx, "t", "amount", Value::Null());
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens->empty());
}

TEST(TextifierTest, ListsSplitIntoElements) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tokens = TransformOneCell(tx, "t", "tags", Value("a, b ,c"));
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[1], "b");
}

TEST(TextifierTest, MissingStringTokenPassesThrough) {
  // Literal "?" must reach the graph so the voting mechanism can remove it.
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tokens = TransformOneCell(tx, "t", "color", Value("?"));
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ(tokens->front(), "?");
}

TEST(TextifierTest, TransformWholeTable) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tt = tx.Transform(db.tables()[0]);
  ASSERT_TRUE(tt.ok());
  EXPECT_EQ(tt->rows.size(), 100u);
  // id + amount + color + 2 list elements = 5 tokens per row.
  EXPECT_EQ(tt->rows[0].size(), 5u);
}

// Every column class, with the cells each branch of the rule special-cases:
// nulls, a dirty numeric cell, list cells with empty and blank fields, int
// and integral-double keys, and datetimes.
Database MakeEveryClassDb() {
  Database db = MakeTypedDb();
  Table& t = db.mutable_tables()[0];
  t.mutable_column(1).values[3] = Value::Null();
  t.mutable_column(1).values[4] = Value("  ? ");
  t.mutable_column(2).values[5] = Value::Null();
  t.mutable_column(2).values[6] = Value("  ");
  t.mutable_column(3).values[6] = Value(" a ,, b ");
  t.mutable_column(3).values[7] = Value(",,");
  t.mutable_column(3).values[8] = Value("");
  t.mutable_column(3).values[9] = Value::Null();
  Column int_key;
  int_key.name = "int_id";
  int_key.type = DataType::kInt;
  Column double_key;
  double_key.name = "double_id";
  double_key.type = DataType::kDouble;
  Column ts;
  ts.name = "ts";
  ts.type = DataType::kDatetime;
  for (int i = 0; i < 100; ++i) {
    int_key.values.push_back(Value(int64_t{7} * i - 300));
    double_key.values.push_back(Value(1000.0 + i));
    ts.values.push_back(Value(int64_t{1600000000} + int64_t{86400} * i));
  }
  int_key.values[10] = Value::Null();
  ts.values[11] = Value::Null();
  ts.values[12] = Value("n/a");
  EXPECT_TRUE(t.AddColumn(int_key).ok());
  EXPECT_TRUE(t.AddColumn(double_key).ok());
  EXPECT_TRUE(t.AddColumn(ts).ok());
  return db;
}

TEST(TextifierTest, TransformColumnAndTransformMatchReference) {
  const Database db = MakeEveryClassDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const Table& fitted = db.tables()[0];
  ASSERT_EQ(fitted.NumColumns(), 7u);
  EXPECT_EQ(tx.FindColumn("t", "int_id")->cls, ColumnClass::kKey);
  EXPECT_EQ(tx.FindColumn("t", "double_id")->cls, ColumnClass::kKey);
  EXPECT_EQ(tx.FindColumn("t", "ts")->cls, ColumnClass::kDatetime);
  EXPECT_EQ(tx.FindColumn("t", "tags")->cls, ColumnClass::kStringList);

  // Unseen rows: numerics and datetimes on both sides of the fitted range.
  Table unseen = fitted;
  unseen.mutable_column(1).values[20] = Value(1e9);
  unseen.mutable_column(1).values[21] = Value(-1e9);
  unseen.mutable_column(1).values[22] = Value(int64_t{50});
  unseen.mutable_column(6).values[23] = Value(int64_t{0});
  unseen.mutable_column(6).values[24] = Value(int64_t{4000000000});

  for (const Table* t : std::vector<const Table*>{&fitted, &unseen}) {
    const auto whole = tx.Transform(*t);
    ASSERT_TRUE(whole.ok());
    ASSERT_EQ(whole->rows.size(), t->NumRows());
    std::vector<std::vector<TextToken>> expected_rows(t->NumRows());
    for (size_t c = 0; c < t->NumColumns(); ++c) {
      const Column& col = t->column(c);
      const uint32_t attr_id = tx.FindColumn("t", col.name)->attr_id;
      const auto batched = tx.TransformColumn("t", col);
      ASSERT_TRUE(batched.ok()) << col.name;
      ASSERT_EQ(batched->NumRows(), col.size());
      for (size_t r = 0; r < col.size(); ++r) {
        const auto cell = ReferenceCellTokens(tx, "t", col.name, col.values[r]);
        ASSERT_TRUE(cell.ok());
        const std::vector<std::string> got(
            batched->tokens.begin() + batched->offsets[r],
            batched->tokens.begin() + batched->offsets[r + 1]);
        EXPECT_EQ(got, *cell) << col.name << " row " << r;
        for (const std::string& token : *cell) {
          expected_rows[r].push_back({attr_id, token});
        }
      }
    }
    // Transform lists each row's tokens column by column, in schema order.
    for (size_t r = 0; r < t->NumRows(); ++r) {
      const std::vector<TextToken>& row = whole->rows[r];
      ASSERT_EQ(row.size(), expected_rows[r].size()) << "row " << r;
      for (size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(row[i].attr_id, expected_rows[r][i].attr_id) << "row " << r;
        EXPECT_EQ(row[i].token, expected_rows[r][i].token) << "row " << r;
      }
    }
  }
}

TEST(TextifierTest, TransformColumnRowRange) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const Column& col = db.tables()[0].column(3);  // tags: 2 tokens per row
  const auto batched = tx.TransformColumn("t", col, 10, 15);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->NumRows(), 5u);
  EXPECT_EQ(batched->tokens.size(), 10u);
  const auto full = tx.TransformColumn("t", col);
  ASSERT_TRUE(full.ok());
  // Local offsets of the slice line up with the matching span of the full
  // transform.
  for (size_t i = 0; i < batched->tokens.size(); ++i) {
    EXPECT_EQ(batched->tokens[i], full->tokens[full->offsets[10] + i]);
  }
  EXPECT_FALSE(tx.TransformColumn("t", col, 5, 200).ok());
  EXPECT_FALSE(tx.TransformColumn("nope", col).ok());
}

TEST(TextifierTest, UnknownTableFails) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  Table other("other");
  Column c;
  c.name = "x";
  ASSERT_TRUE(other.AddColumn(c).ok());
  EXPECT_FALSE(tx.Transform(other).ok());
}

TEST(TextifierTest, AttributeRegistry) {
  const Database db = MakeTypedDb();
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  EXPECT_EQ(tx.NumAttributes(), 4u);
}

TEST(TextifierTest, SpaceSeparatedStringsSplit) {
  Database db;
  Table t("p");
  Column name;
  name.name = "title";
  name.type = DataType::kString;
  for (int i = 0; i < 30; ++i) {
    name.values.push_back(Value("alpha beta gamma"));
  }
  ASSERT_TRUE(t.AddColumn(name).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto tokens = TransformOneCell(tx, "p", "title", Value("alpha beta"));
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 2u);
}

// Bin-count sweep: every configuration produces at most bin_count distinct
// numeric tokens for a column.
class TextifierBinSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TextifierBinSweep, TokenCardinalityBounded) {
  const size_t bins = GetParam();
  const Database db = MakeTypedDb();
  TextifyOptions options;
  options.bin_count = bins;
  Textifier tx(options);
  ASSERT_TRUE(tx.Fit(db).ok());
  const auto column = tx.TransformColumn("t", db.tables()[0].column(1));
  ASSERT_TRUE(column.ok());
  const std::set<std::string_view> distinct(column->tokens.begin(),
                                            column->tokens.end());
  EXPECT_LE(distinct.size(), bins);
  EXPECT_GE(distinct.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TextifierBinSweep,
                         ::testing::Values<size_t>(2, 10, 20, 40, 80, 160));

}  // namespace
}  // namespace leva
