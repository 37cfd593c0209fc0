#include <gtest/gtest.h>

#include "table/csv.h"
#include "table/join.h"
#include "table/table.h"
#include "table/value.h"

namespace leva {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToDisplayString(), "");
}

TEST(ValueTest, IntAndDouble) {
  EXPECT_EQ(Value(int64_t{5}).ToDisplayString(), "5");
  EXPECT_EQ(Value(5.0).ToDisplayString(), "5");  // integral double == int token
  EXPECT_EQ(Value(int64_t{7}).ToNumeric(), 7.0);
  EXPECT_TRUE(Value(3.5).is_numeric());
}

TEST(ValueTest, IntegralDoubleCollidesWithInt) {
  // The graph construction relies on syntactic collision across types.
  EXPECT_EQ(Value(42.0).ToDisplayString(), Value(int64_t{42}).ToDisplayString());
}

TEST(ValueTest, StringRoundTrip) {
  Value v("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "hello");
  EXPECT_EQ(v.ToDisplayString(), "hello");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{1}) == Value(1.0));
  EXPECT_EQ(Value::Null(), Value::Null());
}

Table MakeSmallTable() {
  Table t("t");
  Column a;
  a.name = "a";
  a.type = DataType::kInt;
  a.values = {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})};
  Column b;
  b.name = "b";
  b.type = DataType::kString;
  b.values = {Value("x"), Value("y"), Value("x")};
  EXPECT_TRUE(t.AddColumn(a).ok());
  EXPECT_TRUE(t.AddColumn(b).ok());
  return t;
}

TEST(TableTest, BasicShape) {
  const Table t = MakeSmallTable();
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumColumns(), 2u);
  EXPECT_EQ(t.at(1, 0).as_int(), 2);
  EXPECT_EQ(t.at(2, 1).as_string(), "x");
}

TEST(TableTest, AddColumnLengthMismatchFails) {
  Table t = MakeSmallTable();
  Column c;
  c.name = "c";
  c.values = {Value(int64_t{1})};
  EXPECT_EQ(t.AddColumn(c).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, DuplicateColumnNameFails) {
  Table t = MakeSmallTable();
  Column c;
  c.name = "a";
  c.values = {Value(), Value(), Value()};
  EXPECT_EQ(t.AddColumn(c).code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, AddRowAndSubset) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.AddRow({Value(int64_t{4}), Value("z")}).ok());
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_FALSE(t.AddRow({Value(int64_t{5})}).ok());

  const Table sub = t.SubsetRows({3, 0});
  EXPECT_EQ(sub.NumRows(), 2u);
  EXPECT_EQ(sub.at(0, 0).as_int(), 4);
  EXPECT_EQ(sub.at(1, 0).as_int(), 1);
}

TEST(TableTest, ColumnIndexAndFind) {
  const Table t = MakeSmallTable();
  EXPECT_EQ(*t.ColumnIndex("b"), 1u);
  EXPECT_FALSE(t.ColumnIndex("zzz").ok());
  EXPECT_NE(t.FindColumn("a"), nullptr);
  EXPECT_EQ(t.FindColumn("zzz"), nullptr);
}

TEST(TableTest, DropColumn) {
  Table t = MakeSmallTable();
  ASSERT_TRUE(t.DropColumn(0).ok());
  EXPECT_EQ(t.NumColumns(), 1u);
  EXPECT_EQ(t.column(0).name, "b");
  EXPECT_FALSE(t.DropColumn(5).ok());
}

TEST(ColumnTest, DistinctRatio) {
  const Table t = MakeSmallTable();
  EXPECT_DOUBLE_EQ(t.column(0).DistinctRatio(), 1.0);       // 1,2,3
  EXPECT_NEAR(t.column(1).DistinctRatio(), 2.0 / 3.0, 1e-9);  // x,y,x
}

TEST(DatabaseTest, AddAndLookup) {
  Database db;
  ASSERT_TRUE(db.AddTable(MakeSmallTable()).ok());
  EXPECT_EQ(db.AddTable(MakeSmallTable()).code(), StatusCode::kAlreadyExists);
  EXPECT_NE(db.FindTable("t"), nullptr);
  EXPECT_EQ(db.FindTable("nope"), nullptr);
  EXPECT_EQ(db.TotalRows(), 3u);
}

TEST(CsvTest, ParseWithTypeInference) {
  const auto t = ReadCsvString("a,b,c\n1,x,1.5\n2,y,2.5\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->column(0).type, DataType::kInt);
  EXPECT_EQ(t->column(1).type, DataType::kString);
  EXPECT_EQ(t->column(2).type, DataType::kDouble);
  EXPECT_EQ(t->at(1, 0).as_int(), 2);
}

TEST(CsvTest, MissingTokensBecomeNullInNumericColumns) {
  const auto t = ReadCsvString("a\n1\n?\n3\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).type, DataType::kInt);
  EXPECT_TRUE(t->at(1, 0).is_null());
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  const auto t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->at(0, 0).as_string(), "x,y");
  EXPECT_EQ(t->at(0, 1).as_string(), "he said \"hi\"");
}

TEST(CsvTest, RaggedRowFails) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n", "t").ok());
}

TEST(CsvTest, RoundTrip) {
  const Table t = MakeSmallTable();
  const std::string csv = WriteCsvString(t);
  const auto back = ReadCsvString(csv, "t");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), t.NumRows());
  EXPECT_EQ(back->NumColumns(), t.NumColumns());
  EXPECT_EQ(back->at(2, 1).as_string(), "x");
}

TEST(CsvTest, CrLfLineEndings) {
  const auto t = ReadCsvString("a,b\r\n1,x\r\n2,y\r\n", "t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->at(0, 1).as_string(), "x");
}

Table Orders() {
  Table t("orders");
  Column name;
  name.name = "name";
  name.type = DataType::kString;
  name.values = {Value("ann"), Value("bob"), Value("ann")};
  Column item;
  item.name = "item";
  item.type = DataType::kString;
  item.values = {Value("pen"), Value("book"), Value("book")};
  EXPECT_TRUE(t.AddColumn(name).ok());
  EXPECT_TRUE(t.AddColumn(item).ok());
  return t;
}

Table Prices() {
  Table t("prices");
  Column item;
  item.name = "item";
  item.type = DataType::kString;
  item.values = {Value("pen"), Value("book")};
  Column price;
  price.name = "price";
  price.type = DataType::kDouble;
  price.values = {Value(1.5), Value(10.0)};
  EXPECT_TRUE(t.AddColumn(item).ok());
  EXPECT_TRUE(t.AddColumn(price).ok());
  return t;
}

TEST(JoinTest, LeftJoinAggregatePreservesCardinality) {
  const auto joined = LeftJoinAggregate(Orders(), Prices(), "item", "item");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumRows(), 3u);
  const Column* price = joined->FindColumn("prices.price");
  ASSERT_NE(price, nullptr);
  EXPECT_DOUBLE_EQ(price->values[0].ToNumeric(), 1.5);
  EXPECT_DOUBLE_EQ(price->values[1].ToNumeric(), 10.0);
}

TEST(JoinTest, LeftJoinAggregatesOneToMany) {
  // Join prices -> orders: "book" appears in 2 order rows; the string column
  // aggregates to the most frequent name.
  const auto joined = LeftJoinAggregate(Prices(), Orders(), "item", "item");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumRows(), 2u);
  const Column* name = joined->FindColumn("orders.name");
  ASSERT_NE(name, nullptr);
  EXPECT_FALSE(name->values[1].is_null());
}

TEST(JoinTest, UnmatchedKeysYieldNulls) {
  Table lonely("lonely");
  Column item;
  item.name = "item";
  item.type = DataType::kString;
  item.values = {Value("ghost")};
  ASSERT_TRUE(lonely.AddColumn(item).ok());
  const auto joined = LeftJoinAggregate(lonely, Prices(), "item", "item");
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->FindColumn("prices.price")->values[0].is_null());
}

TEST(JoinTest, MaterializeFullTableWalksChains) {
  Database db;
  Table expenses("expenses");
  Column name;
  name.name = "name";
  name.type = DataType::kString;
  name.values = {Value("ann"), Value("bob")};
  ASSERT_TRUE(expenses.AddColumn(name).ok());
  ASSERT_TRUE(db.AddTable(expenses).ok());
  ASSERT_TRUE(db.AddTable(Orders()).ok());
  ASSERT_TRUE(db.AddTable(Prices()).ok());
  db.AddForeignKey({"orders", "name", "expenses", "name"});
  db.AddForeignKey({"orders", "item", "prices", "item"});

  const auto full = MaterializeFullTable(db, "expenses");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->NumRows(), 2u);  // base cardinality preserved
  // Two-hop join: prices reached through orders.
  EXPECT_NE(full->FindColumn("prices.price"), nullptr);
}

TEST(JoinTest, MaterializeFullTableMissingBaseFails) {
  Database db;
  EXPECT_FALSE(MaterializeFullTable(db, "nope").ok());
}

}  // namespace
}  // namespace leva
