// Failure-injection and edge-case coverage: empty inputs, degenerate graphs,
// dirty/unicode data, determinism, and the datetime pathway.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/string_util.h"
#include "common/io.h"
#include "core/pipeline.h"
#include "core/update_log.h"
#include "datagen/synthetic.h"
#include "embed/embedding.h"
#include "embed/walks_batched.h"
#include "ml/featurize.h"
#include "reference/textify_reference.h"
#include "table/csv.h"
#include "text/textifier.h"

namespace leva {
namespace {

TEST(DatetimeTest, ParsesDates) {
  EXPECT_EQ(*ParseIsoDatetime("1970-01-01"), 0);
  EXPECT_EQ(*ParseIsoDatetime("1970-01-02"), 86400);
  EXPECT_EQ(*ParseIsoDatetime("1970-01-01 00:00:01"), 1);
  EXPECT_EQ(*ParseIsoDatetime("1970-01-01T01:00:00"), 3600);
  EXPECT_EQ(*ParseIsoDatetime("2000-03-01"),
            *ParseIsoDatetime("2000-02-29") + 86400);  // leap year
}

TEST(DatetimeTest, RejectsMalformed) {
  EXPECT_FALSE(ParseIsoDatetime("not a date").has_value());
  EXPECT_FALSE(ParseIsoDatetime("2020-13-01").has_value());
  EXPECT_FALSE(ParseIsoDatetime("2020-02-30").has_value());
  EXPECT_FALSE(ParseIsoDatetime("2021-02-29").has_value());  // not leap
  EXPECT_FALSE(ParseIsoDatetime("2020-01-01 25:00:00").has_value());
  EXPECT_FALSE(ParseIsoDatetime("2020-01-01x").has_value());
  EXPECT_FALSE(ParseIsoDatetime("").has_value());
}

TEST(DatetimeTest, RoundTripFormat) {
  for (const char* s : {"2022-06-12 09:30:00", "1999-12-31 23:59:59",
                        "1970-01-01 00:00:00"}) {
    const auto epoch = ParseIsoDatetime(s);
    ASSERT_TRUE(epoch.has_value()) << s;
    EXPECT_EQ(FormatIsoDatetime(*epoch), s);
  }
}

TEST(CsvDatetimeTest, InfersDatetimeColumns) {
  const auto t = ReadCsvString(
      "ts,event\n2022-01-01,login\n2022-01-02 10:00:00,logout\n?,login\n",
      "log");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->column(0).type, DataType::kDatetime);
  EXPECT_TRUE(t->at(0, 0).is_int());
  EXPECT_TRUE(t->at(2, 0).is_null());
}

TEST(CsvDatetimeTest, RoundTripKeepsType) {
  const auto t = ReadCsvString("ts\n2022-01-01 10:00:00\n2023-05-05 00:00:00\n",
                               "log");
  ASSERT_TRUE(t.ok());
  const auto back = ReadCsvString(WriteCsvString(*t), "log");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->column(0).type, DataType::kDatetime);
  EXPECT_EQ(back->at(0, 0).as_int(), t->at(0, 0).as_int());
}

TEST(CsvDatetimeTest, TextifierBinsDatetime) {
  Database db;
  Table t("log");
  Column ts;
  ts.name = "ts";
  ts.type = DataType::kDatetime;
  for (int i = 0; i < 100; ++i) {
    ts.values.push_back(Value(static_cast<int64_t>(i) * 86400));
  }
  ASSERT_TRUE(t.AddColumn(ts).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  Textifier tx;
  ASSERT_TRUE(tx.Fit(db).ok());
  EXPECT_EQ(tx.FindColumn("log", "ts")->cls, ColumnClass::kDatetime);
  const auto tokens = TransformOneCell(tx, "log", "ts", Value(int64_t{86400}));
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_TRUE(tokens->front().starts_with("ts#bin"));
}

TEST(RobustnessTest, EmptyDatabaseFailsGracefully) {
  Database db;
  LevaPipeline pipeline;
  EXPECT_FALSE(pipeline.Fit(db).ok());
}

TEST(RobustnessTest, SingleRowTableWorks) {
  Database db;
  Table t("one");
  Column c;
  c.name = "x";
  c.type = DataType::kString;
  c.values = {Value("lonely")};
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  LevaConfig config;
  config.embedding_dim = 4;
  config.method = EmbeddingMethod::kMatrixFactorization;
  LevaPipeline pipeline(config);
  // One row, no shared tokens: graph has one isolated node; embedding still
  // materializes without crashing.
  const Status s = pipeline.Fit(db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(pipeline.embedding().Has("one:0"));
}

TEST(RobustnessTest, AllNullColumn) {
  Database db;
  Table t("t");
  Column a;
  a.name = "a";
  a.type = DataType::kString;
  Column b;
  b.name = "b";
  b.type = DataType::kDouble;
  for (int i = 0; i < 20; ++i) {
    a.values.push_back(Value("v" + std::to_string(i % 4)));
    b.values.push_back(Value::Null());
  }
  ASSERT_TRUE(t.AddColumn(a).ok());
  ASSERT_TRUE(t.AddColumn(b).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  LevaConfig config;
  config.embedding_dim = 4;
  LevaPipeline pipeline(config);
  EXPECT_TRUE(pipeline.Fit(db).ok());
}

TEST(RobustnessTest, UnicodeTokensSurvive) {
  Database db;
  Table t("t");
  Column c;
  c.name = "city";
  c.type = DataType::kString;
  for (int i = 0; i < 10; ++i) {
    c.values.push_back(Value(i % 2 == 0 ? "Zürich" : "北京"));
  }
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  LevaConfig config;
  config.embedding_dim = 4;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(db).ok());
  EXPECT_TRUE(pipeline.embedding().Has("Zürich"));
  EXPECT_TRUE(pipeline.embedding().Has("北京"));
}

TEST(RobustnessTest, DuplicateRowsDoNotBreakGraph) {
  Database db;
  Table t("t");
  Column c;
  c.name = "x";
  c.type = DataType::kString;
  for (int i = 0; i < 30; ++i) c.values.push_back(Value("same"));
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  LevaConfig config;
  config.embedding_dim = 4;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(db).ok());
  // One value node connecting all 30 rows.
  EXPECT_EQ(pipeline.graph().stats().value_nodes, 1u);
  EXPECT_EQ(pipeline.graph().stats().edges, 30u);
}

TEST(RobustnessTest, DeterministicEmbeddings) {
  auto data = GenerateStudent(60, 0, 9);
  ASSERT_TRUE(data.ok());
  LevaConfig config;
  config.embedding_dim = 8;
  config.method = EmbeddingMethod::kRandomWalk;
  config.walks.epochs = 2;
  config.word2vec.epochs = 1;
  config.seed = 123;
  LevaPipeline p1(config);
  LevaPipeline p2(config);
  ASSERT_TRUE(p1.Fit(data->db).ok());
  ASSERT_TRUE(p2.Fit(data->db).ok());
  ASSERT_EQ(p1.embedding().size(), p2.embedding().size());
  const ArrayView<double> d1 = p1.embedding().data();
  const ArrayView<double> d2 = p2.embedding().data();
  ASSERT_EQ(d1.size(), d2.size());
  EXPECT_TRUE(std::equal(d1.begin(), d1.end(), d2.begin()));
}

TEST(RobustnessTest, IsolatedNodeWalksTerminate) {
  GraphBuilder builder;
  builder.AddNode(NodeKind::kRow, "t:0");  // no edges at all
  builder.RegisterTableRows("t", 0, 1);
  const LevaGraph g = std::move(builder).Build();
  WalkOptions options;
  options.epochs = 2;
  BatchedWalkGenerator generator(&g, options);
  Rng rng(1);
  const auto corpus = generator.Generate(&rng);
  ASSERT_TRUE(corpus.ok());
  for (size_t w = 0; w < corpus->size(); ++w) EXPECT_EQ((*corpus)[w].size(), 1u);
}

TEST(RobustnessTest, MalformedEmbeddingTextRejected) {
  EXPECT_FALSE(Embedding::FromText("").ok());
  EXPECT_FALSE(Embedding::FromText("2 3\nkey 1.0 2.0").ok());  // truncated
  EXPECT_FALSE(Embedding::FromText("abc").ok());
}

TEST(RobustnessTest, CsvFileRoundTrip) {
  auto data = GenerateStudent(20, 0, 10);
  ASSERT_TRUE(data.ok());
  const Table* expenses = data->db.FindTable("expenses");
  const std::string path = "/tmp/leva_test_expenses.csv";
  ASSERT_TRUE(WriteCsvFile(*expenses, path).ok());
  const auto back = ReadCsvFile(path, "expenses");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), expenses->NumRows());
  EXPECT_EQ(back->NumColumns(), expenses->NumColumns());
  std::remove(path.c_str());
}

TEST(RobustnessTest, CsvFileMissingPathFails) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/nope.csv", "t").ok());
  Table t("t");
  EXPECT_FALSE(WriteCsvFile(t, "/nonexistent/nope.csv").ok());
}

TEST(RobustnessTest, CsvFileErrorsNamePathAndCause) {
  const auto read = ReadCsvFile("/nonexistent/nope.csv", "t");
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("/nonexistent/nope.csv"),
            std::string::npos)
      << read.status().message();
  EXPECT_NE(read.status().message().find(std::strerror(ENOENT)),
            std::string::npos)
      << read.status().message();

  Table t("t");
  const Status write = WriteCsvFile(t, "/nonexistent/nope.csv");
  ASSERT_FALSE(write.ok());
  EXPECT_NE(write.message().find("/nonexistent/nope.csv"), std::string::npos)
      << write.message();
  EXPECT_NE(write.message().find(std::strerror(ENOENT)), std::string::npos)
      << write.message();
}

TEST(RobustnessTest, FeaturizeWithWrongTargetFails) {
  auto data = GenerateStudent(30, 0, 11);
  ASSERT_TRUE(data.ok());
  LevaConfig config;
  config.embedding_dim = 4;
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(data->db).ok());
  TargetEncoder encoder;
  const Table* base = data->db.FindTable("expenses");
  ASSERT_TRUE(encoder.Fit(*base->FindColumn("total_expenses"), false).ok());
  EXPECT_FALSE(
      pipeline.Featurize(*base, "no_such_column", encoder, true).ok());
}

TEST(RobustnessTest, ReplicateHandlesNulls) {
  Database db;
  Table t("t");
  Column c;
  c.name = "x";
  c.type = DataType::kDouble;
  c.values = {Value(1.0), Value::Null(), Value(3.0)};
  ASSERT_TRUE(t.AddColumn(c).ok());
  ASSERT_TRUE(db.AddTable(t).ok());
  const auto replicated = ReplicateDatabase(db, 3);
  ASSERT_TRUE(replicated.ok());
  const Column* col = replicated->FindTable("t")->FindColumn("x");
  EXPECT_EQ(col->size(), 9u);
  EXPECT_TRUE(col->values[4].is_null());  // null in every copy
}

TEST(RobustnessTest, WideTableManyColumns) {
  Database db;
  Table t("wide");
  Rng rng(2);
  for (int c = 0; c < 60; ++c) {
    Column col;
    col.name = "c" + std::to_string(c);
    col.type = DataType::kDouble;
    for (int r = 0; r < 40; ++r) col.values.push_back(Value(rng.Normal()));
    ASSERT_TRUE(t.AddColumn(std::move(col)).ok());
  }
  ASSERT_TRUE(db.AddTable(t).ok());
  LevaConfig config;
  config.embedding_dim = 8;
  config.textify.bin_count = 4;
  LevaPipeline pipeline(config);
  EXPECT_TRUE(pipeline.Fit(db).ok());
}

// Writes a log file holding the magic and one frame around `payload` with a
// valid CRC, so that the record decoder, not the frame check, judges it.
std::string WriteLogWithRecord(const std::string& name,
                               const std::string& payload) {
  BufferWriter w;
  w.PutBytes(UpdateLog::kMagic, sizeof UpdateLog::kMagic);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32c(payload));
  w.PutBytes(payload.data(), payload.size());
  const std::string path = ::testing::TempDir() + "leva_crafted_" + name;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << w.data();
  return path;
}

// A record whose column or row count its payload cannot hold is corrupt: it
// ends the scan as a torn tail, with nothing reserved for the claimed count.
TEST(UpdateLogTest, CraftedCountsEndTheScanAsATornTail) {
  // 21 bytes on disk past the magic: the table name "t", then 2^32 - 1
  // columns.
  BufferWriter huge_columns;
  huge_columns.PutString("t");
  huge_columns.PutU32(0xFFFFFFFFu);
  ASSERT_EQ(8 + huge_columns.size(), 21u);
  // One column, then 2^40 rows: far more cells than bytes left.
  BufferWriter huge_rows;
  huge_rows.PutString("t");
  huge_rows.PutU32(1);
  huge_rows.PutString("a");
  huge_rows.PutU64(uint64_t{1} << 40);
  // No columns, then 2^20 rows of no cells, which no writer emits.
  BufferWriter empty_rows;
  empty_rows.PutString("t");
  empty_rows.PutU32(0);
  empty_rows.PutU64(uint64_t{1} << 20);

  const std::pair<const char*, const BufferWriter*> cases[] = {
      {"huge_columns", &huge_columns},
      {"huge_rows", &huge_rows},
      {"empty_rows", &empty_rows}};
  for (const auto& [name, payload] : cases) {
    const std::string path =
        WriteLogWithRecord(name, std::string(payload->data()));
    const auto replay = UpdateLog::Read(path, UpdateLog::kHeaderSize);
    ASSERT_TRUE(replay.ok()) << name << ": " << replay.status().ToString();
    EXPECT_TRUE(replay->torn_tail) << name;
    EXPECT_TRUE(replay->records.empty()) << name;
    EXPECT_EQ(replay->record_count, 0u) << name;
    EXPECT_EQ(replay->end_offset, UpdateLog::kHeaderSize) << name;

    // Open runs the same scan and truncates the torn record away.
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok()) << name << ": " << log.status().ToString();
    EXPECT_EQ(log.value()->end_offset(), UpdateLog::kHeaderSize) << name;
    ASSERT_TRUE(log.value()->Close().ok());
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<uint64_t>(in.tellg()), UpdateLog::kHeaderSize)
        << name;
    std::remove(path.c_str());
  }
}

// The textifier section's header up to its attribute count: bin count,
// forced-type flag and type, the key and list ratios.
void PutTextifierHeader(BufferWriter* w) {
  w->PutU64(20);
  w->PutBool(false);
  w->PutU8(0);
  w->PutDouble(0.9);
  w->PutDouble(0.5);
}

// A snapshot section that claims more names, or more histogram edges, than
// its bytes can hold is corrupt: Load rejects it by name and reserves
// nothing for the claimed count.
TEST(SnapshotSectionTest, TextifierRejectsCraftedCounts) {
  BufferWriter huge_attrs;
  PutTextifierHeader(&huge_attrs);
  huge_attrs.PutU64(uint64_t{1} << 50);
  huge_attrs.PutString("a");

  BufferWriter huge_edges;
  PutTextifierHeader(&huge_edges);
  huge_edges.PutU64(1);
  huge_edges.PutString("a");
  huge_edges.PutU64(1);  // one column
  huge_edges.PutString("t.a");
  huge_edges.PutU32(0);  // attr id
  huge_edges.PutU8(static_cast<uint8_t>(ColumnClass::kNumeric));
  huge_edges.PutU8(0);  // list separator
  huge_edges.PutU8(0);  // histogram type
  huge_edges.PutU64(uint64_t{1} << 50);
  huge_edges.PutDouble(1.0);

  for (const BufferWriter* w : {&huge_attrs, &huge_edges}) {
    BufferReader in(w->data());
    Textifier textifier;
    const Status s = textifier.Load(&in);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.ToString().find("corrupt textifier"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(textifier.NumAttributes(), 0u);
  }
}

TEST(SnapshotSectionTest, EmbeddingRejectsCraftedKeyCount) {
  BufferWriter w;
  w.PutU64(4);                     // dim
  w.PutU64(uint64_t{1} << 50);     // key count
  w.PutU8(0);                      // fp64
  w.PutString("k");
  BufferReader in(w.data());
  Embedding e;
  const Status s = e.Load(&in, EmbeddingStorage{});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("corrupt embedding"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(e.size(), 0u);
}

}  // namespace
}  // namespace leva
