// Differential suite for the batched featurization fast path: the batched
// Featurize (column-wise textify + token interning + blocked parallel
// gather) must be bitwise identical to the row-at-a-time ReferenceFeaturize
// across featurization modes, in-graph vs held-out rows, unseen tokens,
// thread counts, and serving batch sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/token_resolver.h"
#include "datagen/synthetic.h"
#include "ml/featurize.h"
#include "reference/featurize_reference.h"

namespace leva {
namespace {

LevaConfig TestConfig(Featurization featurization, bool weighted = true) {
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = 8;
  config.featurization = featurization;
  config.graph.weighted = weighted;
  config.seed = 5;
  return config;
}

struct StudentSplit {
  Database fit_db;
  Table train_table;  // first 100 rows of expenses, in the fitted graph
  Table test_table;   // held-out 20 rows, unseen by Fit
  TargetEncoder encoder;
};

StudentSplit MakeSplit() {
  auto full = GenerateStudent(120, 0, 3);
  EXPECT_TRUE(full.ok());
  const Table* base = full->db.FindTable("expenses");
  std::vector<size_t> train_rows;
  std::vector<size_t> test_rows;
  for (size_t r = 0; r < base->NumRows(); ++r) {
    (r < 100 ? train_rows : test_rows).push_back(r);
  }
  StudentSplit split;
  split.train_table = base->SubsetRows(train_rows);
  split.test_table = base->SubsetRows(test_rows);
  split.train_table.set_name("expenses");
  split.test_table.set_name("expenses");
  EXPECT_TRUE(split.fit_db.AddTable(split.train_table).ok());
  EXPECT_TRUE(split.fit_db.AddTable(*full->db.FindTable("order_info")).ok());
  EXPECT_TRUE(split.fit_db.AddTable(*full->db.FindTable("price_info")).ok());
  EXPECT_TRUE(
      split.encoder.Fit(*base->FindColumn("total_expenses"), false).ok());
  return split;
}

// A reading of the pipeline's cumulative Featurize counters; the difference
// of two readings is the work done between them.
struct FeaturizeCounts {
  uint64_t rows = 0;
  uint64_t batches = 0;
  uint64_t token_occurrences = 0;
  uint64_t distinct_tokens = 0;

  FeaturizeCounts operator-(const FeaturizeCounts& o) const {
    return {rows - o.rows, batches - o.batches,
            token_occurrences - o.token_occurrences,
            distinct_tokens - o.distinct_tokens};
  }
};

FeaturizeCounts Counts(const LevaPipeline& pipeline) {
  const PipelineMetrics& m = pipeline.metrics();
  return {m.featurize_rows.load(), m.featurize_batches.load(),
          m.token_occurrences.load(), m.distinct_tokens.load()};
}

// The counters one Featurize call of `table` adds.
FeaturizeCounts FeaturizeDelta(const LevaPipeline& pipeline,
                               const StudentSplit& split, const Table& table,
                               bool rows_in_graph) {
  const FeaturizeCounts before = Counts(pipeline);
  EXPECT_TRUE(pipeline
                  .Featurize(table, "total_expenses", split.encoder,
                             rows_in_graph)
                  .ok());
  return Counts(pipeline) - before;
}

void ExpectBitIdentical(const MLDataset& batched, const MLDataset& legacy) {
  ASSERT_EQ(batched.NumRows(), legacy.NumRows());
  ASSERT_EQ(batched.NumFeatures(), legacy.NumFeatures());
  EXPECT_EQ(batched.feature_names, legacy.feature_names);
  EXPECT_EQ(batched.y, legacy.y);
  EXPECT_EQ(batched.classification, legacy.classification);
  EXPECT_EQ(batched.num_classes, legacy.num_classes);
  // Bitwise, not approximate: the batched gather must reproduce the exact
  // floating-point accumulation order of the legacy path.
  const auto& a = batched.x.data();
  const auto& b = legacy.x.data();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST(BatchedFeaturizeTest, MatchesLegacyAcrossModesThreadsAndBatches) {
  StudentSplit split = MakeSplit();
  for (const Featurization mode :
       {Featurization::kRowOnly, Featurization::kRowPlusValue}) {
    LevaPipeline pipeline(TestConfig(mode));
    ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
    for (const bool rows_in_graph : {true, false}) {
      const Table& table =
          rows_in_graph ? split.train_table : split.test_table;
      const auto legacy = ReferenceFeaturize(pipeline, table, "total_expenses",
                                             split.encoder, rows_in_graph);
      ASSERT_TRUE(legacy.ok());
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        for (const size_t batch : {size_t{0}, size_t{7}}) {
          pipeline.set_serving_options(threads, batch);
          const auto batched = pipeline.Featurize(table, "total_expenses",
                                                  split.encoder,
                                                  rows_in_graph);
          ASSERT_TRUE(batched.ok())
              << batched.status().ToString() << " mode="
              << (mode == Featurization::kRowOnly ? "row" : "row+value")
              << " rows_in_graph=" << rows_in_graph << " threads=" << threads
              << " batch=" << batch;
          ExpectBitIdentical(*batched, *legacy);
        }
      }
    }
  }
}

// Every case above runs at dim 8, a whole number of 4-lane groups; dim 13
// also runs the gather kernels' scalar tail end to end.
TEST(BatchedFeaturizeTest, MatchesLegacyAtOddDim) {
  StudentSplit split = MakeSplit();
  for (const Featurization mode :
       {Featurization::kRowOnly, Featurization::kRowPlusValue}) {
    LevaConfig config = TestConfig(mode);
    config.embedding_dim = 13;
    LevaPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
    ASSERT_EQ(pipeline.embedding().dim(), 13u);
    for (const bool rows_in_graph : {true, false}) {
      const Table& table =
          rows_in_graph ? split.train_table : split.test_table;
      const auto legacy = ReferenceFeaturize(pipeline, table, "total_expenses",
                                             split.encoder, rows_in_graph);
      ASSERT_TRUE(legacy.ok());
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        pipeline.set_serving_options(threads, 0);
        const auto batched = pipeline.Featurize(table, "total_expenses",
                                                split.encoder, rows_in_graph);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        ExpectBitIdentical(*batched, *legacy);
      }
    }
  }
}

TEST(BatchedFeaturizeTest, MatchesLegacyOnUnweightedGraph) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(
      TestConfig(Featurization::kRowPlusValue, /*weighted=*/false));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  const auto legacy = ReferenceFeaturize(pipeline, split.test_table,
                                         "total_expenses", split.encoder, false);
  const auto batched = pipeline.Featurize(split.test_table, "total_expenses",
                                          split.encoder, false);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  ExpectBitIdentical(*batched, *legacy);
}

TEST(BatchedFeaturizeTest, UnseenTokensMatchLegacy) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());

  // Corrupt the held-out slice with strings and numbers never seen at Fit
  // time: unseen strings must contribute nothing, unseen numbers must
  // quantize into existing bins — identically on both paths.
  Table mutated = split.test_table;
  mutated.set_name("expenses");
  for (size_t c = 0; c < mutated.NumColumns(); ++c) {
    Column& col = mutated.mutable_column(c);
    if (col.name == "total_expenses") continue;
    if (!col.values.empty() && col.values[0].is_string()) {
      col.values[0] = Value(std::string("utterly-unseen-token"));
    }
    if (col.values.size() > 1 && col.values[1].is_numeric()) {
      col.values[1] = Value(1e12);  // far outside every fitted bin range
    }
  }
  const auto legacy = ReferenceFeaturize(pipeline, mutated, "total_expenses",
                                         split.encoder, false);
  const auto batched =
      pipeline.Featurize(mutated, "total_expenses", split.encoder, false);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(batched.ok());
  ExpectBitIdentical(*batched, *legacy);
}

// Two tables joined on int keys, with every column class the textifier
// knows: int keys, comma lists with padded elements and empty fields,
// atomic strings with a dirty "?", numerics and datetimes. Keys and list
// elements recur across rows, so their tokens are value nodes.
Database MakeEveryClassDb() {
  Column id;
  id.name = "id";
  id.type = DataType::kInt;
  Column tags;
  tags.name = "tags";
  tags.type = DataType::kString;
  Column color;
  color.name = "color";
  color.type = DataType::kString;
  Column amount;
  amount.name = "amount";
  amount.type = DataType::kDouble;
  Column ts;
  ts.name = "ts";
  ts.type = DataType::kDatetime;
  Column ref;
  ref.name = "ref";
  ref.type = DataType::kInt;
  Column score;
  score.name = "score";
  score.type = DataType::kDouble;
  for (int i = 0; i < 60; ++i) {
    id.values.push_back(Value(int64_t{100} + i));
    tags.values.push_back(Value(" t" + std::to_string(i % 4) + " ,, u" +
                                std::to_string(i % 7) + " "));
    color.values.push_back(
        Value(i % 9 == 0 ? std::string("?") : i % 2 ? "red" : "blue"));
    amount.values.push_back(i % 11 == 0 ? Value("  ? ")
                                        : Value(0.25 * (i % 13)));
    ts.values.push_back(Value(int64_t{1600000000} + int64_t{86400} * (i % 17)));
    ref.values.push_back(Value(int64_t{100} + i));
    score.values.push_back(Value(1.5 * (i % 5)));
  }
  Table left("left");
  Table right("right");
  EXPECT_TRUE(left.AddColumn(id).ok());
  EXPECT_TRUE(left.AddColumn(tags).ok());
  EXPECT_TRUE(left.AddColumn(color).ok());
  EXPECT_TRUE(left.AddColumn(amount).ok());
  EXPECT_TRUE(left.AddColumn(ts).ok());
  EXPECT_TRUE(right.AddColumn(ref).ok());
  EXPECT_TRUE(right.AddColumn(score).ok());
  Database db;
  EXPECT_TRUE(db.AddTable(left).ok());
  EXPECT_TRUE(db.AddTable(right).ok());
  return db;
}

// The Featurize differential on every column class, so a tokenizer change
// that Fit and Featurize share still shows against the per-cell reference.
TEST(BatchedFeaturizeTest, EveryColumnClassMatchesLegacy) {
  const Database db = MakeEveryClassDb();
  LevaConfig config = TestConfig(Featurization::kRowPlusValue);
  config.graph.theta_min = 0.0;  // keep every attribute at this scale
  LevaPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Fit(db).ok());
  const Table& left = db.tables()[0];
  EXPECT_EQ(pipeline.textifier().FindColumn("left", "id")->cls,
            ColumnClass::kKey);
  EXPECT_EQ(pipeline.textifier().FindColumn("left", "tags")->cls,
            ColumnClass::kStringList);
  EXPECT_NE(pipeline.graph().ValueNode("117"), kInvalidNode);
  EXPECT_NE(pipeline.graph().ValueNode("u3"), kInvalidNode);
  const TargetEncoder no_target;
  for (const bool rows_in_graph : {true, false}) {
    const auto batched = pipeline.Featurize(left, "", no_target, rows_in_graph);
    const auto legacy =
        ReferenceFeaturize(pipeline, left, "", no_target, rows_in_graph);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ExpectBitIdentical(*batched, *legacy);
  }
}

// An empty target names no label: every column, the would-be target
// included, is featurized and no target is encoded. A non-empty target that
// names no column is still an error.
TEST(BatchedFeaturizeTest, EmptyTargetKeepsEveryColumn) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  const TargetEncoder no_target;
  for (const bool rows_in_graph : {true, false}) {
    const Table& table = rows_in_graph ? split.train_table : split.test_table;
    const auto unlabeled =
        pipeline.Featurize(table, "", no_target, rows_in_graph);
    const auto legacy =
        ReferenceFeaturize(pipeline, table, "", no_target, rows_in_graph);
    ASSERT_TRUE(unlabeled.ok()) << unlabeled.status().ToString();
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*unlabeled, *legacy);
    EXPECT_EQ(unlabeled->y, std::vector<double>(table.NumRows(), 0.0));

    // The target's tokens now enter the value half of some row.
    const auto labeled = pipeline.Featurize(table, "total_expenses",
                                            split.encoder, rows_in_graph);
    ASSERT_TRUE(labeled.ok());
    EXPECT_NE(unlabeled->x.data(), labeled->x.data());

    const auto unknown =
        pipeline.Featurize(table, "no_such_column", no_target, rows_in_graph);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  }
}

TEST(BatchedFeaturizeTest, ResolverStatsShowPerDistinctTokenLookups) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  const FeaturizeCounts stats =
      FeaturizeDelta(pipeline, split, split.train_table, true);
  EXPECT_EQ(stats.rows, split.train_table.NumRows());
  EXPECT_EQ(stats.batches, 1u);
  // Gender/school/item tokens repeat heavily across the 100 rows, so the
  // distinct count — one store probe each — must be far below the
  // occurrence count.
  EXPECT_GT(stats.distinct_tokens, 0u);
  EXPECT_GT(stats.token_occurrences, stats.distinct_tokens);
}

TEST(BatchedFeaturizeTest, WarmResolverCacheSkipsStoreLookups) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  FeaturizeCounts before = Counts(pipeline);
  const auto cold = pipeline.Featurize(split.train_table, "total_expenses",
                                       split.encoder, true);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT((Counts(pipeline) - before).distinct_tokens, 0u);

  // The resolver cache persists across calls, so a repeat over the same
  // vocabulary resolves every token from the cache — zero store probes —
  // and still reproduces the exact same bits.
  before = Counts(pipeline);
  const auto warm = pipeline.Featurize(split.train_table, "total_expenses",
                                       split.encoder, true);
  ASSERT_TRUE(warm.ok());
  const FeaturizeCounts warm_counts = Counts(pipeline) - before;
  EXPECT_EQ(warm_counts.distinct_tokens, 0u);
  EXPECT_GT(warm_counts.token_occurrences, 0u);
  ExpectBitIdentical(*warm, *cold);

  // Re-Fit invalidates the cache: the next call resolves from scratch.
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  EXPECT_GT(FeaturizeDelta(pipeline, split, split.train_table, true)
                .distinct_tokens,
            0u);
}

TEST(BatchedFeaturizeTest, RowOnlyInGraphSkipsTextification) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowOnly));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  const FeaturizeCounts counts =
      FeaturizeDelta(pipeline, split, split.train_table, true);
  // The row-node gather never consults tokens, so none are interned.
  EXPECT_EQ(counts.token_occurrences, 0u);
  EXPECT_EQ(counts.distinct_tokens, 0u);
}

TEST(BatchedFeaturizeTest, MissingRowNodeFailsLikeLegacy) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowOnly));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  // The held-out table claims rows_in_graph but rows 100..119 were never
  // fitted... the train slice has only 100 row nodes, so a longer table
  // must report the first missing row node, exactly like the legacy path.
  Table longer = split.train_table;
  longer.set_name("expenses");
  for (size_t r = 0; r < split.test_table.NumRows(); ++r) {
    ASSERT_TRUE(longer.AddRow(split.test_table.Row(r)).ok());
  }
  const auto legacy = ReferenceFeaturize(pipeline, longer, "total_expenses",
                                         split.encoder, true);
  const auto batched =
      pipeline.Featurize(longer, "total_expenses", split.encoder, true);
  ASSERT_FALSE(legacy.ok());
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(batched.status().code(), legacy.status().code());
  EXPECT_EQ(batched.status().ToString(), legacy.status().ToString());
}

TEST(BatchedFeaturizeTest, RecordsFeaturizeStage) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  EXPECT_EQ(pipeline.metrics().featurize.count(), 0u);
  ASSERT_TRUE(pipeline
                  .Featurize(split.train_table, "total_expenses",
                             split.encoder, true)
                  .ok());
  EXPECT_EQ(pipeline.metrics().featurize.count(), 1u);
  EXPECT_GT(pipeline.metrics().featurize.sum_seconds(), 0.0);
}

TEST(BatchedFeaturizeTest, ConcurrentCallsSumIntoCounters) {
  StudentSplit split = MakeSplit();
  LevaPipeline pipeline(TestConfig(Featurization::kRowPlusValue));
  ASSERT_TRUE(pipeline.Fit(split.fit_db).ok());
  pipeline.set_serving_options(/*threads=*/2, /*featurize_batch_size=*/16);

  // Cold and concurrent: each distinct token is resolved by exactly one
  // call, so the calls' distinct counts sum to the vocabulary.
  constexpr int kThreads = 4;
  constexpr int kCallsEach = 5;
  const auto run_concurrently = [&] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int c = 0; c < kCallsEach; ++c) {
          EXPECT_TRUE(pipeline
                          .Featurize(split.test_table, "total_expenses",
                                     split.encoder, false)
                          .ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  run_concurrently();
  const FeaturizeCounts cold = Counts(pipeline);
  EXPECT_GT(cold.distinct_tokens, 0u);

  // One warm call is the per-call unit; the concurrent calls sum to it
  // times their number.
  const FeaturizeCounts one =
      FeaturizeDelta(pipeline, split, split.test_table, false);
  EXPECT_EQ(one.rows, split.test_table.NumRows());
  EXPECT_EQ(one.batches, 2u);  // 20 rows in batches of 16
  EXPECT_EQ(one.distinct_tokens, 0u);
  constexpr uint64_t kCalls = kThreads * kCallsEach;
  EXPECT_EQ(cold.rows, kCalls * one.rows);
  EXPECT_EQ(cold.batches, kCalls * one.batches);
  EXPECT_EQ(cold.token_occurrences, kCalls * one.token_occurrences);

  const FeaturizeCounts before = Counts(pipeline);
  run_concurrently();
  const FeaturizeCounts warm = Counts(pipeline) - before;
  EXPECT_EQ(warm.rows, kCalls * one.rows);
  EXPECT_EQ(warm.token_occurrences, kCalls * one.token_occurrences);
  EXPECT_EQ(warm.distinct_tokens, 0u);
  EXPECT_EQ(pipeline.metrics().featurize.count(), 2 * kCalls + 1);
}

TEST(TokenResolverTest, InternsOncePerDistinctToken) {
  Embedding embedding(2);
  ASSERT_TRUE(embedding.Put("red", std::vector<double>{1, 2}).ok());
  TokenResolver resolver(&embedding, nullptr, /*weighted=*/false);
  const uint32_t red = resolver.Intern("red");
  EXPECT_EQ(resolver.Intern("red"), red);
  const uint32_t unseen = resolver.Intern("unseen");
  EXPECT_NE(unseen, red);
  EXPECT_EQ(resolver.NumDistinct(), 2u);
  EXPECT_EQ(resolver.stats().occurrences, 3u);
  EXPECT_EQ(resolver.stats().distinct, 2u);
  EXPECT_EQ(resolver.entry(red).embedding_id, embedding.IdOf("red"));
  EXPECT_DOUBLE_EQ(resolver.entry(red).weight, 1.0);
  EXPECT_EQ(resolver.entry(unseen).embedding_id, Embedding::kInvalidId);

  resolver.Clear();
  EXPECT_EQ(resolver.NumDistinct(), 0u);
  // Stats persist across Clear so multi-batch calls report call totals.
  EXPECT_EQ(resolver.stats().occurrences, 3u);
}

}  // namespace
}  // namespace leva
