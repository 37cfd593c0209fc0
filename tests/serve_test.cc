// Serving subsystem suite: wire-protocol round trips and robustness against
// corrupt frames, batcher coalescing/backpressure semantics, and the full
// daemon loop — differential bit-identity of FEATURIZE responses against the
// offline Featurize path, including across mid-load hot RELOADs (the
// ServeRaceTest / LogRaceTest suites are the ones CI runs under TSan).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/pipeline.h"
#include "datagen/synthetic.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace leva::serve {
namespace {

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string unique = info == nullptr
                           ? std::string("unknown")
                           : std::string(info->test_suite_name()) + "_" +
                                 info->name();
  for (char& c : unique) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "leva_serve_" + unique + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

LevaConfig TestConfig(uint64_t seed) {
  LevaConfig config;
  config.method = EmbeddingMethod::kMatrixFactorization;
  config.embedding_dim = 8;
  config.seed = seed;
  return config;
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, FrameRoundTripAndPartialBuffers) {
  const std::string payload = "hello leva";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  // Every strict prefix is "keep reading", never an error.
  for (size_t n = 0; n < frame.size(); ++n) {
    const auto partial = DecodeFrame(std::string_view(frame).substr(0, n));
    ASSERT_TRUE(partial.ok()) << n;
    EXPECT_FALSE(partial->complete) << n;
  }
  const auto full = DecodeFrame(frame);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->complete);
  EXPECT_EQ(full->payload, payload);
  EXPECT_EQ(full->consumed, frame.size());

  // Two pipelined frames decode in sequence.
  const std::string two = frame + EncodeFrame("second");
  const auto first = DecodeFrame(two);
  ASSERT_TRUE(first.ok() && first->complete);
  const auto second =
      DecodeFrame(std::string_view(two).substr(first->consumed));
  ASSERT_TRUE(second.ok() && second->complete);
  EXPECT_EQ(second->payload, "second");
}

TEST(ProtocolTest, OversizedLengthPrefixIsCorruption) {
  BufferWriter w;
  w.PutU32(kMaxFramePayload + 1);
  w.PutU32(0);
  const std::string header = w.Release();
  const auto r = DecodeFrame(header);
  EXPECT_FALSE(r.ok());  // corruption, not an allocation request
}

TEST(ProtocolTest, ChecksumMismatchIsCorruption) {
  std::string frame = EncodeFrame("payload bytes");
  frame.back() ^= 0x40;
  const auto r = DecodeFrame(frame);
  EXPECT_FALSE(r.ok());
}

Table MixedTable() {
  Table t("mixed");
  Column ints{"i", DataType::kInt, {Value(int64_t{4}), Value::Null()}};
  Column doubles{"d", DataType::kDouble, {Value(2.5), Value(-0.0)}};
  Column strings{"s", DataType::kString, {Value("a b"), Value("")}};
  Column times{"ts",
               DataType::kDatetime,
               {Value(int64_t{1600000000}), Value::Null()}};
  EXPECT_TRUE(t.AddColumn(std::move(ints)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(doubles)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(strings)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(times)).ok());
  return t;
}

TEST(ProtocolTest, TableRoundTripPreservesTypesAndCells) {
  const Table t = MixedTable();
  BufferWriter w;
  EncodeTable(t, &w);
  const std::string bytes = w.Release();
  BufferReader r(bytes);
  Table out;
  ASSERT_TRUE(DecodeTable(&r, &out).ok());
  ASSERT_EQ(out.NumColumns(), t.NumColumns());
  ASSERT_EQ(out.NumRows(), t.NumRows());
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    EXPECT_EQ(out.column(c).name, t.column(c).name);
    EXPECT_EQ(out.column(c).type, t.column(c).type);
    for (size_t row = 0; row < t.NumRows(); ++row) {
      EXPECT_TRUE(out.at(row, c) == t.at(row, c)) << c << "," << row;
    }
  }
}

TEST(ProtocolTest, FeaturizeRequestRoundTrip) {
  FeaturizeRequest req;
  req.request_id = 42;
  req.rows_in_graph = true;
  req.target_column = "label";
  req.rows = MixedTable();
  const std::string payload = EncodeFeaturizeRequest(req);

  BufferReader r(payload);
  RequestHeader header;
  ASSERT_TRUE(DecodeRequestHeader(&r, &header).ok());
  EXPECT_EQ(header.opcode, Opcode::kFeaturize);
  EXPECT_EQ(header.request_id, 42u);
  FeaturizeRequest out;
  ASSERT_TRUE(DecodeFeaturizeBody(&r, &out).ok());
  EXPECT_TRUE(out.rows_in_graph);
  EXPECT_EQ(out.target_column, "label");
  EXPECT_EQ(out.rows.name(), "mixed");
  EXPECT_EQ(out.rows.NumRows(), req.rows.NumRows());
}

TEST(ProtocolTest, CorruptCountsRejectedWithoutHugeAllocations) {
  // A table body whose column count claims more headers than bytes remain.
  BufferWriter w;
  w.PutU32(0x00ffffff);
  const std::string bytes = w.Release();
  BufferReader r(bytes);
  Table out;
  EXPECT_FALSE(DecodeTable(&r, &out).ok());

  // Same for the row count.
  BufferWriter w2;
  w2.PutU32(1);
  w2.PutString("c");
  w2.PutU8(static_cast<uint8_t>(DataType::kInt));
  w2.PutU32(0x00ffffff);
  const std::string bytes2 = w2.Release();
  BufferReader r2(bytes2);
  EXPECT_FALSE(DecodeTable(&r2, &out).ok());
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  DecodedResponse out;
  ASSERT_TRUE(DecodeResponse(EncodeOkResponse(Opcode::kPing, 7), &out).ok());
  EXPECT_EQ(out.opcode, Opcode::kPing);
  EXPECT_EQ(out.request_id, 7u);
  EXPECT_TRUE(out.status.ok());

  ASSERT_TRUE(DecodeResponse(
                  EncodeErrorResponse(Opcode::kFeaturize, 9,
                                      Status::ResourceExhausted("full")),
                  &out)
                  .ok());
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.status.message(), "full");

  const std::vector<double> features = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  ASSERT_TRUE(
      DecodeResponse(EncodeFeaturizeResponse(3, 2, 3, features.data()), &out)
          .ok());
  EXPECT_EQ(out.rows, 2u);
  EXPECT_EQ(out.width, 3u);
  EXPECT_EQ(out.features, features);

  const std::vector<std::pair<std::string, double>> fields = {
      {"uptime_seconds", 1.5}, {"requests_ping", 3.0}};
  ASSERT_TRUE(DecodeResponse(EncodeStatsResponse(4, fields), &out).ok());
  EXPECT_EQ(out.stats, fields);
}

// The dispatcher's one-pass frame equals the two-pass encoding byte for
// byte. A payload is 26 header bytes + 8 per feature, so it is never exactly
// 12 288 bytes, where Crc32c switches to its three-stream loop; the shapes
// put it just below and just above that, and at several multiples of it.
TEST(ProtocolTest, FeaturizeResponseFrameMatchesTwoPassEncoding) {
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {0, 3},    {1, 1},    {3, 5},   {16, 24},  {128, 16},
      {4, 383},  {1, 1531},  // 12 282 and 12 274 bytes
      {21, 73},  {2, 767},   // 12 290 and 12 298 bytes
      {128, 64}, {7, 1755}, {1, 4093}, {300, 64}};  // 16 KiB to 150 KiB
  for (const auto& [rows, width] : shapes) {
    std::vector<double> features(std::max<size_t>(1, rows * width));
    for (size_t i = 0; i < features.size(); ++i) {
      features[i] = static_cast<double>(i) * 0.37 - 11.0;
    }
    const uint64_t id = 0x0123456789abcdefull + rows;
    const std::string frame =
        EncodeFeaturizeResponseFrame(id, rows, width, features.data());
    const std::string expected = EncodeFrame(
        EncodeFeaturizeResponse(id, rows, width, features.data()));
    ASSERT_EQ(frame.size(),
              kFrameHeaderSize + FeaturizeResponseSize(rows, width));
    EXPECT_EQ(frame, expected) << rows << " x " << width;
  }
}

// --- batcher ----------------------------------------------------------------

// A deterministic fake executor: features identify the exact input rows, so
// slicing bugs surface as wrong bits; calls record their batch sizes.
struct FakeExec {
  std::mutex mu;
  std::vector<size_t> call_rows;
  std::vector<Completion> completions;
  size_t width = 2;  ///< features per row: the row's value, then 0.5s

  RequestBatcher::Executor executor() {
    return [this](Table rows, std::string, bool) -> Result<MLDataset> {
      MLDataset ds;
      ds.x = Matrix(rows.NumRows(), width);
      for (size_t r = 0; r < rows.NumRows(); ++r) {
        ds.x(r, 0) = static_cast<double>(rows.column(0).values[r].as_int());
        for (size_t j = 1; j < width; ++j) ds.x(r, j) = 0.5;
      }
      std::lock_guard<std::mutex> lock(mu);
      call_rows.push_back(rows.NumRows());
      return ds;
    };
  }
  RequestBatcher::CompletionSink sink() {
    return [this](std::vector<Completion> batch) {
      std::lock_guard<std::mutex> lock(mu);
      for (Completion& c : batch) completions.push_back(std::move(c));
      completed.notify_all();
    };
  }
  /// Blocks until `n` completions have arrived or `timeout` has passed;
  /// true if they arrived.
  bool WaitForCompletions(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return completed.wait_for(lock, timeout,
                              [&] { return completions.size() >= n; });
  }

 private:
  std::condition_variable completed;
};

FeaturizeJob MakeJob(uint64_t id, int64_t first_value, size_t rows,
                     const char* column = "v", bool in_graph = false) {
  FeaturizeJob job;
  job.conn_id = 1;
  job.request.request_id = id;
  job.request.rows_in_graph = in_graph;
  Column c{column, DataType::kInt, {}};
  for (size_t r = 0; r < rows; ++r) {
    c.values.push_back(Value(first_value + static_cast<int64_t>(r)));
  }
  Table t("jobs");
  EXPECT_TRUE(t.AddColumn(std::move(c)).ok());
  job.request.rows = std::move(t);
  return job;
}

/// A completion carries one finished wire frame: checks that it is exactly
/// one frame with a matching CRC32C, then decodes the response inside it.
Status DecodeCompletion(const Completion& c, DecodedResponse* response) {
  const Result<FrameDecode> frame = DecodeFrame(c.frame);
  if (!frame.ok()) return frame.status();
  if (!frame->complete || frame->consumed != c.frame.size()) {
    return Status::InvalidArgument("completion is not exactly one frame");
  }
  return DecodeResponse(frame->payload, response);
}

TEST(BatcherTest, CoalescesSameSchemaAndSlicesPerRequest) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_batch_rows = 8;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  // Enqueue before Start so the dispatcher sees one full queue.
  for (uint64_t j = 0; j < 4; ++j) {
    ASSERT_TRUE(batcher.TryEnqueue(
        MakeJob(/*id=*/j, /*first_value=*/static_cast<int64_t>(j) * 10, 2)));
  }
  batcher.Start();
  batcher.Stop();

  ASSERT_EQ(fake.call_rows, std::vector<size_t>{8})
      << "4 same-schema requests must execute as one blocked-gather batch";
  ASSERT_EQ(fake.completions.size(), 4u);
  for (const Completion& c : fake.completions) {
    DecodedResponse r;
    ASSERT_TRUE(DecodeCompletion(c, &r).ok());
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.rows, 2u);
    ASSERT_EQ(r.width, 2u);
    // Row values were id*10 and id*10+1 — the slice must be this job's rows.
    EXPECT_EQ(r.features[0], static_cast<double>(c.request_id * 10));
    EXPECT_EQ(r.features[2], static_cast<double>(c.request_id * 10 + 1));
  }
}

TEST(BatcherTest, SchemaChangeAndRowBudgetCutBatches) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_batch_rows = 8;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(0, 0, 2)));
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(1, 10, 2)));
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(2, 20, 2, "other_column")));
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(3, 30, 2)));
  batcher.Start();
  batcher.Stop();
  // The schema change cuts after the first two; each later job stands alone.
  EXPECT_EQ(fake.call_rows, (std::vector<size_t>{4, 2, 2}));
  EXPECT_EQ(fake.completions.size(), 4u);
}

TEST(BatcherTest, RowsInGraphRequestsNeverCoalesce) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_batch_rows = 64;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  for (uint64_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(batcher.TryEnqueue(
        MakeJob(j, static_cast<int64_t>(j) * 10, 2, "v", /*in_graph=*/true)));
  }
  batcher.Start();
  batcher.Stop();
  EXPECT_EQ(fake.call_rows, (std::vector<size_t>{2, 2, 2}))
      << "positional row-node requests must execute as singleton batches";
}

// An admissible request whose response would not fit in one frame (8192
// rows x 512 features = 32 MiB + header) gets its own error naming the size,
// the limit and the row count that fits; its batch-mate is answered as usual.
TEST(BatcherTest, OversizedResponseIsAPerRequestError) {
  FakeExec fake;
  fake.width = 512;
  BatcherOptions opts;
  opts.max_batch_rows = 8192 + 2;
  opts.max_pending_rows = 8192 + 2;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(1, 0, 2)));
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(2, 10, 8192)));
  batcher.Start();
  batcher.Stop();

  ASSERT_EQ(fake.call_rows, std::vector<size_t>{8194});
  ASSERT_EQ(fake.completions.size(), 2u);
  for (const Completion& c : fake.completions) {
    ASSERT_LE(c.frame.size(), kFrameHeaderSize + kMaxFramePayload)
        << "id " << c.request_id;
    DecodedResponse r;
    ASSERT_TRUE(DecodeCompletion(c, &r).ok());
    if (c.request_id == 1) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.rows, 2u);
      EXPECT_EQ(r.width, 512u);
      continue;
    }
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    const std::string& msg = r.status.message();
    // 8192 x 512 doubles after the 26-byte response header.
    EXPECT_NE(msg.find(std::to_string(size_t{8192} * 512 * 8 + 26)),
              std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kMaxFramePayload)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("at most 8191 row(s)"), std::string::npos) << msg;
  }
}

TEST(BatcherTest, AdmissionBoundRejectsInsteadOfBuffering) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_pending_rows = 4;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  EXPECT_TRUE(batcher.TryEnqueue(MakeJob(0, 0, 2)));
  EXPECT_FALSE(batcher.TryEnqueue(MakeJob(1, 10, 3)))
      << "2 pending + 3 arriving exceeds the 4-row bound";
  EXPECT_TRUE(batcher.TryEnqueue(MakeJob(2, 20, 2)));
  // A request larger than the bound can never be admitted.
  EXPECT_FALSE(batcher.TryEnqueue(MakeJob(3, 30, 5)));
  batcher.Start();
  batcher.Stop();
  EXPECT_EQ(fake.completions.size(), 2u);
}

// No hold: a free dispatcher runs a lone request at once. max_delay_us is
// ignored; were it honoured, this request would wait 5 s for peers.
TEST(BatcherTest, LoneRequestOnIdleDispatcherRunsAtOnce) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_batch_rows = 64;
  opts.max_delay_us = 5'000'000;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  batcher.Start();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(0, 0, 2)));
  ASSERT_TRUE(fake.WaitForCompletions(1, std::chrono::seconds(30)));
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(waited, 1.0) << "a lone request was held back for peers";
  batcher.Stop();
  EXPECT_EQ(fake.call_rows, std::vector<size_t>{2});
}

// Requests that queue while a batch executes run together as the next
// batch. The executor blocks on a latch during batch 1, so the split is
// deterministic: the first request alone, then all the queued ones.
TEST(BatcherTest, RequestsQueuedDuringABatchRunAsTheNextBatch) {
  FakeExec fake;
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> first{true};
  RequestBatcher::Executor inner = fake.executor();
  RequestBatcher::Executor blocking =
      [&](Table rows, std::string target, bool in_graph) {
        if (first.exchange(false)) {
          entered.count_down();
          release.wait();
        }
        return inner(std::move(rows), std::move(target), in_graph);
      };
  BatcherOptions opts;
  opts.max_batch_rows = 64;
  RequestBatcher batcher(opts, blocking, fake.sink(), nullptr);
  batcher.Start();
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(0, 0, 2)));
  entered.wait();  // batch 1 is executing
  constexpr uint64_t kQueued = 8;
  for (uint64_t j = 1; j <= kQueued; ++j) {
    // EXPECT, not ASSERT: returning early would leave batch 1 blocked.
    EXPECT_TRUE(batcher.TryEnqueue(
        MakeJob(j, static_cast<int64_t>(j) * 10, 2)));
  }
  release.count_down();
  batcher.Stop();
  EXPECT_EQ(fake.call_rows, (std::vector<size_t>{2, 2 * kQueued}));
  EXPECT_EQ(fake.completions.size(), kQueued + 1);
}

TEST(BatcherTest, StopDrainsAdmittedWorkAndRejectsNewWork) {
  FakeExec fake;
  BatcherOptions opts;
  opts.max_batch_rows = 4;
  RequestBatcher batcher(opts, fake.executor(), fake.sink(), nullptr);
  for (uint64_t j = 0; j < 6; ++j) {
    ASSERT_TRUE(batcher.TryEnqueue(MakeJob(j, 0, 1)));
  }
  batcher.Start();
  batcher.Stop();
  EXPECT_EQ(fake.completions.size(), 6u)
      << "every admitted request must complete during drain";
  EXPECT_FALSE(batcher.TryEnqueue(MakeJob(9, 0, 1)));
}

TEST(BatcherTest, ExecutorErrorsFanOutPerRequest) {
  FakeExec fake;
  RequestBatcher batcher(
      BatcherOptions{},
      [](Table, std::string, bool) -> Result<MLDataset> {
        return Status::Internal("model exploded");
      },
      fake.sink(), nullptr);
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(0, 0, 2)));
  ASSERT_TRUE(batcher.TryEnqueue(MakeJob(1, 10, 2)));
  batcher.Start();
  batcher.Stop();
  ASSERT_EQ(fake.completions.size(), 2u);
  for (const Completion& c : fake.completions) {
    DecodedResponse r;
    ASSERT_TRUE(DecodeCompletion(c, &r).ok());
    EXPECT_EQ(r.opcode, Opcode::kFeaturize);
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  }
}

// --- end-to-end server ------------------------------------------------------

// Two fitted models over the same schema (seeds 5 and 77), snapshotted, plus
// reference pipelines for computing expected bits offline. Built once; tests
// each load their own serving pipeline from the snapshots.
struct ServedModel {
  SyntheticDataset ds;
  const Table* base = nullptr;
  std::string path_a, path_b;
  LevaPipeline ref_a, ref_b;
};

const ServedModel& SharedModel() {
  static const ServedModel* model = [] {
    auto* m = new ServedModel();
    auto ds = GenerateStudent(120, 0, 3);
    EXPECT_TRUE(ds.ok());
    m->ds = std::move(ds).value();
    m->base = m->ds.db.FindTable(m->ds.base_table);
    EXPECT_NE(m->base, nullptr);
    LevaPipeline a(TestConfig(5));
    EXPECT_TRUE(a.Fit(m->ds.db).ok());
    LevaPipeline b(TestConfig(77));
    EXPECT_TRUE(b.Fit(m->ds.db).ok());
    m->path_a = ::testing::TempDir() + "leva_serve_shared_" +
                std::to_string(static_cast<long>(::getpid())) + "_a.leva";
    m->path_b = ::testing::TempDir() + "leva_serve_shared_" +
                std::to_string(static_cast<long>(::getpid())) + "_b.leva";
    EXPECT_TRUE(a.SaveSnapshot(m->path_a).ok());
    EXPECT_TRUE(b.SaveSnapshot(m->path_b).ok());
    EXPECT_TRUE(m->ref_a.LoadSnapshot(m->path_a).ok());
    EXPECT_TRUE(m->ref_b.LoadSnapshot(m->path_b).ok());
    return m;
  }();
  return *model;
}

/// Rows [lo, hi) of the base table with the target column dropped — what a
/// label-free serving client would send.
Table ServingRows(const ServedModel& m, size_t lo, size_t hi) {
  Table t(m.base->name());
  for (const Column& c : m.base->columns()) {
    if (c.name == m.ds.target_column) continue;
    Column col{c.name, c.type, {}};
    col.values.assign(c.values.begin() + static_cast<long>(lo),
                      c.values.begin() + static_cast<long>(hi));
    EXPECT_TRUE(t.AddColumn(std::move(col)).ok());
  }
  return t;
}

/// The offline oracle: bits the server must reproduce for these rows.
std::vector<double> ExpectedBits(const LevaPipeline& pipeline,
                                 const Table& rows) {
  auto r = ExecuteFeaturize(pipeline, rows, /*target_column=*/"",
                            /*rows_in_graph=*/false);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->x.data();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct LiveServer {
  LevaPipeline pipeline;
  std::unique_ptr<Server> server;

  explicit LiveServer(const std::string& snapshot,
                      ServerOptions options = {}) {
    EXPECT_TRUE(pipeline.LoadSnapshot(snapshot).ok());
    server = std::make_unique<Server>(&pipeline, options);
    const Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~LiveServer() {
    if (server != nullptr) server->Shutdown();
  }
  Client Connect() {
    Client client;
    EXPECT_TRUE(
        client.Connect("127.0.0.1", server->port(), /*timeout_ms=*/30000)
            .ok());
    return client;
  }
};

TEST(ServerTest, PingAndStats) {
  LiveServer live(SharedModel().path_a);
  Client client = live.Connect();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(StatsField(*stats, "requests_ping"), 2.0);
  EXPECT_GE(StatsField(*stats, "connections_accepted"), 1.0);
  EXPECT_GE(StatsField(*stats, "uptime_seconds"), 0.0);
}

TEST(ServerTest, StatsFieldNamesAreStable) {
  LiveServer live(SharedModel().path_a);
  Client client = live.Connect();
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::vector<std::string> names;
  for (const auto& [name, value] : *stats) names.push_back(name);
  const std::vector<std::string> expected = {
      "uptime_seconds",         "connections_accepted",
      "connections_active",     "requests_ping",
      "requests_featurize",     "requests_stats",
      "requests_reload",        "requests_drain",
      "rows_featurized",        "batches_executed",
      "rows_per_batch",         "overload_rejections",
      "protocol_errors",        "featurize_errors",
      "reloads_ok",             "reloads_failed",
      "model_generation",       "request_latency_p50_ms",
      "request_latency_p95_ms", "request_latency_p99_ms",
      "batch_latency_p50_ms",   "batch_latency_p95_ms",
      "batch_latency_p99_ms"};
  EXPECT_EQ(names, expected);
}

TEST(ServerTest, StatsRendersLatencyPercentilesInMillis) {
  ServerStats stats;
  for (int i = 1; i <= 100; ++i) stats.request_latency.Record(i * 1e-3);
  stats.batch_latency.Record(0.25);
  const auto fields = stats.Render(/*uptime_seconds=*/1.0);
  EXPECT_NEAR(StatsField(fields, "request_latency_p50_ms"), 51.0, 51.0 / 16);
  EXPECT_NEAR(StatsField(fields, "request_latency_p99_ms"), 100.0, 100.0 / 16);
  EXPECT_NEAR(StatsField(fields, "batch_latency_p95_ms"), 250.0, 250.0 / 16);
}

TEST(ServerTest, FeaturizeBitIdenticalToOffline) {
  const ServedModel& m = SharedModel();
  LiveServer live(m.path_a);
  Client client = live.Connect();

  FeaturizeRequest req;
  req.rows = ServingRows(m, 0, 16);
  auto response = client.Featurize(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  const std::vector<double> expected = ExpectedBits(m.ref_a, req.rows);
  EXPECT_EQ(response->rows, 16u);
  EXPECT_EQ(response->rows * response->width, expected.size());
  EXPECT_TRUE(SameBits(response->features, expected))
      << "served features differ from offline Featurize";
}

TEST(ServerTest, ExplicitTargetColumnMatchesOffline) {
  const ServedModel& m = SharedModel();
  LiveServer live(m.path_a);
  Client client = live.Connect();

  // Send rows WITH the label column and name it as the target — the
  // classification path leva_cli uses.
  FeaturizeRequest req;
  req.target_column = m.ds.target_column;
  Table t(m.base->name());
  for (const Column& c : m.base->columns()) {
    Column col{c.name, c.type, {}};
    col.values.assign(c.values.begin(), c.values.begin() + 12);
    ASSERT_TRUE(t.AddColumn(std::move(col)).ok());
  }
  req.rows = std::move(t);
  auto response = client.Featurize(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok()) << response->status.ToString();
  auto offline = ExecuteFeaturize(m.ref_a, req.rows, m.ds.target_column,
                                  /*rows_in_graph=*/false);
  ASSERT_TRUE(offline.ok());
  EXPECT_TRUE(SameBits(response->features, offline->x.data()));
}

TEST(ServerTest, ConcurrentClientsCoalesceBitIdentically) {
  const ServedModel& m = SharedModel();
  ServerOptions options;
  options.batcher.max_batch_rows = 64;
  LiveServer live(m.path_a, options);

  constexpr size_t kClients = 6;
  constexpr size_t kIters = 8;
  constexpr size_t kRowsEach = 10;
  std::vector<std::vector<double>> expected(kClients);
  std::vector<Table> subsets(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    subsets[c] = ServingRows(m, c * kRowsEach, (c + 1) * kRowsEach);
    expected[c] = ExpectedBits(m.ref_a, subsets[c]);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = live.Connect();
      for (size_t i = 0; i < kIters; ++i) {
        FeaturizeRequest req;
        req.rows = subsets[c];
        auto response = client.Featurize(req);
        if (!response.ok() || !response->status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!SameBits(response->features, expected[c])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "coalesced execution changed some request's bits";

  Client client = live.Connect();
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatsField(*stats, "rows_featurized"),
            double(kClients * kIters * kRowsEach));
  // Batching actually engaged: fewer Featurize executions than requests.
  EXPECT_LT(StatsField(*stats, "batches_executed"),
            double(kClients * kIters));
  EXPECT_GT(StatsField(*stats, "rows_per_batch"), double(kRowsEach));
}

TEST(ServerTest, UnknownOpcodeAnswersErrorAndConnectionSurvives) {
  LiveServer live(SharedModel().path_a);
  Client client = live.Connect();
  const uint64_t id = client.NextRequestId();
  auto response =
      client.RoundTrip(EncodeBodylessRequest(static_cast<Opcode>(42), id), id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response->status.message().find("42"), std::string::npos);
  EXPECT_TRUE(client.Ping().ok()) << "connection must stay usable";
}

// A request payload past the frame limit is refused by the client before it
// is sent (the server would take it for stream corruption and hang up).
TEST(ServerTest, ClientRefusesOversizedRequestAndConnectionSurvives) {
  LiveServer live(SharedModel().path_a);
  Client client = live.Connect();
  std::string payload = EncodeBodylessRequest(Opcode::kPing, 1);
  payload.resize(size_t{kMaxFramePayload} + 1);
  auto response = client.RoundTrip(payload, 1);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find(std::to_string(kMaxFramePayload)),
            std::string::npos)
      << response.status().ToString();
  EXPECT_TRUE(client.Ping().ok()) << "connection must stay usable";
}

TEST(ServerTest, ZeroRowFeaturizeRejected) {
  const ServedModel& m = SharedModel();
  LiveServer live(m.path_a);
  Client client = live.Connect();
  FeaturizeRequest req;
  req.rows = ServingRows(m, 0, 0);
  auto response = client.Featurize(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, SaturatedAdmissionQueueAnswersOverloaded) {
  const ServedModel& m = SharedModel();
  ServerOptions options;
  options.batcher.max_pending_rows = 8;
  LiveServer live(m.path_a, options);
  Client client = live.Connect();
  // Larger than the bound: can never be admitted, deterministically rejected
  // without buffering.
  FeaturizeRequest req;
  req.rows = ServingRows(m, 0, 16);
  auto response = client.Featurize(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response->status.message().find("overloaded"), std::string::npos);
  // The server is otherwise healthy: small requests still serve.
  FeaturizeRequest small;
  small.rows = ServingRows(m, 0, 4);
  auto ok_response = client.Featurize(small);
  ASSERT_TRUE(ok_response.ok());
  EXPECT_TRUE(ok_response->status.ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(StatsField(*stats, "overload_rejections"), 1.0);
}

// --- raw-socket robustness (corrupt framing must never crash or hang) ------

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void SendRaw(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

/// Reads until one complete frame or EOF; returns the payload ("" on EOF).
std::string RecvFrameRaw(int fd) {
  std::string buf;
  char chunk[4096];
  while (true) {
    const auto frame = DecodeFrame(buf);
    if (frame.ok() && frame->complete) return std::string(frame->payload);
    EXPECT_TRUE(frame.ok());
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return "";
    buf.append(chunk, static_cast<size_t>(n));
  }
}

TEST(ServerTest, BadChecksumGetsStreamErrorThenDisconnect) {
  LiveServer live(SharedModel().path_a);
  const int fd = RawConnect(live.server->port());
  std::string frame = EncodeFrame(EncodeBodylessRequest(Opcode::kPing, 1));
  frame.back() ^= 0x01;
  SendRaw(fd, frame);

  const std::string payload = RecvFrameRaw(fd);
  ASSERT_FALSE(payload.empty()) << "expected a final error response";
  DecodedResponse response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.opcode, Opcode::kInvalid);
  EXPECT_FALSE(response.status.ok());
  // ...followed by a clean close.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok()) << "server must survive the bad client";
}

TEST(ServerTest, OversizedLengthPrefixGetsStreamErrorThenDisconnect) {
  LiveServer live(SharedModel().path_a);
  const int fd = RawConnect(live.server->port());
  BufferWriter w;
  w.PutU32(0xffffffffu);  // 4 GiB claim: corruption, not an allocation
  w.PutU32(0);
  SendRaw(fd, w.Release());

  const std::string payload = RecvFrameRaw(fd);
  ASSERT_FALSE(payload.empty());
  DecodedResponse response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.opcode, Opcode::kInvalid);
  EXPECT_FALSE(response.status.ok());
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, TruncatedFrameThenHangupLeavesServerHealthy) {
  LiveServer live(SharedModel().path_a);
  const int fd = RawConnect(live.server->port());
  const std::string frame =
      EncodeFrame(EncodeBodylessRequest(Opcode::kPing, 1));
  SendRaw(fd, std::string_view(frame).substr(0, 6));  // mid-header hangup
  ::close(fd);

  Client client = live.Connect();
  EXPECT_TRUE(client.Ping().ok());

  // A truncated request *body* inside a well-framed payload: error response,
  // connection stays usable.
  const int fd2 = RawConnect(live.server->port());
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(Opcode::kFeaturize));
  w.PutU64(77);
  w.PutBool(false);  // body cut off after rows_in_graph
  SendRaw(fd2, EncodeFrame(w.Release()));
  const std::string payload = RecvFrameRaw(fd2);
  ASSERT_FALSE(payload.empty());
  DecodedResponse response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_FALSE(response.status.ok());
  SendRaw(fd2, EncodeFrame(EncodeBodylessRequest(Opcode::kPing, 78)));
  const std::string pong = RecvFrameRaw(fd2);
  ASSERT_FALSE(pong.empty());
  ASSERT_TRUE(DecodeResponse(pong, &response).ok());
  EXPECT_TRUE(response.status.ok());
  ::close(fd2);
}

// One connection pipelines 512 FEATURIZE requests, then reads the ~7.9 MB
// of responses through a small receive buffer, 2 KiB at a time with pauses.
// That is more than the server's socket send buffer can hold (at most 4 MiB
// by default), so its vectored sends stop short inside a frame again and
// again; every response must still arrive whole, in request order, and
// bit-equal to the offline path.
TEST(ServerTest, PipelinedResponsesToASlowReaderArriveWholeAndInOrder) {
  const ServedModel& m = SharedModel();
  constexpr size_t kRequests = 512;
  constexpr size_t kRows = 120;
  ServerOptions options;
  options.batcher.max_pending_rows = kRequests * kRows;
  LiveServer live(m.path_a, options);

  // Two row orders, so a response delivered for the wrong request shows.
  std::vector<Table> subsets = {ServingRows(m, 0, kRows),
                                ServingRows(m, 0, kRows)};
  for (size_t c = 0; c < subsets[1].NumColumns(); ++c) {
    auto& values = subsets[1].mutable_column(c).values;
    std::reverse(values.begin(), values.end());
  }
  const std::vector<std::vector<double>> expected = {
      ExpectedBits(m.ref_a, subsets[0]), ExpectedBits(m.ref_a, subsets[1])};
  constexpr size_t kSubsets = 2;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // set before connect, so the window stays small
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  timeval tv{};
  tv.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(live.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);

  std::string requests;
  for (size_t i = 0; i < kRequests; ++i) {
    FeaturizeRequest req;
    req.request_id = i + 1;
    req.rows = subsets[i % kSubsets];
    requests += EncodeFrame(EncodeFeaturizeRequest(req));
  }
  SendRaw(fd, requests);

  std::string buf;
  size_t consumed = 0;
  size_t received = 0;
  size_t reads = 0;
  char chunk[2048];
  while (received < kRequests) {
    const auto frame = DecodeFrame(std::string_view(buf).substr(consumed));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame->complete) {
      if (reads++ % 16 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      ASSERT_GT(n, 0) << "connection ended after " << received
                      << " response(s)";
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    DecodedResponse response;
    ASSERT_TRUE(DecodeResponse(frame->payload, &response).ok());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.request_id, received + 1) << "out of order";
    EXPECT_TRUE(SameBits(response.features, expected[received % kSubsets]))
        << "response " << received + 1 << " differs from offline Featurize";
    consumed += frame->consumed;
    ++received;
  }
  EXPECT_EQ(consumed, buf.size()) << "bytes after the last response";
  ::close(fd);
}

// --- reload + drain ---------------------------------------------------------

TEST(ServerTest, ReloadHotSwapsServedModel) {
  const ServedModel& m = SharedModel();
  LiveServer live(m.path_a);
  Client client = live.Connect();

  const Table rows = ServingRows(m, 20, 36);
  const std::vector<double> bits_a = ExpectedBits(m.ref_a, rows);
  const std::vector<double> bits_b = ExpectedBits(m.ref_b, rows);
  ASSERT_FALSE(SameBits(bits_a, bits_b));

  FeaturizeRequest req;
  req.rows = rows;
  auto before = client.Featurize(req);
  ASSERT_TRUE(before.ok() && before->status.ok());
  EXPECT_TRUE(SameBits(before->features, bits_a));

  ReloadRequest reload;
  reload.path = m.path_b;
  ASSERT_TRUE(client.Reload(reload).ok());

  auto after = client.Featurize(req);
  ASSERT_TRUE(after.ok() && after->status.ok());
  EXPECT_TRUE(SameBits(after->features, bits_b))
      << "post-reload responses must come from the new model";

  // A failed reload (missing snapshot) reports the error and keeps serving
  // the incumbent.
  ReloadRequest missing;
  missing.path = TempPath("missing.leva");
  const Status s = client.Reload(missing);
  EXPECT_FALSE(s.ok());
  auto still = client.Featurize(req);
  ASSERT_TRUE(still.ok() && still->status.ok());
  EXPECT_TRUE(SameBits(still->features, bits_b));

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(StatsField(*stats, "reloads_ok"), 1.0);
  EXPECT_EQ(StatsField(*stats, "reloads_failed"), 1.0);
}

TEST(ServerTest, DrainRequestAcknowledgesThenExitsCleanly) {
  const ServedModel& m = SharedModel();
  auto live = std::make_unique<LiveServer>(m.path_a);
  Client client = live->Connect();
  FeaturizeRequest req;
  req.rows = ServingRows(m, 0, 8);
  auto response = client.Featurize(req);
  ASSERT_TRUE(response.ok() && response->status.ok());

  ASSERT_TRUE(client.Drain().ok()) << "DRAIN must be acknowledged";
  live->server->Join();
  EXPECT_FALSE(live->server->running());

  // The listener is gone: new connections fail.
  Client late;
  EXPECT_FALSE(
      late.Connect("127.0.0.1", live->server->port(), /*timeout_ms=*/500)
          .ok());
}

TEST(ServerTest, RequestShutdownFromSignalContextDrains) {
  // The daemon wires SIGTERM to RequestShutdown(); same entry point here.
  LiveServer live(SharedModel().path_a);
  Client client = live.Connect();
  ASSERT_TRUE(client.Ping().ok());
  live.server->RequestShutdown();
  live.server->Join();
  EXPECT_FALSE(live.server->running());
}

// --- races (the suites CI runs under TSan) ----------------------------------

// Concurrent clients featurize while another connection hot-reloads the
// model back and forth. Every response must be bit-identical to the offline
// Featurize of exactly one model generation — never a blend, never an error.
TEST(ServeRaceTest, ResponsesBitMatchExactlyOneGenerationAcrossReloads) {
  const ServedModel& m = SharedModel();
  ServerOptions options;
  options.batcher.max_batch_rows = 64;
  LiveServer live(m.path_a, options);

  constexpr size_t kClients = 4;
  constexpr size_t kIters = 12;
  constexpr int kReloads = 16;
  std::vector<Table> subsets(kClients);
  std::vector<std::vector<double>> bits_a(kClients), bits_b(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    subsets[c] = ServingRows(m, c * 12, (c + 1) * 12);
    bits_a[c] = ExpectedBits(m.ref_a, subsets[c]);
    bits_b[c] = ExpectedBits(m.ref_b, subsets[c]);
    ASSERT_FALSE(SameBits(bits_a[c], bits_b[c]));
  }

  std::atomic<int> blends{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client = live.Connect();
      for (size_t i = 0; i < kIters; ++i) {
        FeaturizeRequest req;
        req.rows = subsets[c];
        auto response = client.Featurize(req);
        if (!response.ok() || !response->status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!SameBits(response->features, bits_a[c]) &&
            !SameBits(response->features, bits_b[c])) {
          blends.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reloader([&] {
    Client client = live.Connect();
    for (int i = 0; i < kReloads; ++i) {
      ReloadRequest reload;
      reload.path = (i % 2 == 0) ? m.path_b : m.path_a;
      const Status s = client.Reload(reload);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  });
  for (std::thread& th : clients) th.join();
  reloader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(blends.load(), 0)
      << "a response blended two model generations (or matched neither)";
}

// The MT-logging satellite's race check: many threads log through LEVA_LOG
// concurrently with level retunes. TSan verifies the implementation; the
// single-write guarantee is asserted by construction (one fwrite per record).
TEST(LogRaceTest, ConcurrentLoggingAndLevelChangesAreClean) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output quiet
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        LEVA_LOG(kDebug, "thread %d iteration %d of concurrent logging", t,
                 i);
        if (i % 50 == 0) {
          SetLogLevel(i % 100 == 0 ? LogLevel::kError : LogLevel::kWarning);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  SetLogLevel(original);
}

}  // namespace
}  // namespace leva::serve
