#include "serve/batcher.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "ml/featurize.h"

namespace leva::serve {

namespace {
uint64_t HashCombine(uint64_t seed, std::string_view s) {
  // FNV-1a over the bytes, folded into the running seed (splitmix-style mix).
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  seed ^= h + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  return seed;
}

// Schema fingerprint two requests must share to share a batch.
uint64_t SchemaSignature(const FeaturizeRequest& request) {
  uint64_t sig = HashCombine(0, request.rows.name());
  sig = HashCombine(sig, request.target_column);
  for (const Column& c : request.rows.columns()) {
    sig = HashCombine(sig, c.name);
    const char type = static_cast<char>(c.type);
    sig = HashCombine(sig, std::string_view(&type, 1));
  }
  return sig;
}
}  // namespace

RequestBatcher::RequestBatcher(BatcherOptions options, Executor executor,
                               CompletionSink sink, ServerStats* stats)
    : options_(options),
      executor_(std::move(executor)),
      sink_(std::move(sink)),
      stats_(stats) {}

RequestBatcher::~RequestBatcher() { Stop(); }

void RequestBatcher::Start() {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

bool RequestBatcher::TryEnqueue(FeaturizeJob job) {
  const size_t rows = job.request.rows.NumRows();
  job.schema_sig = SchemaSignature(job.request);
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || pending_rows_ + rows > options_.max_pending_rows) {
      return false;
    }
    job.enqueued_at = std::chrono::steady_clock::now();
    pending_rows_ += rows;
    was_empty = queue_.empty();
    queue_.push_back(std::move(job));
  }
  // The dispatcher, the only waiter, sleeps only on an empty queue.
  if (was_empty) cv_.notify_one();
  return true;
}

void RequestBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

size_t RequestBatcher::PendingRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_rows_;
}

void RequestBatcher::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) break;  // stopped and drained

    // Collect the maximal same-schema prefix within the row budget. The
    // first job always ships (even oversized, even in-graph) so nothing can
    // starve; in-graph jobs ship alone.
    std::vector<FeaturizeJob> batch;
    size_t rows = 0;
    while (!queue_.empty()) {
      FeaturizeJob& front = queue_.front();
      const size_t front_rows = front.request.rows.NumRows();
      const bool solo = front.request.rows_in_graph;
      if (!batch.empty() &&
          (solo || front.schema_sig != batch.front().schema_sig ||
           rows + front_rows > options_.max_batch_rows)) {
        break;
      }
      rows += front_rows;
      batch.push_back(std::move(front));
      queue_.pop_front();
      if (solo || rows >= options_.max_batch_rows) break;
    }
    pending_rows_ -= rows;

    lock.unlock();
    ExecuteBatch(std::move(batch), rows);
    lock.lock();
  }
}

void RequestBatcher::ExecuteBatch(std::vector<FeaturizeJob> batch,
                                  size_t total_rows) {
  // Each job's row count, read before its table moves into the executor.
  std::vector<size_t> row_counts;
  row_counts.reserve(batch.size());
  for (const FeaturizeJob& job : batch) {
    row_counts.push_back(job.request.rows.NumRows());
  }
  // Coalesce: a singleton batch executes on its own table; a coalesced one
  // moves every job's cells into one concatenated table. Either way the
  // table moves into the executor, which takes it by value: no cell is
  // copied.
  const FeaturizeJob& first = batch.front();
  Table exec_table;
  if (batch.size() == 1) {
    exec_table = std::move(batch.front().request.rows);
  } else {
    exec_table.set_name(first.request.rows.name());
    for (size_t c = 0; c < first.request.rows.NumColumns(); ++c) {
      Column col;
      col.name = first.request.rows.column(c).name;
      col.type = first.request.rows.column(c).type;
      col.values.reserve(total_rows);
      for (FeaturizeJob& job : batch) {
        auto& src = job.request.rows.mutable_column(c).values;
        for (Value& v : src) col.values.push_back(std::move(v));
      }
      (void)exec_table.AddColumn(std::move(col));
    }
  }

  WallTimer exec_timer;
  Result<MLDataset> result =
      executor_(std::move(exec_table), first.request.target_column,
                first.request.rows_in_graph);
  const double exec_seconds = exec_timer.ElapsedSeconds();
  // Request latency ends here, before the responses are framed.
  const auto done = std::chrono::steady_clock::now();

  if (result.ok() && result->NumRows() != total_rows) {
    result = Status::Internal(
        "featurize returned " + std::to_string(result->NumRows()) +
        " row(s) for a " + std::to_string(total_rows) + "-row batch");
  }

  std::vector<Completion> completions;
  completions.reserve(batch.size());
  size_t row_offset = 0;
  for (size_t b = 0; b < batch.size(); ++b) {
    const FeaturizeJob& job = batch[b];
    const size_t job_rows = row_counts[b];
    Completion c;
    c.conn_id = job.conn_id;
    c.request_id = job.request.request_id;
    const double latency_seconds =
        std::chrono::duration<double>(done - job.enqueued_at).count();
    if (result.ok()) {
      const size_t width = result->NumFeatures();
      const size_t bytes = FeaturizeResponseSize(job_rows, width);
      if (bytes <= kMaxFramePayload) {
        c.frame = EncodeFeaturizeResponseFrame(c.request_id, job_rows, width,
                                               result->x.RowPtr(row_offset));
      } else {
        // A frame this large would read as stream corruption to every
        // peer; answer this request alone with an error instead.
        const size_t max_rows =
            (kMaxFramePayload - FeaturizeResponseSize(0, width)) /
            (width * sizeof(double));
        c.frame = EncodeFrame(EncodeErrorResponse(
            Opcode::kFeaturize, c.request_id,
            Status::InvalidArgument(
                "FEATURIZE response of " + std::to_string(bytes) +
                " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                "-byte frame limit; at " + std::to_string(width) +
                " features per row at most " + std::to_string(max_rows) +
                " row(s) fit in one request")));
        if (stats_ != nullptr) {
          stats_->featurize_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    } else {
      c.frame = EncodeFrame(EncodeErrorResponse(
          Opcode::kFeaturize, c.request_id, result.status()));
    }
    row_offset += job_rows;
    if (stats_ != nullptr) stats_->request_latency.Record(latency_seconds);
    completions.push_back(std::move(c));
  }

  if (stats_ != nullptr) {
    stats_->batches_executed.fetch_add(1, std::memory_order_relaxed);
    stats_->rows_featurized.fetch_add(total_rows, std::memory_order_relaxed);
    stats_->batch_latency.Record(exec_seconds);
    if (!result.ok()) {
      stats_->featurize_errors.fetch_add(batch.size(),
                                         std::memory_order_relaxed);
    }
  }
  if (!result.ok()) {
    LEVA_LOG(kWarning, "featurize batch of %zu request(s), %zu row(s): %s",
             batch.size(), total_rows, result.status().ToString().c_str());
  }
  sink_(std::move(completions));
}

Result<MLDataset> ExecuteFeaturize(const LevaPipeline& pipeline,
                                   const Table& rows,
                                   const std::string& target_column,
                                   bool rows_in_graph) {
  if (rows.NumRows() == 0) {
    return Status::InvalidArgument("FEATURIZE request with zero rows");
  }
  // No target: pure serving; Featurize skips no column and encodes no y.
  if (target_column.empty()) {
    return pipeline.Featurize(rows, "", TargetEncoder(), rows_in_graph);
  }
  const Column* target = rows.FindColumn(target_column);
  if (target == nullptr) {
    return Status::NotFound("no target column '" + target_column +
                            "' in FEATURIZE rows");
  }
  // A client-supplied target follows the CLI convention — classification
  // first, regression fallback.
  TargetEncoder encoder;
  if (!encoder.Fit(*target, /*classification=*/true).ok()) {
    LEVA_RETURN_IF_ERROR(encoder.Fit(*target, /*classification=*/false));
  }
  return pipeline.Featurize(rows, target_column, encoder, rows_in_graph);
}

}  // namespace leva::serve
