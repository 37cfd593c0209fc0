#ifndef LEVA_SERVE_BATCHER_H_
#define LEVA_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "serve/protocol.h"
#include "serve/stats.h"

namespace leva {
class LevaPipeline;
}  // namespace leva

namespace leva::serve {

/// Batching and backpressure policy.
struct BatcherOptions {
  /// Row cap of one batch. 1 disables coalescing — every request executes
  /// alone (the baseline the serving bench compares against).
  size_t max_batch_rows = 256;
  /// Ignored: the dispatcher never holds a request back (see
  /// RequestBatcher). Kept only while levabench still assigns it.
  size_t max_delay_us = 1000;
  /// Admission bound: total rows admitted-but-unexecuted. An arrival that
  /// would exceed it is rejected (the server answers OVERLOADED) instead of
  /// buffered, so a saturated daemon holds constant memory.
  size_t max_pending_rows = 8192;
};

/// One admitted FEATURIZE request awaiting execution.
struct FeaturizeJob {
  uint64_t conn_id = 0;
  FeaturizeRequest request;
  std::chrono::steady_clock::time_point enqueued_at{};
  uint64_t schema_sig = 0;  ///< set on admission; batches never cross it
};

/// A finished request: its response as a complete wire frame (length, CRC32C,
/// payload), routed back to `conn_id`. The I/O thread only queues and sends
/// it.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  std::string frame;
};

/// Coalesces concurrent FEATURIZE requests into one blocked-gather Featurize
/// call. Requests are admitted from the I/O loop into a bounded queue. A
/// dispatcher thread waits only while the queue is empty; whenever it is
/// free it takes the largest same-schema prefix of the queue, up to
/// `max_batch_rows` (smart batching: what queued while one batch executed is
/// the next batch). It runs each batch through the supplied executor (the
/// pipeline's batched Featurize), frames each request's slice of the result
/// matrix as its finished response, and hands the completions to the sink.
///
/// Coalescing is sound because a row's feature vector is a pure function of
/// the row and the served model — Featurize output is documented invariant
/// to batch composition — with one exception: rows_in_graph requests address
/// row nodes by table position, so they always execute as singleton batches.
/// Batches also never mix schemas (table name, target column, column
/// names/types): a schema change cuts the batch.
class RequestBatcher {
 public:
  using Executor = std::function<Result<MLDataset>(
      Table rows, std::string target_column, bool rows_in_graph)>;
  using CompletionSink = std::function<void(std::vector<Completion>)>;

  RequestBatcher(BatcherOptions options, Executor executor,
                 CompletionSink sink, ServerStats* stats);
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Spawns the dispatcher thread.
  void Start();

  /// Admits `job` unless the pending-rows bound would be exceeded (or the
  /// batcher is stopping). Returns false on rejection — the caller responds
  /// OVERLOADED; nothing was buffered.
  bool TryEnqueue(FeaturizeJob job);

  /// Drains: already-admitted jobs execute to completion (their completions
  /// reach the sink), then the dispatcher exits and is joined. Idempotent.
  /// New TryEnqueue calls fail once stopping begins.
  void Stop();

  size_t PendingRows() const;

 private:
  void DispatchLoop();
  void ExecuteBatch(std::vector<FeaturizeJob> batch, size_t total_rows);

  const BatcherOptions options_;
  const Executor executor_;
  const CompletionSink sink_;
  ServerStats* const stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<FeaturizeJob> queue_;
  size_t pending_rows_ = 0;
  bool stop_ = false;
  std::thread dispatcher_;
};

/// The canonical executor: featurizes `rows` against `pipeline` exactly as
/// the offline path would. An empty `target_column` means "no label" (pure
/// serving requests have none): no column is skipped and y stays zero.
/// Exposed so differential tests and benches can compute the expected bits
/// offline through the identical code path.
Result<MLDataset> ExecuteFeaturize(const LevaPipeline& pipeline,
                                   const Table& rows,
                                   const std::string& target_column,
                                   bool rows_in_graph);

}  // namespace leva::serve

#endif  // LEVA_SERVE_BATCHER_H_
