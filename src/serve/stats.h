#ifndef LEVA_SERVE_STATS_H_
#define LEVA_SERVE_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace leva::serve {

/// Nearest-rank percentile of an ascending-`sorted` sample: element at index
/// floor(n * pct / 100), clamped to the last element. pct in [0, 100].
/// Returns 0 for an empty sample. Shared by the paper-table benches, the
/// serving load generator, and the serving daemon's STATS percentiles.
double Percentile(const std::vector<double>& sorted, size_t pct);

/// The standard latency cut of a sample (p50/p90/p95/p99), computed on one
/// sort of a by-value copy.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
};

LatencySummary SummarizeLatencies(std::vector<double> values);

/// Bounded sliding window of recent latency samples: a fixed-capacity ring
/// the recording threads overwrite in arrival order, snapshotted on demand
/// for percentile computation. Memory is constant regardless of uptime.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity = 4096) : capacity_(capacity) {}

  void Record(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(seconds);
    } else {
      ring_[count_ % capacity_] = seconds;
    }
    ++count_;
  }

  /// Unordered copy of the window's samples.
  std::vector<double> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_;
  }

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<double> ring_;
  uint64_t count_ = 0;  ///< lifetime samples (>= ring_.size())
};

/// Live counters for the serving daemon, updated lock-free from the I/O loop
/// and the batch dispatcher, and rendered into the STATS response as named
/// (string, double) fields so the wire format never needs a version bump for
/// a new counter.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> requests_ping{0};
  std::atomic<uint64_t> requests_featurize{0};
  std::atomic<uint64_t> requests_stats{0};
  std::atomic<uint64_t> requests_reload{0};
  std::atomic<uint64_t> requests_drain{0};
  std::atomic<uint64_t> rows_featurized{0};
  std::atomic<uint64_t> batches_executed{0};
  std::atomic<uint64_t> overload_rejections{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> featurize_errors{0};
  std::atomic<uint64_t> reloads_ok{0};
  std::atomic<uint64_t> reloads_failed{0};
  /// Bumped on every successful RELOAD: lets clients observe which model
  /// generation is serving.
  std::atomic<uint64_t> model_generation{0};

  /// FEATURIZE request latency, enqueue to response-encoded (seconds).
  LatencyReservoir request_latency;
  /// Coalesced-batch execution latency, one sample per Featurize call.
  LatencyReservoir batch_latency;

  /// Renders every counter plus p50/p95/p99 of both latency reservoirs (in
  /// milliseconds) as named fields, ready for EncodeStatsResponse.
  std::vector<std::pair<std::string, double>> Render(
      double uptime_seconds) const;
};

/// Field accessor for decoded STATS responses (client side, benches, tests).
double StatsField(const std::vector<std::pair<std::string, double>>& fields,
                  const std::string& name);

}  // namespace leva::serve

#endif  // LEVA_SERVE_STATS_H_
