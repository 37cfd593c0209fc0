#ifndef LEVA_SERVE_STATS_H_
#define LEVA_SERVE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace leva::serve {

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

  /// FEATURIZE request latency, enqueue until the batch's Featurize call
  /// returns (before the response is encoded).
  metrics::Histogram request_latency;
  /// Coalesced-batch execution latency, one sample per Featurize call.
  metrics::Histogram batch_latency;

  /// Renders every counter plus p50/p95/p99 of both latency histograms (in
  /// milliseconds, over the server's lifetime, within 1/16) as named fields,
  /// ready for EncodeStatsResponse.
  std::vector<std::pair<std::string, double>> Render(
      double uptime_seconds) const;
};

/// Field accessor for decoded STATS responses (client side, benches, tests).
double StatsField(const std::vector<std::pair<std::string, double>>& fields,
                  const std::string& name);

}  // namespace leva::serve

#endif  // LEVA_SERVE_STATS_H_
