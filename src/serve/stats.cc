#include "serve/stats.h"

namespace leva::serve {

std::vector<std::pair<std::string, double>> ServerStats::Render(
    double uptime_seconds) const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(23);
  auto put = [&out](const char* name, double v) { out.emplace_back(name, v); };
  put("uptime_seconds", uptime_seconds);
  put("connections_accepted", double(connections_accepted.load()));
  put("connections_active", double(connections_active.load()));
  put("requests_ping", double(requests_ping.load()));
  put("requests_featurize", double(requests_featurize.load()));
  put("requests_stats", double(requests_stats.load()));
  put("requests_reload", double(requests_reload.load()));
  put("requests_drain", double(requests_drain.load()));
  const double rows = double(rows_featurized.load());
  const double batches = double(batches_executed.load());
  put("rows_featurized", rows);
  put("batches_executed", batches);
  put("rows_per_batch", batches > 0 ? rows / batches : 0.0);
  put("overload_rejections", double(overload_rejections.load()));
  put("protocol_errors", double(protocol_errors.load()));
  put("featurize_errors", double(featurize_errors.load()));
  put("reloads_ok", double(reloads_ok.load()));
  put("reloads_failed", double(reloads_failed.load()));
  put("model_generation", double(model_generation.load()));

  put("request_latency_p50_ms", request_latency.Percentile(50) * 1e3);
  put("request_latency_p95_ms", request_latency.Percentile(95) * 1e3);
  put("request_latency_p99_ms", request_latency.Percentile(99) * 1e3);
  put("batch_latency_p50_ms", batch_latency.Percentile(50) * 1e3);
  put("batch_latency_p95_ms", batch_latency.Percentile(95) * 1e3);
  put("batch_latency_p99_ms", batch_latency.Percentile(99) * 1e3);
  return out;
}

double StatsField(const std::vector<std::pair<std::string, double>>& fields,
                  const std::string& name) {
  for (const auto& [key, value] : fields) {
    if (key == name) return value;
  }
  return 0.0;
}

}  // namespace leva::serve
