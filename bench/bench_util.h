#ifndef LEVA_BENCH_BENCH_UTIL_H_
#define LEVA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace leva::bench {

/// Nearest-rank percentile of an ascending-`sorted` sample: element at index
/// floor(n * pct / 100), clamped to the last element. pct in [0, 100].
/// Returns 0 for an empty sample. Shared by the paper-table benches and the
/// serving load generator.
inline double Percentile(const std::vector<double>& sorted, size_t pct) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(sorted.size() - 1, sorted.size() * pct / 100)];
}

/// The standard latency cut of a sample (p50/p90/p95/p99), computed on one
/// sort of a by-value copy.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
};

inline LatencySummary SummarizeLatencies(std::vector<double> values) {
  LatencySummary out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = Percentile(values, 50);
  out.p90 = Percentile(values, 90);
  out.p95 = Percentile(values, 95);
  out.p99 = Percentile(values, 99);
  return out;
}

/// Aborts with a message on error; benchmark harnesses have no recovery path.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Fixed-width table printer for paper-style result tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 12)
      : headers_(std::move(headers)), width_(width) {}

  void PrintHeader() const {
    for (const std::string& h : headers_) {
      std::printf("%-*s", width_, h.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_ - 2; ++j) std::printf("-");
      std::printf("  ");
    }
    std::printf("\n");
  }

  void PrintRow(const std::string& label, const std::vector<double>& values,
                int precision = 3) const {
    std::printf("%-*s", width_, label.c_str());
    for (const double v : values) {
      std::printf("%-*.*f", width_, precision, v);
    }
    std::printf("\n");
  }

  void PrintStringRow(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) {
      std::printf("%-*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

}  // namespace leva::bench

#endif  // LEVA_BENCH_BENCH_UTIL_H_
