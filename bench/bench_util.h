#ifndef LEVA_BENCH_BENCH_UTIL_H_
#define LEVA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace leva::bench {

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
