#ifndef LEVA_COMMON_METRICS_H_
#define LEVA_COMMON_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>

namespace leva::metrics {

/// Lifetime latency distribution over fixed log-linear buckets of
/// nanoseconds: exact below 16 ns, then 16 sub-buckets per power of two, so
/// a percentile is within 1/16 of the exact nearest-rank value. The top
/// bucket starts near 2^40 ns (~18 min) and takes everything above it. A
/// record is three relaxed atomic adds, safe from any number of threads.
class Histogram {
 public:
  /// NaN and values <= 0 land in the first bucket; past 2^53 ns saturates.
  void Record(double seconds) {
    const double ns = seconds * 1e9;
    RecordNanos(ns > 0 ? static_cast<uint64_t>(std::min(ns, 0x1p53)) : 0);
  }

  void RecordNanos(uint64_t ns) {
    buckets_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const { return sum_ns_.load() * 1e-9; }

  /// Nearest-rank percentile in seconds: the sample at 0-based rank
  /// floor(n * pct / 100), clamped to the last, read as the middle of its
  /// bucket. 0 when nothing was recorded.
  double Percentile(double pct) const {
    std::array<uint64_t, kBuckets> counts;
    uint64_t n = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      n += counts[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    if (n == 0) return 0.0;
    const double r = n * pct / 100;
    const uint64_t rank = r < n ? static_cast<uint64_t>(r > 0 ? r : 0) : n - 1;
    size_t b = 0;
    uint64_t seen = counts[0];
    while (seen <= rank) seen += counts[++b];
    // Bucket b >= 16 holds [(16 + b % 16) << shift, + 2^shift); samples are
    // whole nanoseconds.
    const int shift = b < kSub ? 0 : static_cast<int>(b / kSub) - 1;
    const uint64_t lo = b < kSub ? b : (kSub + b % kSub) << shift;
    return (lo + ((uint64_t{1} << shift) - 1) / 2.0) * 1e-9;
  }

 private:
  static constexpr int kSubBits = 4;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr int kTopOctave = 40;
  static constexpr size_t kBuckets = kSub + (kTopOctave - kSubBits) * kSub;

  static size_t BucketOf(uint64_t ns) {
    if (ns < kSub) return ns;
    const int k = std::bit_width(ns) - 1;
    if (k >= kTopOctave) return kBuckets - 1;
    const int shift = k - kSubBits;
    return (shift + 1) * kSub + ((ns >> shift) & (kSub - 1));
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

static_assert(sizeof(Histogram) <= 5 * 1024);

/// Times its own scope into a Histogram; a null histogram records nothing.
class Span {
 public:
  explicit Span(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    if (histogram_ == nullptr) return;
    histogram_->RecordNanos(std::chrono::nanoseconds(
                                std::chrono::steady_clock::now() - start_)
                                .count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace leva::metrics

#endif  // LEVA_COMMON_METRICS_H_
