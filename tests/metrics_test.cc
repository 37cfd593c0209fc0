#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace leva::metrics {
namespace {

// The exact nearest-rank rule the histogram approximates.
double ExactPercentile(const std::vector<double>& sorted, double pct) {
  const size_t rank = static_cast<size_t>(sorted.size() * pct / 100.0);
  return sorted[std::min(sorted.size() - 1, rank)];
}

TEST(MetricsTest, EmptyHistogramReadsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_seconds(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(MetricsTest, PercentilesWithinOneSixteenthOfExact) {
  // Log-uniform over 1 us .. 10 s: every octave the serving and Fit spans
  // live in gets samples.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(-6.0, 1.0);
  std::vector<double> samples(10000);
  Histogram h;
  for (double& s : samples) {
    s = std::pow(10.0, exponent(rng));
    h.Record(s);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count(), samples.size());
  for (const double pct : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                           99.9, 100.0}) {
    const double exact = ExactPercentile(samples, pct);
    EXPECT_NEAR(h.Percentile(pct), exact, exact / 16) << "p" << pct;
  }
  double sum = 0;
  for (const double s : samples) sum += s;
  // Each sample is truncated to whole nanoseconds.
  EXPECT_NEAR(h.sum_seconds(), sum, samples.size() * 1e-9);
}

TEST(MetricsTest, PercentileUsesNearestRank) {
  // Samples 1..10 ms lie in distinct buckets, so each percentile must pick
  // exactly the sample at rank floor(n * pct / 100).
  Histogram h;
  for (const int ms : {7, 3, 10, 1, 5, 9, 2, 8, 4, 6}) h.Record(ms * 1e-3);
  for (const double pct : {0.0, 9.0, 10.0, 49.0, 50.0, 89.9, 90.0, 100.0}) {
    const double exact = (std::min(9, static_cast<int>(10 * pct / 100)) + 1) *
                         1e-3;
    EXPECT_NEAR(h.Percentile(pct), exact, exact / 32) << "p" << pct;
  }
}

TEST(MetricsTest, BucketEdgesStayWithinHalfABucket) {
  // A lone sample reads back as the middle of its bucket: exact below 16 ns,
  // within 1/32 above, on both sides of every power-of-two edge.
  std::vector<uint64_t> values;
  for (uint64_t ns = 0; ns < 40; ++ns) values.push_back(ns);
  for (int k = 5; k < 40; ++k) {
    const uint64_t edge = uint64_t{1} << k;
    values.insert(values.end(), {edge - 1, edge, edge + 1, edge + edge / 3});
  }
  for (const uint64_t ns : values) {
    Histogram h;
    h.RecordNanos(ns);
    const double got_ns = h.Percentile(50) * 1e9;
    if (ns < 16) {
      EXPECT_NEAR(got_ns, double(ns), 1e-6) << ns;
    } else {
      EXPECT_NEAR(got_ns, double(ns), double(ns) / 32) << ns;
    }
  }
}

TEST(MetricsTest, ClampsNonFiniteAndOutOfRangeToEndBuckets) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double low : {std::nan(""), -1.0, -inf, 0.0}) {
    Histogram h;
    h.Record(low);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.Percentile(100), 0.0) << low;
  }
  const double top = 0x1p40 * 1e-9;  // the top bucket starts just below this
  Histogram reference;
  reference.RecordNanos(uint64_t{1} << 41);
  for (const double high : {inf, 1e300, 0x1p41 * 1e-9}) {
    Histogram h;
    h.Record(high);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_NEAR(h.Percentile(0), top, top / 16) << high;
    EXPECT_EQ(h.Percentile(0), reference.Percentile(0)) << high;
  }
}

TEST(MetricsTest, ConcurrentRecordsCountExactly) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.RecordNanos(1000 + i % 977);
    });
  }
  for (std::thread& t : threads) t.join();
  Histogram serial;
  for (uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    serial.RecordNanos(1000 + i % kPerThread % 977);
  }
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum_seconds(), serial.sum_seconds());
  for (const double pct : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(pct), serial.Percentile(pct)) << pct;
  }
}

TEST(MetricsTest, SpanRecordsScopeDuration) {
  Histogram h;
  WallTimer outer;
  {
    Span span(&h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double elapsed = outer.ElapsedSeconds();
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum_seconds(), 2e-3);
  EXPECT_LE(h.sum_seconds(), elapsed);
  { Span span(nullptr); }  // a null histogram is allowed and records nothing
}

}  // namespace
}  // namespace leva::metrics
