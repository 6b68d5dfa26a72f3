// Unit tests for obs::Histogram, including two edge cases: values above the
// top bucket land in a dedicated overflow bucket (with the exact max kept)
// instead of being clamped into the top bucket, and Percentile(0) answers
// the bucket of the smallest recorded value, not bucket 0's upper bound.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace hos::obs {
namespace {

TEST(HistogramTest, EmptyHistogramAnswersZeroEverywhere) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.overflow_count(), 0u);
  EXPECT_EQ(hist.max_recorded(), 0.0);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.Percentile(0.0), 0.0);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_EQ(hist.Percentile(1.0), 0.0);
}

TEST(HistogramTest, PercentileBoundsTheRecordedValue) {
  Histogram hist;
  hist.Record(0.010);  // 10 ms
  EXPECT_EQ(hist.count(), 1u);
  // Every quantile of a single-value histogram reports that value's
  // bucket: within the 2^(1/4) geometric error of the true value.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const double p = hist.Percentile(q);
    EXPECT_GE(p, 0.010) << "q=" << q;
    EXPECT_LE(p, 0.010 * 1.19) << "q=" << q;
  }
}

TEST(HistogramTest, PercentileZeroReportsSmallestValueNotBucketZero) {
  Histogram hist;
  hist.Record(1.0);  // far above bucket 0 (1 microsecond)
  // The old implementation returned UpperBound(0) == 1e-6 here.
  EXPECT_GE(hist.Percentile(0.0), 1.0);
}

TEST(HistogramTest, PercentilesAreMonotoneInQ) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(1e-4 * i);  // 0.1ms .. 100ms
  double previous = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double p = hist.Percentile(q);
    EXPECT_GE(p, previous) << "q=" << q;
    previous = p;
  }
  // p50 of a uniform 0.1ms..100ms spread lands near 50ms (bucket error
  // bounded by the 2^(1/4) ratio).
  EXPECT_GT(hist.Percentile(0.5), 0.040);
  EXPECT_LT(hist.Percentile(0.5), 0.065);
}

TEST(HistogramTest, OverflowValuesAreCountedNotClamped) {
  Histogram hist;
  // Default range tops out near 1e-6 * 2^32 s; 1e9 is far beyond it.
  hist.Record(0.001);
  hist.Record(1e9);
  hist.Record(2e9);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.overflow_count(), 2u);
  EXPECT_EQ(hist.max_recorded(), 2e9);
  // A rank landing in the overflow bucket answers the exact max rather
  // than the top bucket's upper bound.
  EXPECT_EQ(hist.Percentile(1.0), 2e9);
  // Ranks below the overflow still answer from the finite buckets.
  EXPECT_LT(hist.Percentile(0.0), 0.0012);
}

TEST(HistogramTest, SumAndMaxTrackExactValues) {
  Histogram hist;
  hist.Record(1.5);
  hist.Record(2.5);
  hist.Record(0.25);
  EXPECT_DOUBLE_EQ(hist.sum(), 4.25);
  EXPECT_DOUBLE_EQ(hist.max_recorded(), 2.5);
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  Histogram hist;
  hist.Record(0.0);
  hist.Record(-1.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(hist.overflow_count(), 0u);
  // Both sit in bucket 0, whose upper bound is the configured minimum.
  EXPECT_LE(hist.Percentile(1.0), 1e-6 + 1e-12);
}

TEST(HistogramTest, CustomBucketLayoutIsRespected) {
  HistogramOptions options;
  options.min_value = 1.0;
  options.num_buckets = 8;
  Histogram hist(options);
  hist.Record(0.5);   // bucket 0
  hist.Record(100.0);  // far above the 8-bucket range (top ≈ 3.4) → overflow
  EXPECT_EQ(hist.overflow_count(), 1u);
  EXPECT_EQ(hist.Percentile(1.0), 100.0);
}

// Concurrent recording (the TSan case): many threads hammer one histogram;
// totals must match and no data race may be reported.
TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(1e-4 * ((t * kPerThread + i) % 100 + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(hist.max_recorded(), 1e-4 * 100);
}

}  // namespace
}  // namespace hos::obs
