// Metrics-registry tests: LogHistogram quantiles against exact sample
// quantiles (the documented one-bucket error bound), underflow
// handling, exact merging, and the Registry's name-keyed accessors with
// reference stability.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using vrmr::Pcg32;

namespace vrmr::obs {
namespace {

/// Exact nearest-rank quantile of a sample set (the estimator the
/// histogram approximates).
double exact_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::max<double>(
      1.0, std::ceil(q * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

TEST(LogHistogram, QuantileWithinOneBucketOfExactOnLogUniformSamples) {
  // Samples spanning six decades — the dynamic range latencies cover
  // (microseconds to tens of seconds). Every reported quantile must be
  // within the documented relative error: est/exact in
  // [1/growth, growth] (the estimate is the geometric midpoint of the
  // bucket holding the exact sample, so it is off by at most half a
  // bucket either way).
  Pcg32 rng(42);
  LogHistogram hist;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-5 * std::pow(10.0, 6.0 * rng.next_double());
    samples.push_back(v);
    hist.observe(v);
  }
  ASSERT_EQ(hist.count(), samples.size());
  const double growth = LogHistogram::kDefaultGrowth;
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(samples, q);
    const double est = hist.quantile(q);
    EXPECT_GE(est / exact, 1.0 / growth) << "q=" << q;
    EXPECT_LE(est / exact, growth) << "q=" << q;
  }
  // relative_error() advertises exactly that bound.
  EXPECT_DOUBLE_EQ(hist.relative_error(), growth - 1.0);
}

TEST(LogHistogram, SummaryMatchesIndividualQuantilesAndMoments) {
  LogHistogram hist;
  double sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    hist.observe(i * 1e-3);
    sum += i * 1e-3;
  }
  const LogHistogram::Summary s = hist.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(s.p50, hist.quantile(0.50));
  EXPECT_DOUBLE_EQ(s.p95, hist.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, hist.quantile(0.99));
  EXPECT_DOUBLE_EQ(s.p999, hist.quantile(0.999));
  // Moments are exact (not bucketed).
  EXPECT_DOUBLE_EQ(hist.mean(), sum / 1000.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1e-3);
  EXPECT_DOUBLE_EQ(hist.max(), 1.0);
  // The p99.9 of 1..1000 ms is the 1000th sample's bucket.
  EXPECT_GE(s.p999, 1.0 / LogHistogram::kDefaultGrowth);
}

TEST(LogHistogram, UnderflowReportsMinValueAndKeepsExactMoments) {
  LogHistogram hist(1e-6);
  hist.observe(0.0);      // below min_value: underflow bucket
  hist.observe(1e-9);     // ditto
  hist.observe(1e-3);
  EXPECT_EQ(hist.count(), 3u);
  // Quantiles landing in the underflow bucket report min_value (the
  // histogram cannot resolve below it)...
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 1e-6);
  // ...while the top sample resolves normally...
  const double p99 = hist.quantile(0.99);
  EXPECT_GE(p99 / 1e-3, 1.0 / LogHistogram::kDefaultGrowth);
  EXPECT_LE(p99 / 1e-3, LogHistogram::kDefaultGrowth);
  // ...and the exact moments still see the true values.
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 1e-9 + 1e-3);
}

TEST(LogHistogram, EmptyHistogramIsInert) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.summary().count, 0u);
}

TEST(LogHistogram, OneSampleReportsItsSample) {
  // Every quantile's bucket midpoint clamps into [min, max], which one
  // sample pins to the sample itself.
  LogHistogram hist;
  hist.observe(0.0123);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hist.quantile(q), 0.0123) << "q=" << q;
  }
}

TEST(LogHistogram, MergedHalvesEqualOneHistogramOfTheUnion) {
  Pcg32 rng(7);
  LogHistogram whole;
  LogHistogram first;
  LogHistogram second;
  for (int i = 0; i < 4000; ++i) {
    // Six decades plus a few underflow samples, each a multiple of
    // 2^-30, so both summation orders are exact and the sums compare
    // independently of association.
    const double v = i % 97 == 0
                         ? std::ldexp(1.0, -30)
                         : std::ldexp(std::round(std::pow(10.0, 6.0 * rng.next_double())), -20);
    whole.observe(v);
    (i % 3 == 0 ? first : second).observe(v);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), whole.count());
  EXPECT_EQ(first.min(), whole.min());
  EXPECT_EQ(first.max(), whole.max());
  EXPECT_DOUBLE_EQ(first.sum(), whole.sum());
  for (int k = 0; k <= 1000; ++k) {
    const double q = k / 1000.0;
    EXPECT_EQ(first.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogram, MergingAnEmptyHistogramChangesNothing) {
  LogHistogram hist;
  for (const double v : {0.002, 0.03, 0.4}) hist.observe(v);
  const LogHistogram before = hist;
  hist.merge(LogHistogram());
  EXPECT_EQ(hist.count(), before.count());
  EXPECT_EQ(hist.sum(), before.sum());
  EXPECT_EQ(hist.min(), before.min());
  EXPECT_EQ(hist.max(), before.max());
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(hist.quantile(q), before.quantile(q)) << "q=" << q;
  }
  // ...and an empty histogram that merges a full one becomes it.
  LogHistogram empty;
  empty.merge(before);
  EXPECT_EQ(empty.count(), before.count());
  EXPECT_EQ(empty.min(), before.min());
  EXPECT_EQ(empty.max(), before.max());
  EXPECT_EQ(empty.quantile(0.5), before.quantile(0.5));
}

TEST(LogHistogram, MergeRejectsDifferentBuckets) {
  LogHistogram hist;
  EXPECT_THROW(hist.merge(LogHistogram(1e-6, 2.0)), CheckError);
  EXPECT_THROW(hist.merge(LogHistogram(1e-3)), CheckError);
}

TEST(Registry, AccessorsCreateOnceAndStayReferenceStable) {
  Registry registry;
  Counter& frames = registry.counter("service.frames");
  frames.inc();
  frames.inc(2);
  Gauge& depth = registry.gauge("engine.queue_depth");
  depth.set(3.0);
  depth.add(1.5);
  LogHistogram& wait = registry.histogram("interactive.queue_wait_s");
  wait.observe(0.25);

  // Same name -> same object (references stay valid as more metrics
  // are created around them — the serving layer holds them per class).
  registry.counter("service.other");
  registry.histogram("batch.queue_wait_s").observe(1.0);
  EXPECT_EQ(&registry.counter("service.frames"), &frames);
  EXPECT_EQ(&registry.histogram("interactive.queue_wait_s"), &wait);
  EXPECT_EQ(frames.value(), 3u);
  EXPECT_DOUBLE_EQ(depth.value(), 4.5);

  // Read-side lookup: present vs absent.
  ASSERT_NE(registry.find_histogram("interactive.queue_wait_s"), nullptr);
  EXPECT_EQ(registry.find_histogram("interactive.queue_wait_s")->count(), 1u);
  EXPECT_EQ(registry.find_histogram("no.such.histogram"), nullptr);

  // The dump mentions every metric once.
  const std::string dump = registry.to_string();
  EXPECT_NE(dump.find("service.frames"), std::string::npos);
  EXPECT_NE(dump.find("engine.queue_depth"), std::string::npos);
  EXPECT_NE(dump.find("interactive.queue_wait_s"), std::string::npos);
}

}  // namespace
}  // namespace vrmr::obs
