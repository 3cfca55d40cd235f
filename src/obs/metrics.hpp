#pragma once

// Unified metrics registry: named counters, gauges, and log-bucketed
// histograms that answer p50/p95/p99/p99.9 without retaining samples.
//
// LogHistogram buckets grow geometrically by `growth` (default 2^(1/8),
// ~9% per bucket), so a reported quantile is off from the true sample
// by at most one bucket width: est / exact ∈ [1/growth, growth]. That
// bound is what tests/obs/test_metrics.cpp pins down. Memory is O(log
// of the dynamic range) — a handful of buckets per decade — which is
// why the serving layer can keep per-priority-class latency histograms
// alive for the whole run (per-class SLO measurement).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vrmr::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class LogHistogram {
 public:
  /// Values below `min_value` land in the underflow bucket (reported as
  /// `min_value`); `growth` is the per-bucket geometric factor.
  explicit LogHistogram(double min_value = 1e-6, double growth = kDefaultGrowth);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_seen_; }
  double max() const { return max_seen_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Quantile estimate for q in [0, 1]: the geometric midpoint of the
  /// bucket containing the q-th sample. Relative error <= growth - 1.
  double quantile(double q) const;

  /// Max relative error of quantile(): one bucket width.
  double relative_error() const { return growth_ - 1.0; }

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, p999 = 0.0;
  };
  Summary summary() const;

  static constexpr double kDefaultGrowth = 1.0905077326652577;  // 2^(1/8)

 private:
  double min_value_;
  double growth_;
  double inv_log_growth_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
  std::vector<std::uint64_t> buckets_;  // bucket i covers min*g^i .. min*g^(i+1)
};

/// Name-keyed registry. References returned stay valid for the
/// registry's lifetime (node-based map). Naming convention (see
/// src/obs/README.md): dotted lowercase paths, unit-suffixed leaves —
/// e.g. "interactive.queue_wait_s", "cache.hits", "engine.queue_depth".
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  LogHistogram& histogram(const std::string& name);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, LogHistogram>& histograms() const { return histograms_; }

  const LogHistogram* find_histogram(const std::string& name) const;

  /// Human-readable dump (one metric per line), for examples and debug.
  std::string to_string() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace vrmr::obs
