#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace vrmr::obs {

LogHistogram::LogHistogram(double min_value, double growth)
    : min_value_(min_value), growth_(growth),
      inv_log_growth_(1.0 / std::log(growth)) {
  VRMR_CHECK(min_value > 0.0);
  VRMR_CHECK(growth > 1.0);
}

void LogHistogram::observe(double v) {
  VRMR_CHECK(std::isfinite(v));
  if (count_ == 0) {
    min_seen_ = max_seen_ = v;
  } else {
    min_seen_ = std::min(min_seen_, v);
    max_seen_ = std::max(max_seen_, v);
  }
  ++count_;
  sum_ += v;
  if (v < min_value_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<std::size_t>(
      std::floor(std::log(v / min_value_) * inv_log_growth_));
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil — the "nearest rank" method).
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  // The exact sample lies in its bucket and in [min, max], so clamping
  // the midpoint into the observed range never moves it further away.
  if (rank <= underflow_) return std::clamp(min_value_, min_seen_, max_seen_);
  std::uint64_t seen = underflow_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Geometric midpoint of bucket i: min * g^(i + 0.5).
      return std::clamp(min_value_ * std::pow(growth_, static_cast<double>(i) + 0.5),
                        min_seen_, max_seen_);
    }
  }
  return max_seen_;
}

void LogHistogram::merge(const LogHistogram& other) {
  VRMR_CHECK_MSG(min_value_ == other.min_value_ && growth_ == other.growth_,
                 "merging histograms with different buckets");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

LogHistogram::Summary LogHistogram::summary() const {
  Summary s;
  s.count = count_;
  s.sum = sum_;
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  s.p999 = quantile(0.999);
  return s;
}

LogHistogram& Registry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, LogHistogram()).first;
  }
  return it->second;
}

const LogHistogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string Registry::to_string() const {
  std::string out;
  char buf[160];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-36s count %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-36s gauge %.6g\n", name.c_str(), g.value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    const LogHistogram::Summary s = h.summary();
    std::snprintf(buf, sizeof(buf),
                  "%-36s n %-7llu p50 %.4g p95 %.4g p99 %.4g p99.9 %.4g\n",
                  name.c_str(), static_cast<unsigned long long>(s.count), s.p50,
                  s.p95, s.p99, s.p999);
    out += buf;
  }
  return out;
}

}  // namespace vrmr::obs
