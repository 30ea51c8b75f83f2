// Pure helpers of the receiver benchmark: seeded randomness, the open-loop
// arrival schedule, exact nearest-rank percentiles and the metric-name rules
// of BENCHMARK.json. Header-only and free of the DCDiff libraries so the
// benchmark's own tests (tests/test_loadgen.cpp) check them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rxbench {

// splitmix64: the benchmark's only random source, so one seed gives the same
// inputs and arrival times on every platform (std:: distributions are
// implementation-defined).
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [0, n); n > 0.
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

// Exact nearest-rank percentile: the smallest sample with at least p percent
// of the samples at or below it (rank ceil(p/100 * n), 1-based). p in
// (0, 100]. Returns NaN for an empty sample.
inline double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
  return nearest_rank(v, 50.0);
}

// Median over consecutive groups of `v` (kept in send order) of each
// group's nearest-rank p-th percentile. There are as many groups as hold at
// least `min_group` samples, at most `max_groups`: a stretch of hypervisor
// steal, or a queue that fell out of step, then moves one group's percentile
// rather than the run's, and a run too short for two groups uses all its
// samples at once, so p90 keeps several samples above it.
inline double grouped_percentile(const std::vector<double>& v, double p,
                                 size_t max_groups = 5,
                                 size_t min_group = 50) {
  const size_t groups =
      std::max<size_t>(1, std::min(max_groups, v.size() / min_group));
  std::vector<double> per_group;
  for (size_t g = 0; g < groups; ++g) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(g * v.size() / groups);
    const auto last =
        v.begin() + static_cast<std::ptrdiff_t>((g + 1) * v.size() / groups);
    per_group.push_back(nearest_rank(std::vector<double>(first, last), p));
  }
  return median(per_group);
}

// Due times (seconds from the start of the window) of a Poisson arrival
// process at `rate` per second over [0, seconds), conditioned on its expected
// count: round(rate * seconds) arrivals placed uniformly at random and
// sorted. The gaps stay exponential-like (bursts and lulls), but every seed
// sends the same number of requests, so throughput does not vary with the
// seed's arrival count.
inline std::vector<double> poisson_schedule(uint64_t seed, double rate,
                                            double seconds) {
  std::vector<double> due;
  if (rate <= 0 || seconds <= 0) return due;
  const auto n = static_cast<size_t>(std::llround(rate * seconds));
  SeededRng rng(seed);
  due.reserve(n);
  for (size_t i = 0; i < n; ++i) due.push_back(rng.uniform() * seconds);
  std::sort(due.begin(), due.end());
  return due;
}

// One open-loop request's clock readings, all on one steady clock. Latency
// runs from when the request was due, so a stalled generator or a full
// queue charges its wait to every request behind it; lag is how late the
// generator actually sent.
struct OpenLoopTiming {
  double due = 0;
  double sent = 0;
  double done = 0;
  double latency() const { return done - due; }
  double lag() const { return std::max(0.0, sent - due); }
};

// BENCHMARK.json name rule: starts with a letter or digit, at most 64
// letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s[0])) return false;
  for (char c : s) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

// BENCHMARK.json unit rule: at most 16 letters, digits, '_', '/', '%', '.'
// and '-'.
inline bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace rxbench
