// Shared plumbing of the psched benchmark: command line, seeded random
// numbers, order statistics, process memory readings, and the one-line
// JSON result the harness prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psched::sim {}
namespace psched::benchsuite {}
namespace psched::rt {}

namespace psbench {

namespace sim = psched::sim;
namespace benchsuite = psched::benchsuite;
namespace rt = psched::rt;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale for the benchmark's own tests: one or two episodes of a
  /// shrunken workload, whatever `seconds` says.
  bool smoke = false;
  /// Deliberately break the workload's correctness check (tests prove a
  /// broken check exits non-zero).
  bool inject_fault = false;
  /// Where the traced run writes its spans and self-time table.
  std::string trace_dir = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run reports. `failed` counts submissions that failed
/// or were refused; `correct` is false on any correctness violation.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void violation(std::string what) {
    correct = false;
    violations.push_back(std::move(what));
  }
};

/// splitmix64: a tiny, fully specified generator, so a seed yields the same
/// inputs on every standard library (std:: distributions are not portable).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1] (sorts a copy).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// A sample set reduced to what a result reports (runs keep this per
/// episode instead of every sample).
struct Percentiles {
  double p50 = 0;
  double p99 = 0;
  long n = 0;
};
[[nodiscard]] inline Percentiles percentiles(const std::vector<double>& v) {
  return {quantile(v, 0.50), quantile(v, 0.99), static_cast<long>(v.size())};
}

/// Host timings on a shared machine are skewed one way: contention from
/// other processes for caches and memory bandwidth only ever slows an
/// episode down, by up to a third for seconds at a time, while the fastest
/// episodes of a run stay within a few percent of each other run after
/// run. A run's host figures therefore summarize its episodes by the fast
/// decile: the 90th percentile of a rate, the 10th percentile of a time or
/// latency. A change to the program moves every episode, the fast ones
/// included, so it still shows.
[[nodiscard]] inline double fast_rate(std::vector<double> v) {
  return quantile(std::move(v), 0.9);
}
[[nodiscard]] inline double fast_time(std::vector<double> v) {
  return quantile(std::move(v), 0.1);
}

/// `f` applied to every element of `xs`.
template <typename T, typename F>
[[nodiscard]] std::vector<double> each(const std::vector<T>& xs, F f) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (const T& x : xs) out.push_back(f(x));
  return out;
}

[[nodiscard]] double geomean(const std::vector<double>& v);

/// Process high-water resident set size in MB.
[[nodiscard]] double peak_rss_mb();
/// Bytes currently allocated through malloc (live heap).
[[nodiscard]] double heap_bytes();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string to_json(const Result& r);

/// A workload's readings by metric name. Workloads fill in what applies to
/// them; emit() prints the end-to-end table (--trace 0) or the per-layer
/// table (--trace 1) in BENCHMARK.json's order.
using Values = std::map<std::string, double>;

/// Copy the table selected by `args.trace` from `values` into `out`. Every
/// end-to-end metric must be present (a missing one is a benchmark bug and
/// throws); a per-layer metric of a layer the workload does not use reads
/// 0 — that layer did no work.
void emit(const Args& args, const Values& values, Result& out);

// Workload entry points (one per workload; each fills `out`).
void run_paper_suite(const Args& args, Result& out);
void run_engine_stream(const Args& args, Result& out);
void run_tenant_mix(const Args& args, Result& out);

}  // namespace psbench
