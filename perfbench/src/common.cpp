#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace psbench {

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep both tables in step with BENCHMARK.json (run.py checks the printed
// names against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},      {"makespan_us", "us"},
    {"launch_p50_us", "us"},    {"launch_p99_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    // workload figures that exist on one workload only
    {"report_s", "s"},
    {"speedup_vs_serial", "x"},
    {"speedup_vs_graphs", "x"},
    {"lc_p50_us", "us"},
    {"lc_p99_us", "us"},
    {"batch_work_per_ms", "us/ms"},
    {"failed_share", "ratio"},
    {"launch.samples", "count"},
    // rt
    {"rt.launch_s", "s"},
    {"rt.host_access_s", "s"},
    {"rt.sync_s", "s"},
    {"rt.edges_per_computation", "ratio"},
    {"rt.event_waits", "count"},
    {"rt.prefetches", "count"},
    {"rt.streams_created", "count"},
    {"rt.critical_path_s", "s"},
    {"timeline.overlap_s", "s"},
    {"profiler.hw_s", "s"},
    {"timeline.entries", "count"},
    // gpu
    {"gpu.graph_launch_s", "s"},
    {"gpu.sync_s", "s"},
    {"gpu.launch_s", "s"},
    {"gpu.advance_s", "s"},
    // engine
    {"engine.enqueue_s", "s"},
    {"engine.commit_s", "s"},
    {"engine.drain_s", "s"},
    {"engine.solves_per_op", "ratio"},
    {"engine.solved_ops_per_op", "ratio"},
    {"engine.member_touches_per_op", "ratio"},
    {"engine.full_scans", "count"},
    {"engine.peak_resident_ops", "count"},
    {"engine.rss_bytes_per_op", "B"},
    // memory
    {"memory.bytes_evicted", "B"},
    {"memory.fault_ops", "count"},
    {"memory.prefetch_ops", "count"},
    {"memory.wasted_prefetch_bytes", "B"},
    {"memory.prefetch_overlap_fraction", "ratio"},
    {"memory.announce_s", "s"},
    // ingest
    {"ingest.post_s", "s"},
    {"ingest.flush_s", "s"},
    {"ingest.batches", "count"},
    {"ingest.ops_per_batch", "ratio"},
    {"ingest.clamped", "count"},
    {"ingest.errors", "count"},
    {"ingest.rejected", "count"},
    {"ingest.deferred", "count"},
    // qos / tenant
    {"qos.tick_s", "s"},
    {"qos.deadline_misses", "count"},
    {"qos.final_weight", "ratio"},
    {"qos.lag_us", "us"},
    {"lc.issue_lag_us", "us"},
    {"tenant.jain_batch", "ratio"},
    // the traced run itself
    {"bench.loop_s", "s"},
    {"trace.ops_per_s", "1/s"},
    {"trace.overhead_ops_per_s", "1/s"},
};

}  // namespace

void emit(const Args& args, const Values& values, Result& out) {
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = values.find(d.name);
      out.add(d.name, d.unit, it == values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = values.find(d.name);
      if (it == values.end()) {
        throw std::logic_error(std::string("end-to-end metric ") + d.name +
                               " was not measured");
      }
      out.add(d.name, d.unit, it->second);
    }
  }
}

std::string to_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // %.17g keeps every digit the measurement has; non-finite values
    // (a broken metric) print as null, which the harness rejects.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace psbench
