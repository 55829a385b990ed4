#include "sim/profiler.hpp"

#include "sim/qos.hpp"

namespace psched::sim {

HwMetrics Profiler::compute(const Timeline& timeline, const DeviceSpec& spec) {
  HwMetrics m;
  m.makespan_us = timeline.makespan();
  if (m.makespan_us <= 0) return m;

  // The denominator is the union of kernel-active intervals, not the run
  // makespan: nvprof-style rates describe the device while kernels execute.
  // Pure transfer speedups (VEC) leave this busy time unchanged, so their
  // serial/parallel ratio is ~1.0x (Fig. 12); space-sharing compresses the
  // busy time and the ratio rises above 1.
  m.kernel_busy_us = timeline.kernel_cover().measure();
  if (m.kernel_busy_us <= 0) return m;

  // O(1): the timeline folds counters in at record time.
  const KernelProfile& total = timeline.total_kernel_profile();
  const double seconds = m.kernel_busy_us * 1e-6;

  m.dram_gbps = total.dram_bytes / seconds / 1e9;
  m.l2_gbps = total.l2_bytes / seconds / 1e9;
  m.gflops = total.flops_total() / seconds / 1e9;

  // Device-wide IPC normalized per SM, in *warp* instructions (nvprof
  // semantics): the cost descriptors count per-thread operations, and one
  // issued instruction covers a 32-thread warp.
  const double cycles = spec.clock_ghz * 1e9 * seconds;
  m.ipc = total.instructions / 32.0 / (cycles * spec.sm_count);
  return m;
}

std::vector<QosTenantReport> Profiler::qos_report(const QosManager& qos) {
  std::vector<QosTenantReport> rows;
  const std::size_t n = qos.num_tenants();
  rows.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    const QosTenantStats s = qos.stats(static_cast<TenantId>(t));
    QosTenantReport r;
    r.tenant = s.tenant;
    r.service_class = s.service_class;
    r.target_p99_us = s.target_p99_us;
    r.p50_us = s.p50_us;
    r.p99_us = s.p99_us;
    r.samples = s.completed;
    r.lag_us = s.lag_us;
    r.eligible = s.eligible;
    r.deadline_misses = s.deadline_misses;
    r.admission_rejections = s.admission_rejections;
    r.weight = s.weight;
    rows.push_back(r);
  }
  return rows;
}

}  // namespace psched::sim
