// Hardware-utilization metrics (Fig. 12).
//
// The paper collects device-memory throughput, L2 throughput, IPC and
// GFLOPS with nvprof/ncu and combines them with the execution timeline.
// Here the same quantities are computed from the kernel cost descriptors
// recorded in the timeline: per-kernel counters are contention-independent
// ("the amount of bytes read/written ... mostly depends on the kernel
// itself", V-F), so throughput differences between serial and parallel
// scheduling come purely from the kernel-busy time in the denominator —
// space-sharing compresses it, transfer-only overlap leaves it unchanged.
#pragma once

#include <vector>

#include "sim/device_spec.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"

namespace psched::sim {

struct HwMetrics {
  double dram_gbps = 0;   ///< device memory throughput
  double l2_gbps = 0;     ///< L2 cache throughput
  double ipc = 0;         ///< device-wide instructions per clock cycle
  double gflops = 0;      ///< single+double precision FLOP rate
  TimeUs makespan_us = 0;
  /// Union of kernel-active intervals; the denominator of every rate above.
  TimeUs kernel_busy_us = 0;
};

class QosManager;  // qos.hpp

/// Per-tenant latency QoS row (completion-latency histogram percentiles
/// plus the EEVDF / admission state), for the qos_report below.
struct QosTenantReport {
  TenantId tenant = kInvalidTenant;
  ServiceClass service_class = ServiceClass::Batch;
  double target_p99_us = 0;
  double p50_us = 0;      ///< observed completion-latency median
  double p99_us = 0;      ///< observed completion-latency p99
  long samples = 0;       ///< completions the percentiles summarize
  double lag_us = 0;      ///< entitled minus received service
  bool eligible = true;
  long deadline_misses = 0;
  long admission_rejections = 0;
  double weight = 0;      ///< current engine weight (controller boost)
};

class Profiler {
 public:
  /// Aggregate counters over the run recorded in `timeline`.
  [[nodiscard]] static HwMetrics compute(const Timeline& timeline,
                                         const DeviceSpec& spec);

  /// Per-tenant latency QoS rows from an attached QosManager: the
  /// completion-latency histograms (p50/p99 since the last reset_stats),
  /// the live lag/eligibility state, deadline misses and admission
  /// rejections — one row per registered tenant, id order.
  [[nodiscard]] static std::vector<QosTenantReport> qos_report(
      const QosManager& qos);
};

}  // namespace psched::sim
