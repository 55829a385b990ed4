// Seeded input generators. Each takes its seed as an argument and runs
// before the timed region; the same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "common.hpp"
#include "sim/device_spec.hpp"
#include "sim/types.hpp"

namespace psbench {

// --- engine_stream: the random contention DAG ---

struct StreamDagConfig {
  int streams = 128;
  int devices = 4;
  int waves = 10;
  int wave_ops = 20000;
};

/// One op of the DAG. `wait_on` >= 0 adds a cross-stream event edge before
/// the op: an event recorded on stream `wait_on`, waited on by `stream`.
struct DagItem {
  sim::OpKind kind = sim::OpKind::Kernel;
  sim::StreamId stream = 0;
  sim::StreamId wait_on = -1;
  sim::DeviceId peer = sim::kInvalidDevice;  ///< CopyP2P source device
  double work = 0;  ///< kernel solo-us, or transfer bytes
  double sm_demand = 0;
  double occupancy = 0;
  double bw_need = 0;
};

/// Waves of a random mix of kernels (varying SM demand, occupancy and DRAM
/// appetite), H2D / D2H / P2P copies, page faults and cross-stream event
/// edges, over `streams` streams where stream s lives on device
/// s % devices.
[[nodiscard]] std::vector<std::vector<DagItem>> make_stream_dag(
    std::uint64_t seed, const StreamDagConfig& cfg);

// --- paper_suite: per-benchmark scale and block size ---

struct PaperPick {
  benchsuite::BenchId id = benchsuite::BenchId::VEC;
  long scale = 0;
  int block_size = 256;
};

/// One pick per paper benchmark: the benchmark's smallest scale that fits
/// on `spec`, jittered by up to +-10%, and a block size drawn from
/// {128, 256, 512}.
[[nodiscard]] std::vector<PaperPick> paper_picks(std::uint64_t seed,
                                                 const sim::DeviceSpec& spec);

// --- tenant_mix: open-loop request times and batch round sizes ---

struct TenantMixInputs {
  /// Due time of each latency-critical request (virtual us): one per
  /// period, jittered by up to +-jitter.
  std::vector<double> request_due_us;
  /// Kernels in each batch round, per batch tenant ([tenant][round]).
  std::vector<std::vector<int>> round_kernels;
};

[[nodiscard]] TenantMixInputs make_tenant_mix_inputs(
    std::uint64_t seed, int requests, double period_us, double jitter_us,
    int batch_tenants, int rounds, int kernels_lo, int kernels_hi);

}  // namespace psbench
